# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test vet race ci chaos chaos-disk oracle perfbench-smoke cover bench bench-json calibrate perf-smoke experiments fuzz cluster-smoke loc clean

all: build vet test

# Mirrors .github/workflows/ci.yml.
ci:
	$(GO) vet ./...
	@test -z "$$(gofmt -l .)" || { gofmt -l .; exit 1; }
	$(GO) build ./...
	$(GO) test -race ./...
	$(GO) test -fuzz FuzzReadBinary -fuzztime 15s ./internal/rle/
	$(GO) test -fuzz FuzzDecodeBinary -fuzztime 15s ./internal/rle/
	$(GO) test -fuzz FuzzRowDecoderRowsValid -fuzztime 15s ./internal/rle/
	$(GO) test -fuzz FuzzReadText -fuzztime 15s ./internal/rle/
	$(GO) test -fuzz FuzzReadPBM -fuzztime 15s ./internal/bitmap/
	$(GO) test -fuzz FuzzUnionOfTranslates -fuzztime 15s ./internal/runmorph/
	$(GO) test -fuzz FuzzErodeIntersection -fuzztime 15s ./internal/runmorph/
	$(MAKE) perf-smoke
	$(MAKE) perfbench-smoke
	$(MAKE) oracle
	$(MAKE) chaos
	$(MAKE) cluster-smoke
	$(MAKE) chaos-disk

# The fault-tolerance suite under the race detector, repeated to
# shake out timing-dependent interleavings, with the request deadline
# and in-flight limiter tests, plus the cluster coordinator's chaos,
# failover and conformance tests (mirrors the ci.yml chaos job).
chaos:
	$(GO) test -race -count=3 ./internal/fault/
	$(GO) test -race -count=3 -run 'Chaos|Fault|Readyz|Hammer|Stuck|Panic|Verified|Timeout|Limiter' \
		./internal/core/ ./internal/jobs/ ./internal/server/ ./internal/inspect/ ./cmd/sysdiffd/
	$(GO) test -race -count=3 -run 'Chaos|Killed|Failover|Conformance' ./internal/cluster/

# The durability suite under the race detector: the full storage
# stack (blob store, WAL, Merkle audit log) plus the crash-recovery
# and disk-fault chaos runs — randomized kill -9 with torn/bit-rotted
# tails, recovery must be a durable prefix; seeded torn-write /
# ENOSPC / bit-rot / sync-fail injection, the service may fail loudly
# but never lie (mirrors the ci.yml chaos-disk job).
chaos-disk:
	$(GO) test -race -count=2 ./internal/store/ ./internal/wal/ ./internal/auditlog/
	$(GO) test -race -count=2 \
		-run 'CrashRecoveryChaos|DiskFaultChaos|Recovery|Torture|Restart|Checkpoint|Fsck|Journal|Audit|Gauge' \
		./internal/jobs/ ./internal/server/ ./internal/refstore/ ./cmd/sysdiffd/

# The cross-engine differential & metamorphic oracle on the pinned CI
# seed: every registered engine against the sequential merge and a
# pixel-level bitmap oracle, plus the metamorphic identity library
# (mirrors the ci.yml oracle job). Non-zero exit on any discrepancy.
# Rotate the corpus with `go run ./cmd/benchtab -oracle -oracle-seed N`.
oracle:
	$(GO) run ./cmd/benchtab -oracle

# The end-to-end benchmark's smoke: all four perfbench workloads at
# toy size, every answer byte-checked (mirrors the ci.yml
# perfbench-smoke job). perfbench is its own module, outside ./...
perfbench-smoke:
	cd perfbench && $(GO) test .

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/systolic/ ./internal/core/ ./internal/server/ ./internal/telemetry/ ./cmd/sysdiffd/ .

cover:
	$(GO) test -cover ./...

bench:
	$(GO) test -bench . -benchmem ./...

# Regenerate the committed machine-readable benchmark report (the
# engine × workload matrix of internal/perf plus the page-scale
# morphology matrix — run-native vs decomposed vs bitmap on A4
# documents; see EXPERIMENTS.md).
bench-json:
	$(GO) run ./cmd/benchtab -bench -bench-out BENCH_PR7.json
	@echo wrote BENCH_PR7.json

# Re-fit the planner's row cost model on this machine (paste the
# output into core.DefaultRowCostModel; see EXPERIMENTS.md).
calibrate:
	$(GO) run ./cmd/benchtab -calibrate

# The allocation regression gate plus the planner and run-native
# morphology competitiveness smokes: deterministic allocs/op
# assertions over the hot paths, the sweep-endpoint wall-clock gate,
# the sparse-A4 opening gate, the row-loop scheduling-overhead gate,
# the streamed /v1/diff allocation gate, ref-routed and inline, the
# inspect allocation gate (one 128² similar-pair Compare), the
# planner's publish-once gate and the warm RLEB codec's zero-allocation
# gate (mirrors the ci.yml perf-smoke job).
perf-smoke:
	$(GO) test -run 'AllocReduction|ZeroAllocs|BinaryCodecWarm|StreamAllocs|InspectCompareAllocs|PlannerSmoke|PublishOnce|RunmorphSmoke|SchedulingOverhead' -v \
		./internal/perf/ ./internal/core/ ./internal/planner/ ./internal/rle/

# Regenerate every paper table and figure (see EXPERIMENTS.md).
experiments:
	$(GO) run ./cmd/benchtab -all

# Multi-process cluster smoke: builds the real sysdiffd binary, boots
# a coordinator + 3 shard processes, sends a seeded ref-diff burst
# through the typed client, and asserts the coordinator's answers are
# byte-identical to a single node's, also after a shard is killed
# (mirrors the ci.yml cluster-smoke job).
cluster-smoke:
	SYSRLE_CLUSTER_SMOKE=1 $(GO) test -run TestClusterSmoke -v ./cmd/sysdiffd/

# Short fuzzing passes over the decoders and the run-native
# morphology row kernels.
fuzz:
	$(GO) test -fuzz FuzzReadBinary -fuzztime 10s ./internal/rle/
	$(GO) test -fuzz FuzzDecodeBinary -fuzztime 10s ./internal/rle/
	$(GO) test -fuzz FuzzRowDecoderRowsValid -fuzztime 10s ./internal/rle/
	$(GO) test -fuzz FuzzReadText -fuzztime 10s ./internal/rle/
	$(GO) test -fuzz FuzzReadPBM -fuzztime 10s ./internal/bitmap/
	$(GO) test -fuzz FuzzUnionOfTranslates -fuzztime 10s ./internal/runmorph/
	$(GO) test -fuzz FuzzErodeIntersection -fuzztime 10s ./internal/runmorph/

# Non-test, non-blank, non-comment Go lines outside perfbench/: the
# size the ROADMAP asks each simplicity change to shrink.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './perfbench/*' -print0 | xargs -0 cat | grep -v '^\s*//' | grep -cv '^\s*$$'

clean:
	$(GO) clean ./...
