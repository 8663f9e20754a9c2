// Command perfbench is the repository's end-to-end benchmark. It boots
// the inspection service in this process, drives its public /v1 HTTP
// API over loopback with at most nproc client connections, checks
// every answer against the paper's §2 sequential merge, and prints a
// JSON result as its last line of output. BENCHMARK.json at the
// repository root names its workloads and metrics.
//
// Run it from the repository root; the script builds it first:
//
//	bash perfbench/run.sh --workload ref-similar --seed 1 --seconds 30 --trace 0
//
// With --trace 0 a run sets up three times (setup_s is the median),
// then alternates, for --seconds in all, a closed loop of nproc clients
// (ops_per_s) with an open loop at the workload's fixed rate (p50_ms,
// cpu_ms_per_op). With --trace 1 it runs the open loop twice, untraced
// (p99_ms, write_p50_ms) and then traced, replays the traced requests
// layer by layer, writes the spans to the scratch directory and reports
// the per-layer metrics. The line before the result is a report: the
// provenance, the corpus regime and the sample count behind every
// figure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workloadSpec is one traffic mix. Each rate is at most 40% of the
// workload's closed-loop capacity (ops_per_s, in jobs for
// batch-durable) measured on a 2-core machine, so the open loop
// measures latency rather than a growing backlog, and is high enough
// that the open loop collects over a thousand latency samples, so p99
// has ten beyond it. Each workload's
// "why" in BENCHMARK.json states its rate; the smoke test keeps the two
// in step.
type workloadSpec struct {
	cluster    bool    // in-process coordinator, 3 shards, Replicas 2
	durable    bool    // DataDir on a temp dir, WAL sync "none"
	rate       float64 // open-loop offered rate, ops/s
	writeEvery int     // every n-th op is a fresh reference write
	build      func(rng *rand.Rand, tiny bool) (*corpus, error)
}

// scaled picks the full-size or the smoke-test value.
func scaled(tiny bool, full, small int) int {
	if tiny {
		return small
	}
	return full
}

var workloads = map[string]*workloadSpec{
	// The paper's inspection regime and the decode-once cache path:
	// eight 1024² references, scans = reference ⊕ §5 error runs,
	// diffed by reference id. The kernel is only part of the time, so
	// refstore, decode and HTTP changes show here.
	"ref-similar": {rate: 80, build: func(rng *rand.Rand, tiny bool) (*corpus, error) {
		return refSimilar(rng, scaled(tiny, 1024, 64), 8, 4, 0)
	}},
	// Both 512² images uploaded, independent §5 draws: the kernel does
	// most of the work and the refstore is bypassed, so an engine
	// change shows here and a refstore change must not.
	"upload-random": {rate: 80, build: func(rng *rand.Rand, tiny bool) (*corpus, error) {
		return uploadRandom(rng, scaled(tiny, 512, 64), 32)
	}},
	// ref-similar's stream through a coordinator with three shards and
	// Replicas 2: the only workload through the route, the peer round
	// trip and the forwarding codec passes. One op in 16 is a fresh
	// reference write: few enough that reads keep ref-similar's mix,
	// enough that a traced run's untraced half holds seventy-five.
	"cluster-rw": {cluster: true, rate: 80, writeEvery: 16, build: func(rng *rand.Rand, tiny bool) (*corpus, error) {
		return refSimilar(rng, scaled(tiny, 1024, 64), 8, 4, scaled(tiny, 192, 64))
	}},
	// One durable node: batch jobs of two similar 128² scans against a
	// stored reference, polled until done. The only workload through
	// jobs, inspect, wal, store and auditlog. Jobs are small so the
	// durable path (journal, blob and audit writes, polling), not the
	// kernel, sets their cost, and so the open loop still collects a
	// thousand job latencies per run.
	"batch-durable": {durable: true, rate: 80, build: func(rng *rand.Rand, tiny bool) (*corpus, error) {
		return batchJobs(rng, scaled(tiny, 128, 64), 2, 8, 2)
	}},
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// config is one invocation.
type config struct {
	workload string
	seed     int64
	measure  time.Duration
	trace    bool
	root     string // the checkout, read for provenance
	scratch  string // durable-tier temp dirs and span files
	tiny     bool   // smoke-test scale
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type output struct {
	Report map[string]any
	Result result
}

func main() {
	var cfg config
	var seconds, trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed every input is generated from")
	flag.IntVar(&seconds, "seconds", 30, "seconds measured per run")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.StringVar(&cfg.root, "root", ".", "repository checkout, read for provenance")
	flag.StringVar(&cfg.scratch, "scratch", ".bench_build", "directory for durable-tier data and span files")
	flag.Parse()
	if seconds < 1 || (trace != 0 && trace != 1) {
		fail(fmt.Errorf("want --seconds ≥ 1 and --trace 0 or 1"))
	}
	cfg.measure = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1
	out, err := run(cfg)
	if err != nil {
		fail(err)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"report": out.Report}); err != nil {
		fail(err)
	}
	if err := enc.Encode(out.Result); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// run sets the workload up, measures it and returns the report and the
// result line.
func run(cfg config) (*output, error) {
	w, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	if err := os.MkdirAll(cfg.scratch, 0o755); err != nil {
		return nil, err
	}
	workers := runtime.NumCPU()
	tr := newTracer()
	reps := 3
	if cfg.trace {
		reps = 1
	}
	var (
		setups []float64
		tgt    *target
		cl     *client
		crp    *corpus
		warm   tally
	)
	teardown := func() {
		if tgt != nil {
			cl.close()
			tgt.close()
			tgt = nil
		}
	}
	defer teardown()
	// Each set-up builds the corpus and boots, registers and warms a
	// fresh deployment; the last one is measured.
	for rep := 0; rep < reps; rep++ {
		teardown()
		runtime.GC()
		start := time.Now()
		var err error
		if crp, err = w.build(rand.New(rand.NewSource(cfg.seed)), cfg.tiny); err != nil {
			return nil, fmt.Errorf("building the corpus: %w", err)
		}
		if tgt, err = boot(w, cfg.scratch, tr); err != nil {
			return nil, fmt.Errorf("booting: %w", err)
		}
		cl = newClient(tgt.url, workers)
		if err := register(cl, crp); err != nil {
			return nil, err
		}
		warm = tally{}
		warm.add(sequential(cl, crp.reads, fmt.Sprintf("w%d", rep)))
		if warm.failed+warm.shed > 0 {
			return nil, fmt.Errorf("warm-up: %d of %d ops failed: %s", warm.failed+warm.shed, warm.attempted, warm.firstErr)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	runtime.GC()
	report := map[string]any{
		"workload":   cfg.workload,
		"provenance": provenance(cfg.root, cfg.seed),
		"corpus": map[string]any{
			"regime": crp.regime, "reads": len(crp.reads), "refs_registered": len(crp.refs),
		},
		"client_connections": workers,
		"open_loop_rate":     w.rate,
		"warmup_wrong":       warm.wrong,
	}
	if w.durable {
		report["wal_sync"] = "none: journal appends are not fsynced; blob and audit writes are"
	}
	st := newStream(crp, cfg.seed, w.writeEvery)
	var res result
	var err error
	if cfg.trace {
		res, err = tracedRun(cfg, w, tr, tgt, cl, st, workers, report)
	} else {
		res, err = measuredRun(cfg, w, cl, st, workers, setups, report)
	}
	if err != nil {
		return nil, err
	}
	res.Correct = res.Correct && warm.wrong == 0
	if warm.firstErr != "" {
		report["warmup_first_error"] = warm.firstErr
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	return &output{Report: report, Result: res}, nil
}

// register stores the corpus's references and checks their ids.
func register(cl *client, c *corpus) error {
	for i, ref := range c.refs {
		body, ctype, err := multipartBody(filePart{"image", ref})
		if err != nil {
			return err
		}
		o := &op{kind: opWrite, path: "/v1/references", ctype: ctype, body: body, wantID: c.refIDs[i]}
		if r := cl.do(o, fmt.Sprintf("r-%d", i)); r.out != succeeded {
			return fmt.Errorf("registering reference %d: %s", i, r.err)
		}
	}
	return nil
}

// rounds is how many times a measured run alternates a closed-loop
// stretch with an open-loop one. Contention from the rest of a shared
// machine comes and goes over seconds. ops_per_s, p50_ms and
// cpu_ms_per_op are medians over rounds, so a spell of it that spans
// fewer than half the rounds does not move them.
const rounds = 10

// measuredRun is the --trace 0 run: rounds of a closed loop and an open
// loop, each half of the measured time.
func measuredRun(cfg config, w *workloadSpec, cl *client, st *stream, workers int, setups []float64, report map[string]any) (result, error) {
	closedDur := cfg.measure / 2 / rounds
	openDur := (cfg.measure - cfg.measure/2) / rounds
	var (
		all                                     tally
		reads, late                             []float64
		rates, cpus, p50s, peaks                []float64 // one per round
		closedUnits, openOps, openUnits, writes int
		closedSecs, openSecs                    float64
	)
	for r := 0; r < rounds; r++ {
		var peak int64
		rss := startSampler(50*time.Millisecond, func() { peak = max(peak, rssBytes()) })
		closed := closedLoop(cl, st, fmt.Sprintf("c%d", r), workers, closedDur)
		cpu0 := cpuTime()
		open := openLoop(cl, st, fmt.Sprintf("o%d", r), workers, w.rate, openDur)
		cpu := ms(cpuTime() - cpu0)
		rss.end()
		var ct, ot tally
		ct.add(closed.samples)
		ot.add(open.samples)
		all.add(closed.samples)
		all.add(open.samples)
		if ct.units == 0 || ot.units == 0 {
			return result{}, fmt.Errorf("round %d: no op completed: %s", r, all.firstErr)
		}
		var rr []float64
		for _, s := range open.samples {
			late = append(late, s.lateMs())
			if s.op.kind == opWrite {
				writes++
			} else {
				rr = append(rr, s.latencyMs())
			}
		}
		reads = append(reads, rr...)
		// Capacity is the closed loop's work per second. CPU per op is
		// taken at the fixed offered rate, so both commits of a
		// comparison pay it under the same load.
		rates = append(rates, float64(ct.units)/closed.elapsed.Seconds())
		cpus = append(cpus, cpu/float64(ot.units))
		p50s = append(p50s, percentile(rr, 0.5))
		peaks = append(peaks, float64(peak)/(1<<20))
		closedUnits += ct.units
		closedSecs += closed.elapsed.Seconds()
		openUnits += ot.units
		openSecs += open.elapsed.Seconds()
		openOps += len(open.samples)
	}
	capacity := percentile(rates, 0.5)
	metrics := map[string]metric{
		"setup_s":       {percentile(setups, 0.5), "s"},
		"ops_per_s":     {capacity, "1/s"},
		"p50_ms":        {percentile(p50s, 0.5), "ms"},
		"cpu_ms_per_op": {percentile(cpus, 0.5), "ms"},
		"rss_peak_mb":   {percentile(peaks, 1), "MB"},
	}
	report["samples"] = map[string]any{
		"setup_s":       len(setups),
		"rounds":        rounds,
		"ops_per_s":     closedUnits,
		"p50_ms":        len(reads),
		"cpu_ms_per_op": openUnits,
	}
	report["setup_s_each"] = setups
	report["closed_loop"] = map[string]any{"seconds": closedSecs, "ops": all.attempted - openOps, "units": closedUnits}
	// utilisation is the open loop's completed work per second as a
	// share of the closed loop's capacity.
	report["open_loop"] = map[string]any{"seconds": openSecs, "ops": openOps, "writes": writes,
		"late_p99_ms": percentile(late, 0.99), "utilisation": float64(openUnits) / openSecs / capacity}
	addErrors(report, all)
	return result{Correct: all.wrong == 0, Attempted: all.attempted, Failed: all.bad(), Metrics: metrics}, nil
}

// tracedRun is the --trace 1 run: the open loop untraced, then the same
// request sequence traced, then the replay.
func tracedRun(cfg config, w *workloadSpec, tr *tracer, tgt *target, cl *client, st *stream, workers int, report map[string]any) (result, error) {
	half := cfg.measure / 2
	untraced := openLoop(cl, st, "u", workers, w.rate, half)
	var reads, writes int
	for _, s := range untraced.samples {
		if s.op.kind == opWrite {
			writes++
		} else {
			reads++
		}
	}
	// p99_ms comes from the untraced reads. A percentile needs ten
	// samples beyond it; the smoke test's toy runs are too short for
	// that and check only that p99_ms is there.
	if n := beyond(reads, 0.99); n < 10 && !cfg.tiny {
		return result{}, fmt.Errorf("p99_ms: %d open-loop reads leave %d beyond p99, want at least 10; measure longer", reads, n)
	}
	nodes0, coord0, err := tgt.scrapeAll()
	if err != nil {
		return result{}, err
	}
	var depth, busy []float64
	gauges := startSampler(5*time.Millisecond, func() {
		depth = append(depth, float64(tgt.gauge("sysrle_jobs_queue_depth")))
		busy = append(busy, float64(tgt.gauge("sysrle_jobs_workers_busy")))
	})
	tr.on.Store(true)
	traced := openLoop(cl, st, "t", workers, w.rate, half)
	tr.on.Store(false)
	gauges.end()
	nodes1, coord1, err := tgt.scrapeAll()
	if err != nil {
		return result{}, err
	}
	tr.linkPeers()
	replayed, err := replay(tr, tgt, traced.samples, max(half/2, time.Second))
	if err != nil {
		return result{}, err
	}
	vals, acct := layerMetrics(traceInputs{
		spans: tr.spans, untraced: untraced, traced: traced,
		nodes0: nodes0, nodes1: nodes1, coord0: coord0, coord1: coord1,
		queueDepth: depth, busy: busy, replayed: replayed,
	})
	metrics := map[string]metric{}
	for _, lm := range layerNames {
		metrics[lm.name] = metric{vals[lm.name], lm.unit}
	}
	spansFile := filepath.Join(cfg.scratch, fmt.Sprintf("spans-%s-seed%d.json", cfg.workload, cfg.seed))
	if err := tr.writeSpans(spansFile); err != nil {
		return result{}, err
	}
	counts := map[string]int{}
	for _, s := range tr.spans {
		counts[s.Name]++
	}
	var all tally
	all.add(untraced.samples)
	all.add(traced.samples)
	report["spans_file"] = spansFile
	report["span_counts"] = counts
	report["replayed_requests"] = replayed
	report["traced_ops"] = len(traced.samples)
	report["samples"] = map[string]any{"p99_ms": reads, "p99_samples_beyond": beyond(reads, 0.99), "write_p50_ms": writes}
	report["blocking_path"] = acct
	report["linking"] = linking
	addErrors(report, all)
	return result{Correct: all.wrong == 0, Attempted: all.attempted, Failed: all.bad(), Metrics: metrics}, nil
}

func addErrors(report map[string]any, t tally) {
	report["error_ratio"] = ratio(float64(t.bad()), float64(t.attempted))
	report["wrong_answers"] = t.wrong
	report["failed"] = t.failed
	report["shed"] = t.shed
	if t.firstErr != "" {
		report["first_error"] = t.firstErr
	}
}
