// Command sysdiffd serves the compressed-domain inspection system
// over HTTP — the "on-line automatic inspection" deployment shape of
// the paper's §1 application.
//
//	sysdiffd [flags]
//
//	-addr :8422              listen address
//	-max-inflight 64         concurrent requests before shedding 429 (0 = unlimited)
//	-request-timeout 30s     per-request deadline, 503 on expiry (0 = none)
//	-max-upload 67108864     request body limit in bytes, 413 beyond it (0 = none)
//	-read-timeout 1m         socket read deadline
//	-write-timeout 2m        socket write deadline
//	-idle-timeout 2m         keep-alive idle deadline
//	-drain-timeout 30s       graceful-shutdown deadline on SIGINT/SIGTERM
//	-log-json                emit access logs as JSON instead of text
//	-ref-cache 268435456     decoded-reference LRU budget in bytes (0 = default, <0 = off)
//	-ref-ttl 0               evict references idle this long (0 = keep forever)
//	-job-workers 4           batch-inspection worker pool size
//	-job-queue 256           queued scans across all jobs before 429 backpressure
//	-job-retention 15m       how long finished jobs stay pollable
//	-scan-timeout 0          per-scan deadline inside batch jobs (0 = none)
//	-fault-inject ""         chaos mode: inject engine faults per a seeded
//	                         plan, e.g. "rate=0.05,seed=7,kinds=panic+slow";
//	                         faults are detected and recovered by the
//	                         verified engine (dev/test only)
//	-data-dir ""             durable mode: persist references, the job
//	                         journal and the Merkle audit log under this
//	                         directory; acknowledged work survives kill -9
//	                         and resumes at the next start. Empty keeps
//	                         everything in memory (the default).
//	-wal-sync always         journal fsync policy: always | batch | none
//	-wal-sync-every 64       appends per fsync under -wal-sync=batch
//	-audit-batch 64          verdicts per sealed Merkle batch
//	-audit-interval 5s       deadline for sealing a partial audit batch
//	-disk-fault-inject ""    chaos mode for the durable tier: seeded disk
//	                         faults, e.g. "rate=0.01,seed=7,kinds=
//	                         torn-write+enospc+bitrot+sync-fail+slow"
//	                         (dev/test only)
//	-fsck                    offline integrity check of -data-dir (blob
//	                         re-hash, journal replay, audit chain and
//	                         proof verification), then exit 0 if clean,
//	                         1 if anything is corrupt
//	-coordinator             cluster mode: serve as a coordinator that
//	                         fronts the shard ring named by -peers
//	                         instead of processing images locally.
//	                         References are placed by consistent
//	                         hashing; every other call is forwarded
//	                         whole to one shard, round-robin
//	-peers ""                comma-separated shard base URLs for
//	                         -coordinator, e.g.
//	                         "http://10.0.0.1:8422,http://10.0.0.2:8422"
//	-peer-timeout 30s        per-shard call deadline in coordinator mode
//	-peer-retries 2          retry budget for idempotent shard calls
//	-hedge 0                 launch a duplicate shard call if the first
//	                         is still pending after this long (0 = off)
//	-replicas 1              copies of each reference across the ring;
//	                         writes fan out to all copies, reads fail
//	                         over between them when a shard dies
//	-probe-interval 0        background shard health-probe period
//	                         (0 = off unless -auto-eject, which
//	                         defaults it to 2s)
//	-probe-failures 3        consecutive probe failures before a shard
//	                         is marked suspect
//	-auto-eject              drain suspect shards from the ring
//	                         automatically and repair replication, as
//	                         if an operator had POSTed the membership
//	                         change
//
// Liveness is GET /healthz; readiness is GET /readyz, which aggregates
// worker-pool, job-queue, reference-cache and load-shed probes — plus
// a storage probe in durable mode — into a per-probe JSON breakdown
// (503 while any probe fails).
//
//	curl -F image=@golden.pbm localhost:8422/v1/references          # → {"id": ...}
//	curl -F b=@scan.pbm "localhost:8422/v1/diff?ref=<id>"           # no re-upload of the golden board
//	curl -F scan=@s1.pbm -F scan=@s2.pbm "localhost:8422/v1/jobs?ref=<id>"
//	curl localhost:8422/v1/jobs/job-000001-3f9a02c1                 # poll progress (id from the 202)
//
//	curl -F a=@ref.pbm -F b=@scan.pbm 'localhost:8422/v1/diff?format=png' -o diff.png
//	curl -F ref=@ref.pbm -F scan=@scan.pbm 'localhost:8422/v1/inspect?min-area=2'
//	curl localhost:8422/metrics
//
// On SIGINT or SIGTERM the server stops accepting connections, drains
// in-flight requests for up to -drain-timeout, then exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"sysrle/internal/cluster"
	"sysrle/internal/fault"
	"sysrle/internal/jobs"
	"sysrle/internal/refstore"
	"sysrle/internal/server"
	"sysrle/internal/store"
	"sysrle/internal/wal"
)

// options collects the flag-configurable server shape.
type options struct {
	addr           string
	maxInFlight    int
	requestTimeout time.Duration
	maxUpload      int64
	readTimeout    time.Duration
	writeTimeout   time.Duration
	idleTimeout    time.Duration
	drainTimeout   time.Duration
	logJSON        bool
	refCache       int64
	refTTL         time.Duration
	jobWorkers     int
	jobQueue       int
	jobRetention   time.Duration
	scanTimeout    time.Duration
	faultInject    string

	dataDir         string
	walSync         string
	walSyncEvery    int
	auditBatch      int
	auditInterval   time.Duration
	diskFaultInject string
	fsck            bool

	coordinator   bool
	peers         string
	peerTimeout   time.Duration
	peerRetries   int
	hedge         time.Duration
	replicas      int
	probeInterval time.Duration
	probeFailures int
	autoEject     bool
}

func parseFlags(fs *flag.FlagSet, args []string) (options, error) {
	var o options
	fs.StringVar(&o.addr, "addr", ":8422", "listen address")
	fs.IntVar(&o.maxInFlight, "max-inflight", server.DefaultMaxInFlight,
		"max concurrently served requests; beyond it requests get 429 (0 = unlimited)")
	fs.DurationVar(&o.requestTimeout, "request-timeout", server.DefaultRequestTimeout,
		"per-request deadline; 503 on expiry (0 = none)")
	fs.Int64Var(&o.maxUpload, "max-upload", server.MaxUploadBytes,
		"request body limit in bytes; 413 beyond it (0 = none)")
	fs.DurationVar(&o.readTimeout, "read-timeout", time.Minute, "socket read deadline")
	fs.DurationVar(&o.writeTimeout, "write-timeout", 2*time.Minute, "socket write deadline")
	fs.DurationVar(&o.idleTimeout, "idle-timeout", 2*time.Minute, "keep-alive idle deadline")
	fs.DurationVar(&o.drainTimeout, "drain-timeout", 30*time.Second,
		"in-flight drain deadline during graceful shutdown")
	fs.BoolVar(&o.logJSON, "log-json", false, "emit logs as JSON")
	fs.Int64Var(&o.refCache, "ref-cache", refstore.DefaultCacheBytes,
		"decoded-reference LRU cache budget in bytes (negative disables caching)")
	fs.DurationVar(&o.refTTL, "ref-ttl", 0,
		"evict references idle this long (0 = keep forever)")
	fs.IntVar(&o.jobWorkers, "job-workers", jobs.DefaultWorkers,
		"batch-inspection worker pool size")
	fs.IntVar(&o.jobQueue, "job-queue", jobs.DefaultQueueDepth,
		"queued scans across all jobs before submissions get 429")
	fs.DurationVar(&o.jobRetention, "job-retention", jobs.DefaultRetention,
		"how long finished jobs stay pollable before collection")
	fs.DurationVar(&o.scanTimeout, "scan-timeout", 0,
		"per-scan deadline inside batch jobs (0 = none)")
	fs.StringVar(&o.faultInject, "fault-inject", "",
		`chaos mode: seeded engine-fault plan, e.g. "rate=0.05,seed=7,kinds=panic+slow" (dev/test only)`)
	fs.StringVar(&o.dataDir, "data-dir", "",
		"persist references, the job journal and the audit log under this directory (empty = in-memory)")
	fs.StringVar(&o.walSync, "wal-sync", "always",
		"journal fsync policy: always | batch | none")
	fs.IntVar(&o.walSyncEvery, "wal-sync-every", 0,
		"appends per fsync under -wal-sync=batch (0 = default)")
	fs.IntVar(&o.auditBatch, "audit-batch", 0,
		"verdicts per sealed audit-log Merkle batch (0 = default)")
	fs.DurationVar(&o.auditInterval, "audit-interval", 0,
		"deadline for sealing a partial audit batch (0 = default)")
	fs.StringVar(&o.diskFaultInject, "disk-fault-inject", "",
		`chaos mode: seeded disk-fault plan for the durable tier, e.g. "rate=0.01,seed=7,kinds=torn-write+bitrot" (dev/test only)`)
	fs.BoolVar(&o.fsck, "fsck", false,
		"check -data-dir integrity (blob hashes, journal, audit chain) and exit")
	fs.BoolVar(&o.coordinator, "coordinator", false,
		"serve as a cluster coordinator fronting the shards named by -peers")
	fs.StringVar(&o.peers, "peers", "",
		"comma-separated shard base URLs for -coordinator")
	fs.DurationVar(&o.peerTimeout, "peer-timeout", cluster.DefaultPeerTimeout,
		"per-shard call deadline in coordinator mode")
	fs.IntVar(&o.peerRetries, "peer-retries", 2,
		"retry budget for idempotent shard calls in coordinator mode")
	fs.DurationVar(&o.hedge, "hedge", 0,
		"duplicate a shard call still pending after this long (0 = off)")
	fs.IntVar(&o.replicas, "replicas", 1,
		"copies of each reference across the ring in coordinator mode; reads fail over between them")
	fs.DurationVar(&o.probeInterval, "probe-interval", 0,
		"background shard health-probe period in coordinator mode (0 = off unless -auto-eject)")
	fs.IntVar(&o.probeFailures, "probe-failures", cluster.DefaultProbeFailures,
		"consecutive probe failures before a shard is marked suspect")
	fs.BoolVar(&o.autoEject, "auto-eject", false,
		"drain suspect shards from the ring automatically and repair replication")
	err := fs.Parse(args)
	return o, err
}

// splitPeers parses the -peers flag into shard base URLs. Bare
// host:port entries get an http:// scheme so operators can paste the
// same addresses they handed to the shards' -addr flags.
func splitPeers(s string) []string {
	var peers []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p == "" {
			continue
		}
		if !strings.Contains(p, "://") {
			p = "http://" + p
		}
		peers = append(peers, p)
	}
	return peers
}

// unlimited maps a 0 flag value onto the Config convention where 0
// means "default" and negative means "disabled".
func unlimited[T int | int64 | time.Duration](v T) T {
	if v == 0 {
		return -1
	}
	return v
}

// buildHandler assembles either a local processing server or, under
// -coordinator, a cluster coordinator fronting the -peers ring.
func buildHandler(o options, log *slog.Logger) (http.Handler, func(), error) {
	if o.coordinator {
		peers := splitPeers(o.peers)
		if len(peers) == 0 {
			return nil, nil, fmt.Errorf("-coordinator requires -peers")
		}
		c, err := cluster.New(cluster.Config{
			Peers:          peers,
			PeerTimeout:    o.peerTimeout,
			Retries:        o.peerRetries,
			HedgeDelay:     o.hedge,
			MaxUploadBytes: o.maxUpload,
			Replicas:       o.replicas,
			ProbeInterval:  o.probeInterval,
			ProbeFailures:  o.probeFailures,
			AutoEject:      o.autoEject,
			Logger:         log,
		})
		if err != nil {
			return nil, nil, err
		}
		log.Info("coordinator mode", "peers", len(peers), "replicas", o.replicas,
			"hedge", o.hedge.String(), "auto_eject", o.autoEject)
		return c, c.Close, nil
	}
	h, err := localServer(o, log)
	if err != nil {
		return nil, nil, err
	}
	return h, h.Close, nil
}

func localServer(o options, log *slog.Logger) (*server.Server, error) {
	var faultPlan *fault.Plan
	if o.faultInject != "" {
		plan, err := fault.ParsePlan(o.faultInject)
		if err != nil {
			return nil, fmt.Errorf("-fault-inject: %w", err)
		}
		faultPlan = &plan
	}
	var diskPlan *fault.DiskPlan
	if o.diskFaultInject != "" {
		plan, err := fault.ParseDiskPlan(o.diskFaultInject)
		if err != nil {
			return nil, fmt.Errorf("-disk-fault-inject: %w", err)
		}
		diskPlan = &plan
	}
	walSync, err := wal.ParseSyncPolicy(o.walSync)
	if err != nil {
		return nil, fmt.Errorf("-wal-sync: %w", err)
	}
	return server.Open(server.Config{
		MaxUploadBytes: unlimited(o.maxUpload),
		MaxInFlight:    unlimited(o.maxInFlight),
		RequestTimeout: unlimited(o.requestTimeout),
		Logger:         log,
		RefCacheBytes:  o.refCache,
		RefTTL:         o.refTTL,
		JobWorkers:     o.jobWorkers,
		JobQueueDepth:  o.jobQueue,
		JobRetention:   o.jobRetention,
		ScanTimeout:    o.scanTimeout,
		FaultPlan:      faultPlan,

		DataDir:            o.dataDir,
		WALSync:            walSync,
		WALSyncEvery:       o.walSyncEvery,
		AuditBatch:         o.auditBatch,
		AuditFlushInterval: o.auditInterval,
		DiskFaultPlan:      diskPlan,
	})
}

// run serves until ctx is canceled, then drains gracefully. If ready
// is non-nil, the bound listener address is sent once serving.
func run(ctx context.Context, o options, log *slog.Logger, ready chan<- net.Addr) error {
	handler, closeHandler, err := buildHandler(o, log)
	if err != nil {
		return err
	}
	defer closeHandler()
	srv := &http.Server{
		Addr:              o.addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       o.readTimeout,
		WriteTimeout:      o.writeTimeout,
		IdleTimeout:       o.idleTimeout,
		ErrorLog:          slog.NewLogLogger(log.Handler(), slog.LevelWarn),
	}
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	log.Info("sysdiffd listening", "addr", ln.Addr().String())
	if ready != nil {
		ready <- ln.Addr()
	}

	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	log.Info("shutting down, draining in-flight requests", "drain_timeout", o.drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), o.drainTimeout)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		log.Warn("drain incomplete, closing", "err", err)
		_ = srv.Close()
		return err
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	log.Info("sysdiffd stopped cleanly")
	return nil
}

func main() {
	o, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err != nil {
		os.Exit(2)
	}
	var handler slog.Handler = slog.NewTextHandler(os.Stderr, nil)
	if o.logJSON {
		handler = slog.NewJSONHandler(os.Stderr, nil)
	}
	log := slog.New(handler)

	if o.fsck {
		if err := runFsck(store.OS(), o.dataDir, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, o, log, nil); err != nil {
		log.Error("sysdiffd failed", "err", err)
		os.Exit(1)
	}
}
