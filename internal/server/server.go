// Package server implements the HTTP face of the inspection system:
// the "on-line automatic inspection" service the paper's application
// (§1) runs as — boards stream in, compressed-domain differences and
// defect reports stream out. Served by cmd/sysdiffd.
//
// Endpoints:
//
//	GET  /healthz             → 200 "ok" (liveness: the process serves)
//	GET  /readyz              → readiness probes as JSON: worker-pool
//	                            liveness (no stuck workers), job-queue
//	                            saturation, reference-cache budget
//	                            pressure and load-shed state. 200 when
//	                            every probe passes, 503 with the same
//	                            per-probe breakdown when any fails.
//	GET  /metrics             → telemetry registry in Prometheus text
//	                            exposition format: request counts and
//	                            status classes, per-endpoint latency
//	                            histograms, bytes in/out, in-flight
//	                            gauge, per-engine iteration totals.
//	GET  /debug/vars          → the same registry as expvar-style JSON.
//	POST /v1/diff             → multipart form, files "a" and "b";
//	                            query: engine=<name> (a served
//	                            engine, see sysrle.NewServedEngine:
//	                            planner (default)|sequential|packed|
//	                            lockstep; any other name, the other
//	                            registry simulators included, is a
//	                            400; a lockstep row pair needing more
//	                            than sysrle.MaxServedCells cells is a
//	                            422),
//	                            format=pbm|pbm-plain|png|rlet|rleb.
//	                            Response body is the encoded difference image;
//	                            X-Sysrle-* headers carry engine statistics
//	                            (see "Engine statistics" below).
//	POST /v1/inspect          → multipart form, files "ref" and "scan";
//	                            query: engine=..., min-area=N, align=N
//	                            (max registration shift, 0..256).
//	                            Response is a JSON defect report.
//	POST /v1/align            → multipart form, files "ref" and "scan";
//	                            query: max-shift=N (1..64, default 4).
//	                            Response is a JSON {dx, dy, residual_area}.
//	POST /v1/docclean         → multipart form, file "image"; query:
//	                            max-speckle=N, min-line=N, close-x=N,
//	                            close-y=N, min-block=N, keep-lines=bool
//	                            (absent values default from the page
//	                            size), format=pbm|png|rlet|... With no
//	                            format the response is the JSON cleanup
//	                            report (speckles removed, H/V line
//	                            counts, block bounding boxes); with a
//	                            format it is the cleaned page encoded in
//	                            that format, the report folded into
//	                            X-Sysrle-* headers. Single pages only —
//	                            batches go through /v1/jobs.
//	POST   /v1/references     → multipart form, file "image". Registers
//	                            the image in the content-addressed
//	                            reference registry and returns 201 with
//	                            its metadata; the id is the hex SHA-256
//	                            of the canonical RLEB encoding, so
//	                            re-uploading identical content is
//	                            idempotent.
//	GET    /v1/references     → JSON list of registered references.
//	GET    /v1/references/{id}→ metadata for one reference (404 if not
//	                            registered or expired).
//	DELETE /v1/references/{id}→ unregister; 204, or 404.
//	POST   /v1/jobs           → multipart form: one or more files under
//	                            field "scan", plus either ?ref=<id>
//	                            (or form value "ref") naming a stored
//	                            reference, or a file "ref" uploaded
//	                            inline. Query: engine=..., min-area=N,
//	                            align=N as for /v1/inspect. With
//	                            ?type=docclean the scans instead run the
//	                            document-cleanup pipeline (no reference,
//	                            no engine; tuning query parameters as
//	                            for /v1/docclean). Returns 202
//	                            with the job snapshot; 429 with
//	                            Retry-After when the job queue cannot
//	                            take every scan (backpressure is
//	                            all-or-nothing, never a half-enqueued
//	                            job); 404 for an unknown reference.
//	GET    /v1/jobs           → JSON list of retained job snapshots.
//	GET    /v1/jobs/{id}      → job snapshot: state, per-scan progress
//	                            and results.
//	DELETE /v1/jobs/{id}      → cancel (if still running) and remove
//	                            the job record; 204, or 404.
//	GET    /v1/audit          → audit-log summary: the Merkle chain
//	                            head, pending verdict count and sealed
//	                            batch index. 404 unless the service is
//	                            durable (Config.DataDir).
//	GET    /v1/audit/{id}/proof → inclusion proof for one inspection
//	                            verdict (ScanResult.audit_id): the
//	                            verdict, its Merkle audit path, the
//	                            batch root and the chain link — enough
//	                            to verify offline against a pinned
//	                            chain head (auditctl verify-proof).
//
// # Engine statistics
//
// Every engine returns the same difference image; the engine only
// changes the cost, which /v1/diff reports in X-Sysrle-Iterations-
// Total/-Max-Row and X-Sysrle-Cells-Total/-Max-Row (and /v1/inspect
// and job results in their iteration fields). An iteration is the
// unit of work of the machine that ran the row. For engine=lockstep
// it is one systolic iteration, the quantity the paper's Figure 5 and
// Table 1 report, and cells is the array size. For the sequential
// merge it is one merge step. For the default planner it is a merge
// step on a row routed to the RLE merge and a 64-pixel word on a row
// routed to the packed XOR, and cells is 0: there is no array. Which
// route a row takes depends on the previous row's route
// (hysteresis), so the planner's counts are comparable only across
// requests that see the same rows in the same order. Ask for engine=lockstep to measure the
// paper's algorithm. The service runs the lockstep simulation on a
// fixed array of sysrle.MaxServedCells cells, as the paper's hardware
// has a fixed number: a row pair needing more fails with
// core.ErrTooWide (422 on /v1/diff and /v1/inspect, a failed scan in
// a job) before any cell is built. The other simulators (channel,
// sparse, bus, verified) are not served; benchtab and the oracle run
// them.
//
// # Durability
//
// With Config.DataDir set the service survives kill -9: references
// persist in a content-addressed blob store (re-hydrated at startup,
// so ref=<id> works across restarts with zero re-uploads),
// acknowledged batch jobs are write-ahead journaled (incomplete scans
// re-run at the next start; finished jobs come back pollable and
// never re-run) and every successful inspect verdict is sealed into
// the Merkle audit log. /readyz gains a "storage" probe that fails
// while any persistence component holds a sticky write error. Without
// DataDir everything above is in-memory and this paragraph does not
// apply.
//
// # Async API contract
//
// A job moves queued → running → done | failed | canceled, and never
// leaves a terminal state. Clients poll GET /v1/jobs/{id}: the
// snapshot carries scans_total/scans_done for progress and a
// per-scan results array (index, clean, defect count, diff pixels,
// iterations, or an error string) that fills in as scans complete;
// completion order across scans is unspecified. "failed" means at
// least one scan errored — the rest still ran and their results are
// present. DELETE cancels: scans not yet started are skipped, a scan
// already on a worker finishes and is recorded. Finished jobs stay
// pollable for the configured retention window, then are
// garbage-collected, after which GET returns 404; polling clients
// must treat 404 after a terminal snapshot as "already collected".
//
// The ref=<id> query parameter on /v1/diff, /v1/inspect and /v1/align
// substitutes a registered reference for the first upload ("a" and
// "ref" respectively), so the hot path skips both the upload and the
// decode: the registry caches decoded references in an LRU under a
// byte budget and hands the same decoded image to every request.
//
// Uploaded images may be PBM (P1/P4), PGM (P2/P5), PNG, RLET or RLEB;
// the format is sniffed. Uploads over the configured size limit get
// 413; when MaxInFlight requests are already being served, further
// ones get 429 with Retry-After (except /healthz, /readyz, /metrics
// and /debug/vars, which bypass the limiter and the per-request
// timeout so the service stays observable under saturation). Every
// response carries an X-Request-Id, also attached to the access log
// lines.
package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"mime/multipart"
	"net/http"
	"sync"
	"time"

	"sysrle"
	"sysrle/internal/apiclient"
	"sysrle/internal/auditlog"
	"sysrle/internal/core"
	"sysrle/internal/fault"
	"sysrle/internal/imageio"
	"sysrle/internal/inspect"
	"sysrle/internal/jobs"
	"sysrle/internal/refstore"
	"sysrle/internal/rle"
	"sysrle/internal/store"
	"sysrle/internal/telemetry"
	"sysrle/internal/wal"
)

// MaxUploadBytes is the default bound on one multipart upload.
const MaxUploadBytes = 64 << 20

// multipartMemory is ParseMultipartForm's in-memory threshold: parts
// beyond it spill to temp files, so concurrent large uploads cost disk,
// not RAM. (Passing the full upload limit here — the old behavior —
// buffered every upload entirely in memory.)
const multipartMemory = 8 << 20

// Config tunes the service; the zero value gets production defaults.
type Config struct {
	// MaxUploadBytes bounds one request body; 0 means MaxUploadBytes
	// (64 MiB), negative disables the limit.
	MaxUploadBytes int64
	// MaxInFlight bounds concurrently served requests; beyond it
	// requests are shed with 429. 0 means DefaultMaxInFlight;
	// negative disables the limiter.
	MaxInFlight int
	// RequestTimeout bounds one request end to end (503 on expiry).
	// 0 means DefaultRequestTimeout; negative disables the timeout.
	RequestTimeout time.Duration
	// Logger receives structured access and error logs; nil discards.
	Logger *slog.Logger
	// Registry receives service telemetry; nil creates a private one.
	Registry *telemetry.Registry

	// RefCacheBytes bounds the decoded-reference LRU; 0 means
	// refstore.DefaultCacheBytes, negative disables decoded caching.
	RefCacheBytes int64
	// RefTTL evicts references idle for this long; 0 keeps forever.
	RefTTL time.Duration
	// JobWorkers sizes the batch-inspection pool; 0 means
	// jobs.DefaultWorkers.
	JobWorkers int
	// JobQueueDepth bounds queued scans across all jobs (429 beyond
	// it); 0 means jobs.DefaultQueueDepth.
	JobQueueDepth int
	// JobRetention keeps finished jobs pollable; 0 means
	// jobs.DefaultRetention, negative retains forever.
	JobRetention time.Duration

	// ScanTimeout bounds one batch-scan attempt; 0 disables.
	ScanTimeout time.Duration
	// ScanRetries retries failed batch scans this many times with
	// capped exponential backoff before quarantining them; 0 disables.
	ScanRetries int
	// StuckAfter is how long one scan may hold a jobs worker before
	// the /readyz worker probe reports it stuck; 0 means
	// jobs.DefaultStuckAfter.
	StuckAfter time.Duration
	// FaultPlan, when non-nil, enables chaos mode: every batch-scan
	// engine is wrapped with seeded fault injection per the plan plus
	// the detect-and-recover verified engine, so injected faults are
	// caught, counted (sysrle_fault_injected_total,
	// sysrle_fault_recovered_total) and recomputed on the sequential
	// baseline. Dev/test only — it roughly doubles scan cost.
	FaultPlan *fault.Plan

	// DataDir, when non-empty, makes the service durable: references
	// persist in a content-addressed blob store under DataDir/refs,
	// the job lifecycle is write-ahead journaled under DataDir/wal
	// (acknowledged submissions survive kill -9 and resume at the next
	// start), and inspection verdicts land in the Merkle audit log
	// under DataDir/audit. Empty (the default) keeps everything
	// in-memory, zero-config.
	DataDir string
	// FS substitutes the filesystem persistence runs on (crash and
	// chaos tests); nil means the real disk. Ignored without DataDir.
	FS store.FS
	// WALSync is the journal fsync policy (always/batch/none); the
	// zero value is wal.SyncAlways. WALSyncEvery is the batch-policy
	// cadence in appends.
	WALSync      wal.SyncPolicy
	WALSyncEvery int
	// AuditBatch is the audit-log Merkle batch size and
	// AuditFlushInterval the timer that seals a partial batch; zero
	// values get auditlog defaults, a negative interval disables the
	// timer.
	AuditBatch         int
	AuditFlushInterval time.Duration
	// DiskFaultPlan, when non-nil, wraps the persistence filesystem
	// with seeded disk-fault injection (torn writes, ENOSPC, bit rot,
	// fsync failures, latency) per the plan. Dev/test only.
	DiskFaultPlan *fault.DiskPlan
}

// Default limits for Config zero values.
const (
	DefaultMaxInFlight    = 64
	DefaultRequestTimeout = 30 * time.Second
)

// Server is the configured service. It serves HTTP (the full
// middleware stack is assembled at construction) and owns the
// reference registry and the batch-job worker pool; Close releases
// the pool's goroutines.
type Server struct {
	cfg     Config
	log     *slog.Logger
	reg     *telemetry.Registry
	refs    *refstore.Store
	jobs    *jobs.Manager
	handler http.Handler

	// Durable tier (nil without Config.DataDir).
	refBlobs *store.Store
	jobBlobs *store.Store
	journal  *wal.WAL
	audit    *auditlog.Log

	probeMu   sync.Mutex
	probes    []probe
	inFlight  *telemetry.Gauge
	notReadyC *telemetry.Counter
}

// ServeHTTP dispatches through the middleware stack.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.handler.ServeHTTP(w, r)
}

// Close stops the batch-job worker pool (in-flight and queued scans
// finish; new submissions get 503) and then, when the service is
// durable, seals the persistence tier: the audit log flushes its
// pending batch and the journal syncs and closes — in that order, so
// every verdict recorded by a finishing scan is on disk before the
// journal that references it stops accepting records.
func (s *Server) Close() {
	s.jobs.Close()
	if s.audit != nil {
		if err := s.audit.Close(); err != nil {
			s.log.Warn("audit log close", "err", err)
		}
	}
	if s.journal != nil {
		if err := s.journal.Close(); err != nil {
			s.log.Warn("journal close", "err", err)
		}
	}
}

// Refs exposes the reference registry (tests, preloading a golden
// reference at startup).
func (s *Server) Refs() *refstore.Store { return s.refs }

// New returns the service handler with default configuration (and
// logging discarded — pass a Config with a Logger for production).
func New() *Server { return NewWith(Config{}) }

// NewWith returns the service handler for the given configuration.
// It panics when Open would fail, which only a Config with DataDir
// set can cause — durable deployments should call Open and handle the
// error.
func NewWith(cfg Config) *Server {
	s, err := Open(cfg)
	if err != nil {
		panic(fmt.Sprintf("server.NewWith: %v", err))
	}
	return s
}

// Open returns the service handler for the given configuration,
// opening the durable tier (blob stores, journal, audit log) and
// replaying interrupted jobs when Config.DataDir is set. The only
// error paths are storage ones, so a memory-only Config never fails.
func Open(cfg Config) (*Server, error) {
	if cfg.MaxUploadBytes == 0 {
		cfg.MaxUploadBytes = MaxUploadBytes
	}
	if cfg.MaxInFlight == 0 {
		cfg.MaxInFlight = DefaultMaxInFlight
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = DefaultRequestTimeout
	}
	s := &Server{cfg: cfg, log: cfg.Logger, reg: cfg.Registry}
	if s.log == nil {
		s.log = discardLogger()
	}
	if s.reg == nil {
		s.reg = telemetry.NewRegistry()
	}
	s.inFlight = s.reg.Gauge("sysrle_http_in_flight")
	s.notReadyC = s.reg.Counter("sysrle_http_not_ready_total")
	if err := s.openStorage(); err != nil {
		return nil, err
	}
	s.refs = refstore.New(refstore.Config{
		CacheBytes: cfg.RefCacheBytes,
		TTL:        cfg.RefTTL,
		Registry:   s.reg,
		Disk:       s.refBlobs,
	})
	var err error
	s.jobs, err = jobs.Open(jobs.Config{
		Workers:     cfg.JobWorkers,
		QueueDepth:  cfg.JobQueueDepth,
		Retention:   cfg.JobRetention,
		Store:       s.refs,
		Registry:    s.reg,
		ScanTimeout: cfg.ScanTimeout,
		ScanRetries: cfg.ScanRetries,
		StuckAfter:  cfg.StuckAfter,
		WrapEngine:  s.engineWrapper(),
		Journal:     s.journal,
		Blobs:       s.jobBlobs,
		Audit:       s.audit,
	})
	if err != nil {
		return nil, fmt.Errorf("server: job recovery: %w", err)
	}
	s.registerBuiltinProbes()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = s.reg.WritePrometheus(w)
	})
	mux.HandleFunc("GET /debug/vars", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = s.reg.WriteJSON(w)
	})
	mux.HandleFunc("POST /v1/diff", s.handleDiff)
	mux.HandleFunc("POST /v1/inspect", s.handleInspect)
	mux.HandleFunc("POST /v1/align", s.handleAlign)
	mux.HandleFunc("POST /v1/docclean", s.handleDocClean)
	mux.HandleFunc("POST /v1/references", s.handleRefPut)
	mux.HandleFunc("GET /v1/references", s.handleRefList)
	mux.HandleFunc("GET /v1/references/{id}", s.handleRefGet)
	mux.HandleFunc("GET /v1/references/{id}/content", s.handleRefContent)
	mux.HandleFunc("DELETE /v1/references/{id}", s.handleRefDelete)
	mux.HandleFunc("POST /v1/jobs", s.handleJobSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleJobList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobDelete)
	mux.HandleFunc("GET /v1/audit", s.handleAuditBatches)
	mux.HandleFunc("GET /v1/audit/{id}/proof", s.handleAuditProof)
	s.handler = s.wrap(apiclient.EnvelopeUnrouted(mux))
	return s, nil
}

// engineWrapper builds the jobs engine hook for chaos mode: inject
// faults per the configured plan, then detect and recover through the
// verified engine, so the service converges to correct results while
// telemetry shows every injected and recovered fault. Returns nil
// (no wrapping) when no fault plan is configured.
func (s *Server) engineWrapper() func(core.Engine) core.Engine {
	if s.cfg.FaultPlan == nil {
		return nil
	}
	injector := fault.NewInjector(*s.cfg.FaultPlan, s.reg)
	s.reg.Help("sysrle_fault_recovered_total", "Faults detected by the verified engine and recovered by recompute.")
	recovered := s.reg.Counter("sysrle_fault_recovered_total")
	s.log.Warn("fault injection enabled (chaos mode)", "plan", s.cfg.FaultPlan.String())
	return func(eng core.Engine) core.Engine {
		v := core.NewVerified(fault.Wrap(eng, injector))
		v.OnFault = func(error) { recovered.Inc() }
		return v
	}
}

// recordEngine feeds one engine run's facade stats into telemetry.
func (s *Server) recordEngine(engine string, totalIterations, rowsDiffering int) {
	s.reg.Help("sysrle_engine_iterations_total", "Engine iterations executed, by engine: systolic iterations, merge steps or packed words (see the package doc).")
	eng := telemetry.L("engine", engine)
	s.reg.Counter("sysrle_engine_iterations_total", eng).Add(int64(totalIterations))
	s.reg.Counter("sysrle_engine_rows_differing_total", eng).Add(int64(rowsDiffering))
	s.reg.Counter("sysrle_engine_runs_total", eng).Inc()
}

func formImage(r *http.Request, field string) (*rle.Image, error) {
	file, _, err := r.FormFile(field)
	if err != nil {
		return nil, fmt.Errorf("missing upload %q: %v", field, err)
	}
	defer file.Close()
	img, err := imageio.Read(file)
	if err != nil {
		return nil, fmt.Errorf("upload %q: %v", field, err)
	}
	return img, nil
}

// parseForm applies the upload limit and parses the multipart body,
// writing the error response itself on failure. Handlers read every
// image they need before returning; the deferred cleanup then drops
// any temp files the parts spilled to.
func (s *Server) parseForm(w http.ResponseWriter, r *http.Request) bool {
	if s.cfg.MaxUploadBytes > 0 {
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes)
	}
	if err := r.ParseMultipartForm(multipartMemory); err != nil {
		code := http.StatusBadRequest
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			code = http.StatusRequestEntityTooLarge
		}
		s.httpError(w, r, code, fmt.Errorf("parsing multipart form: %v", err))
		return false
	}
	return true
}

func cleanupForm(f *multipart.Form) {
	if f != nil {
		_ = f.RemoveAll()
	}
}

// storedRef resolves the ref=<id> query parameter through the
// registry, writing 404 on an unknown or expired id.
func (s *Server) storedRef(w http.ResponseWriter, r *http.Request, id string) (*rle.Image, bool) {
	img, err := s.refs.Get(id)
	if err != nil {
		code := http.StatusInternalServerError
		if errors.Is(err, refstore.ErrNotFound) {
			code = http.StatusNotFound
		}
		s.httpError(w, r, code, fmt.Errorf("reference %q: %w", id, err))
		return nil, false
	}
	return img, true
}

// parseUploads resolves the two images of a compare-shaped request.
// With ref=<id> in the query the first image comes from the registry
// (no upload, no decode on a cache hit) and only fieldB is read from
// the form.
func (s *Server) parseUploads(w http.ResponseWriter, r *http.Request, fieldA, fieldB string) (*rle.Image, *rle.Image, bool) {
	if !s.parseForm(w, r) {
		return nil, nil, false
	}
	defer cleanupForm(r.MultipartForm)
	var a *rle.Image
	if id := r.URL.Query().Get("ref"); id != "" {
		var ok bool
		if a, ok = s.storedRef(w, r, id); !ok {
			return nil, nil, false
		}
	} else {
		var err error
		if a, err = formImage(r, fieldA); err != nil {
			s.httpError(w, r, http.StatusBadRequest, err)
			return nil, nil, false
		}
	}
	b, err := formImage(r, fieldB)
	if err != nil {
		s.httpError(w, r, http.StatusBadRequest, err)
		return nil, nil, false
	}
	return a, b, true
}

// diffSource reads upload field as a /v1/diff operand. An RLEB part
// is decoded one row at a time as the diff consumes it; any other
// format decodes to a whole image.
func diffSource(r *http.Request, field string) (sysrle.RowSource, error) {
	file, fh, err := r.FormFile(field)
	if err != nil {
		return nil, fmt.Errorf("missing upload %q: %v", field, err)
	}
	defer file.Close()
	data := make([]byte, fh.Size)
	var src sysrle.RowSource
	if _, err = io.ReadFull(file, data); err == nil && bytes.HasPrefix(data, []byte("RLEB")) {
		src, err = rle.NewRowDecoder(data)
	} else if err == nil {
		src, err = imageio.Read(bytes.NewReader(data))
	}
	if err != nil {
		return nil, fmt.Errorf("upload %q: %v", field, err)
	}
	return src, nil
}

// handleDiff streams: RLEB uploads are decoded row by row as the
// engine consumes them, and a format=rleb answer is encoded row by row
// as the engine produces it, so neither the upload nor the difference
// is built as an image.
func (s *Server) handleDiff(w http.ResponseWriter, r *http.Request) {
	engine, err := sysrle.NewServedEngine(r.URL.Query().Get("engine"), s.reg)
	if err != nil {
		s.httpError(w, r, http.StatusBadRequest, err)
		return
	}
	format := r.URL.Query().Get("format")
	if format == "" {
		format = "pbm"
	}
	if !imageio.IsFormat(format) {
		s.httpError(w, r, http.StatusBadRequest, fmt.Errorf("unknown format %q (have %v)", format, imageio.Formats()))
		return
	}
	if !s.parseForm(w, r) {
		return
	}
	defer cleanupForm(r.MultipartForm)
	var a, b sysrle.RowSource
	if id := r.URL.Query().Get("ref"); id != "" {
		ref, ok := s.storedRef(w, r, id)
		if !ok {
			return
		}
		a = ref
	} else if a, err = diffSource(r, "a"); err != nil {
		s.httpError(w, r, http.StatusBadRequest, err)
		return
	}
	if b, err = diffSource(r, "b"); err != nil {
		s.httpError(w, r, http.StatusBadRequest, err)
		return
	}
	width, height := a.Size()
	var diff *rle.Image
	body, pixels := rle.AppendBinaryHeader(nil, width, height), 0
	sink := func(int) func(int, rle.Row) {
		return func(_ int, row rle.Row) {
			body = rle.AppendBinaryRow(body, row)
			pixels += row.Area()
		}
	}
	if format != "rleb" {
		diff = rle.NewImage(width, height)
		sink = core.PersistRows(diff)
	}
	// One worker: a RowDecoder serves its rows in order, and the rleb
	// answer is appended in order. Requests are the parallelism.
	stats, err := sysrle.DiffRows(a, b, sink,
		sysrle.WithEngine(engine), sysrle.WithContext(r.Context()), sysrle.WithWorkers(1))
	if err != nil {
		// A malformed upload is the client's error however far the
		// diff got, so each streamed upload is decoded to its end
		// before a size mismatch or an engine failure is reported.
		for i, src := range []sysrle.RowSource{a, b} {
			if dec, ok := src.(*rle.RowDecoder); ok && dec.Finish() != nil {
				s.httpError(w, r, http.StatusBadRequest, fmt.Errorf("upload %q: %v", "ab"[i:i+1], dec.Finish()))
				return
			}
		}
		s.httpError(w, r, http.StatusUnprocessableEntity, err)
		return
	}
	s.recordEngine(engine.Name(), stats.TotalIterations, stats.RowsDiffering)
	if diff != nil {
		pixels = diff.Area()
	}
	apiclient.SetDiffHeaders(w.Header(), format, *stats, engine.Name(), pixels)
	if diff == nil {
		_, _ = w.Write(body)
		return
	}
	// With a valid format a write error can only be a broken
	// connection; nothing useful remains to send.
	_ = imageio.Write(w, format, diff)
}

func (s *Server) handleInspect(w http.ResponseWriter, r *http.Request) {
	engine, err := sysrle.NewServedEngine(r.URL.Query().Get("engine"), s.reg)
	if err != nil {
		s.httpError(w, r, http.StatusBadRequest, err)
		return
	}
	minArea, maxAlign, err := inspectQuery(r)
	if err != nil {
		s.httpError(w, r, http.StatusBadRequest, err)
		return
	}
	ref, scan, ok := s.parseUploads(w, r, "ref", "scan")
	if !ok {
		return
	}
	ins := &inspect.Inspector{Engine: engine, MinDefectArea: minArea, MaxAlignShift: maxAlign}
	rep, err := ins.CompareContext(r.Context(), ref, scan)
	if err != nil {
		s.httpError(w, r, http.StatusUnprocessableEntity, err)
		return
	}
	s.recordEngine(engine.Name(), rep.TotalIterations, rep.RowsDiffering)
	resp := apiclient.InspectReport{
		Engine:           engine.Name(),
		RowsCompared:     rep.RowsCompared,
		RowsDiffering:    rep.RowsDiffering,
		DiffPixels:       rep.DiffArea,
		DiffRuns:         rep.DiffRuns,
		TotalIterations:  rep.TotalIterations,
		MaxRowIterations: rep.MaxRowIterations,
		Clean:            rep.Clean(),
		AlignDX:          rep.AlignDX,
		AlignDY:          rep.AlignDY,
		Defects:          rep.Defects,
	}
	if resp.Defects == nil {
		resp.Defects = []inspect.Defect{}
	}
	apiclient.WriteJSON(w, http.StatusOK, resp)
}

func (s *Server) handleAlign(w http.ResponseWriter, r *http.Request) {
	maxShift, err := intQuery(r, "max-shift", 1, 64)
	if err != nil {
		s.httpError(w, r, http.StatusBadRequest, err)
		return
	}
	if maxShift == 0 {
		maxShift = 4
	}
	ref, scan, ok := s.parseUploads(w, r, "ref", "scan")
	if !ok {
		return
	}
	if ref.Width != scan.Width || ref.Height != scan.Height {
		s.httpError(w, r, http.StatusUnprocessableEntity,
			fmt.Errorf("size mismatch %dx%d vs %dx%d", ref.Width, ref.Height, scan.Width, scan.Height))
		return
	}
	dx, dy, area := inspect.Align(ref, scan, maxShift)
	apiclient.WriteJSON(w, http.StatusOK, apiclient.AlignResult{DX: dx, DY: dy, ResidualArea: area})
}

// httpError answers with the v1 error envelope (apiclient.WriteError)
// — the single helper every handler's error path goes through.
// 500-class details never reach the client: storage and registry
// errors can carry file paths and addresses, so the wire message is
// generic and the real error goes to the log under the same request
// id.
func (s *Server) httpError(w http.ResponseWriter, r *http.Request, status int, err error) {
	msg := err.Error()
	if status == http.StatusInternalServerError {
		s.log.Error("internal error", "status", status, "err", err, "request_id", apiclient.RequestID(r))
		msg = "internal error"
	}
	apiclient.WriteError(w, status, msg, apiclient.RequestID(r))
}
