// Package jobs is the async batch-inspection subsystem: the paper's
// §1 workload — one golden reference diffed against a stream of
// scans — submitted as a single job that returns immediately with an
// id, executed by a fixed worker pool, and polled to completion.
//
// A job is N scans against one reference (either a refstore id, so
// the decoded reference is fetched once through the registry's cache
// and shared by every scan, or an inline image). Each worker owns its
// engine — by default the hybrid planner, which keeps buffers and
// routing state from row to row; scans are the unit of parallelism,
// so a job's scans spread across the whole pool. The
// task queue is bounded: a Submit that doesn't fit fails with
// ErrQueueFull and the HTTP layer turns that into 429 backpressure.
//
// Lifecycle: queued → running → done | failed | canceled. Progress
// is per scan; Cancel stops unstarted scans (in-flight scans finish).
// Finished jobs are garbage-collected a retention window after they
// finish, by a janitor goroutine; Close stops the pool.
//
// # Fault tolerance
//
// Every scan runs under recover, so a panicking engine fails the scan
// — never the worker; the pool size is an invariant (Health reports
// it). Each scan attempt is bounded by Config.ScanTimeout, retried up
// to Config.ScanRetries times with capped exponential backoff and
// deterministic jitter, and quarantined (marked in the ScanResult,
// counted in telemetry) when every attempt fails. A heartbeat
// registry (Health) tracks per-worker liveness and flags workers
// stuck on one scan longer than Config.StuckAfter. Retries in
// progress are abandoned during Close and recorded as failures.
//
// Telemetry (when a registry is configured):
//
//	sysrle_jobs_submitted_total / completed_total{state=...}
//	sysrle_jobs_scans_total             scans processed
//	sysrle_jobs_scan_panics_total       scan attempts that panicked
//	sysrle_jobs_scan_retries_total      retry attempts started
//	sysrle_jobs_scans_quarantined_total scans that exhausted retries
//	sysrle_jobs_queue_depth             tasks waiting (gauge)
//	sysrle_jobs_active                  jobs not yet terminal (gauge)
//	sysrle_jobs_workers                 configured pool size (gauge)
//	sysrle_jobs_workers_busy            workers inside a scan (gauge)
//	sysrle_jobs_workers_stuck           stuck workers, set by Health (gauge)
package jobs

import (
	"context"
	crand "crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"sysrle"
	"sysrle/internal/auditlog"
	"sysrle/internal/clock"
	"sysrle/internal/core"
	"sysrle/internal/docclean"
	"sysrle/internal/inspect"
	"sysrle/internal/refstore"
	"sysrle/internal/rle"
	"sysrle/internal/store"
	"sysrle/internal/telemetry"
	"sysrle/internal/wal"
)

// Errors returned by Submit and the accessors.
var (
	ErrQueueFull = errors.New("jobs: queue full")
	ErrNotFound  = errors.New("jobs: job not found")
	ErrNoScans   = errors.New("jobs: no scans submitted")
	ErrClosed    = errors.New("jobs: manager closed")
)

// Defaults for Config zero values.
const (
	DefaultWorkers      = 4
	DefaultQueueDepth   = 256
	DefaultRetention    = 15 * time.Minute
	DefaultRetryBackoff = 50 * time.Millisecond
)

// State is a job lifecycle state.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Config tunes a Manager; the zero value gets production defaults.
type Config struct {
	// Workers is the pool size. 0 means DefaultWorkers.
	Workers int
	// QueueDepth bounds queued scan tasks across all jobs; a Submit
	// that doesn't fit fails with ErrQueueFull. 0 means
	// DefaultQueueDepth.
	QueueDepth int
	// Retention keeps finished jobs pollable for this long before
	// the janitor collects them. 0 means DefaultRetention; negative
	// retains forever (tests).
	Retention time.Duration
	// Store resolves Spec.RefID references; nil restricts jobs to
	// inline references.
	Store *refstore.Store
	// Registry receives telemetry; nil records nothing.
	Registry *telemetry.Registry

	// ScanTimeout bounds one scan attempt end to end; the deadline is
	// observed between rows (a row already inside the engine
	// finishes). 0 disables the deadline.
	ScanTimeout time.Duration
	// ScanRetries is how many extra attempts a failed scan gets before
	// being quarantined. 0 disables retries (a failure is final).
	ScanRetries int
	// RetryBackoff is the delay before the first retry; it doubles per
	// attempt (capped at 32×) with up to 50% seeded jitter. 0 means
	// DefaultRetryBackoff.
	RetryBackoff time.Duration
	// StuckAfter is how long one scan may hold a worker before Health
	// reports the worker stuck. 0 means DefaultStuckAfter.
	StuckAfter time.Duration
	// WrapEngine, when non-nil, wraps every engine a worker constructs
	// — the hook fault injection (chaos mode) and verification use.
	// Applied per worker, so stateful engines stay single-threaded.
	// Returning nil keeps the unwrapped engine.
	WrapEngine func(core.Engine) core.Engine

	// Clock drives job timestamps, retention GC and retry bookkeeping;
	// nil means clock.System().
	Clock clock.Clock
	// Journal, when non-nil, write-ahead-journals the job lifecycle:
	// admissions, scan outcomes, completions, cancellations and
	// deletions are appended (and synced per the journal's policy)
	// before the caller sees success, and Open replays them after a
	// crash — incomplete scans re-queue, finished jobs come back as
	// pollable records and never re-run.
	Journal *wal.WAL
	// Blobs, when non-nil alongside Journal, archives scan and inline
	// reference images as content-addressed blobs at admission so
	// recovery can re-run incomplete scans. Without it, recovered
	// pending scans are failed with an explanatory error instead of
	// re-run.
	Blobs *store.Store
	// Audit, when non-nil, records every successful inspect verdict in
	// the Merkle audit log; the assigned id lands in
	// ScanResult.AuditID.
	Audit *auditlog.Log

	// now is the resolved clock function (from Clock).
	now func() time.Time
}

// Job types. The zero value means inspect — the original
// reference-vs-scan defect workload.
const (
	TypeInspect  = "inspect"
	TypeDocClean = "docclean"
)

// Spec describes one batch job: N scans against one reference
// (inspect), or N pages through the document-cleanup pipeline
// (docclean).
type Spec struct {
	// Type selects the workload: "" or "inspect" diffs scans against
	// a reference; "docclean" runs each scan through the
	// despeckle/line-extraction/segmentation pipeline (no reference,
	// no engine).
	Type string
	// RefID names a registered reference; Ref supplies one inline.
	// Exactly one must be set for inspect jobs; neither for docclean.
	RefID string
	Ref   *rle.Image
	// Scans are compared against the reference in index order of
	// submission (completion order is unspecified).
	Scans []*rle.Image
	// Engine selects the row-difference engine by served name
	// (sysrle.NewServedEngine); "" means sysrle.DefaultEngine, the
	// hybrid planner. Inspect jobs only.
	Engine string
	// MinDefectArea and MaxAlignShift forward to inspect.Inspector.
	MinDefectArea int
	MaxAlignShift int
	// Doc tunes the docclean pipeline; zero fields get page-derived
	// defaults. Docclean jobs only.
	Doc docclean.Config
}

// ScanResult is the outcome of one scan.
type ScanResult struct {
	Index      int    `json:"index"`
	Clean      bool   `json:"clean"`
	Defects    int    `json:"defects"`
	DiffPixels int    `json:"diff_pixels"`
	DiffRuns   int    `json:"diff_runs"`
	Iterations int    `json:"iterations"`
	Error      string `json:"error,omitempty"`
	// Attempts is how many times the scan ran (1 = no retry needed).
	Attempts int `json:"attempts,omitempty"`
	// Quarantined marks a poison scan: every configured attempt
	// failed, so it was given up on rather than retried forever.
	Quarantined bool `json:"quarantined,omitempty"`
	// AuditID is the verdict's id in the Merkle audit log (inspect
	// scans under a manager configured with one); GET
	// /v1/audit/{id}/proof returns its inclusion proof.
	AuditID string `json:"audit_id,omitempty"`

	// Docclean fields (Type == TypeDocClean only).
	SpecklesRemoved int `json:"speckles_removed,omitempty"`
	LinesH          int `json:"lines_h,omitempty"`
	LinesV          int `json:"lines_v,omitempty"`
	Blocks          int `json:"blocks,omitempty"`
	OutputArea      int `json:"output_area,omitempty"`
}

// Status is a point-in-time snapshot of a job.
type Status struct {
	ID         string       `json:"id"`
	State      State        `json:"state"`
	Type       string       `json:"type"`
	RefID      string       `json:"ref_id,omitempty"`
	Engine     string       `json:"engine,omitempty"`
	ScansTotal int          `json:"scans_total"`
	ScansDone  int          `json:"scans_done"`
	Created    time.Time    `json:"created"`
	Started    *time.Time   `json:"started,omitempty"`
	Finished   *time.Time   `json:"finished,omitempty"`
	Error      string       `json:"error,omitempty"`
	Results    []ScanResult `json:"results,omitempty"`
}

// job is the internal mutable record.
type job struct {
	mu       sync.Mutex
	id       string
	spec     Spec
	ref      *rle.Image
	total    int // scans in the job; survives spec.Scans being absent after recovery
	persist  *persistedSpec
	state    State
	created  time.Time
	started  time.Time
	finished time.Time
	done     int
	failed   int
	results  []ScanResult
	canceled bool
}

// task is one unit of work: one scan of one job.
type task struct {
	job  *job
	scan int
}

// Manager owns the worker pool, the bounded queue and the job table.
type Manager struct {
	cfg Config

	mu     sync.Mutex // guards jobs map, closed, and queue admission
	jobs   map[string]*job
	seq    uint64
	closed bool
	// idSuffix makes ids unique across Managers (the shards of a
	// cluster all count from 1): ids are job-<seq>-<idSuffix>.
	idSuffix string

	tasks chan task
	wg    sync.WaitGroup
	stop  chan struct{}

	health *poolHealth

	rngMu sync.Mutex // guards rng (backoff jitter)
	rng   *rand.Rand

	submitted, scans    *telemetry.Counter
	panicsC, retriedC   *telemetry.Counter
	quarantinedC        *telemetry.Counter
	completedBy         func(State) *telemetry.Counter
	queueDepth, activeG *telemetry.Gauge
	workersBusyG        *telemetry.Gauge
	workersStuckG       *telemetry.Gauge
}

// New starts the worker pool and janitor. It panics on a journal
// infrastructure failure; persistent deployments should prefer Open,
// which returns it.
func New(cfg Config) *Manager {
	m, err := Open(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Open starts the worker pool and janitor, first replaying the
// journal when one is configured: finished jobs are restored as
// pollable records (never re-run), incomplete scans re-queue ahead of
// new work, audit verdicts are re-appended (content ids make that
// idempotent), and the journal is checkpointed down to the recovered
// state. The only errors are infrastructure failures — corrupt or
// torn journal tails are recovery, handled by the durable-prefix
// replay, not errors.
func Open(cfg Config) (*Manager, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = DefaultWorkers
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.Retention == 0 {
		cfg.Retention = DefaultRetention
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = DefaultRetryBackoff
	}
	if cfg.StuckAfter <= 0 {
		cfg.StuckAfter = DefaultStuckAfter
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.System()
	}
	cfg.now = cfg.Clock.Now
	recovered, pending, maxSeq, err := recoverJournal(cfg)
	if err != nil {
		return nil, err
	}
	m := &Manager{
		cfg:  cfg,
		jobs: make(map[string]*job),
		// Recovered backlog rides on top of the configured depth so a
		// full pre-crash queue re-admits without ErrQueueFull.
		tasks: make(chan task, cfg.QueueDepth+len(pending)),
		stop:  make(chan struct{}),
		rng:   rand.New(rand.NewSource(1)), // jitter only; determinism aids replay
	}
	var suffix [4]byte
	if _, err := crand.Read(suffix[:]); err != nil {
		return nil, fmt.Errorf("jobs: drawing the id suffix: %w", err)
	}
	m.idSuffix = hex.EncodeToString(suffix[:])
	m.seq = maxSeq
	for _, j := range recovered {
		m.jobs[j.id] = j
	}
	for _, t := range pending {
		m.tasks <- t
	}
	m.health = newPoolHealth(cfg.Workers, cfg.StuckAfter, cfg.now)
	if reg := cfg.Registry; reg != nil {
		reg.Help("sysrle_jobs_submitted_total", "Batch jobs accepted.")
		reg.Help("sysrle_jobs_queue_depth", "Scan tasks waiting in the job queue.")
		reg.Help("sysrle_jobs_scan_panics_total", "Scan attempts that panicked (recovered, worker kept).")
		reg.Help("sysrle_jobs_scans_quarantined_total", "Scans that failed every configured attempt.")
		m.submitted = reg.Counter("sysrle_jobs_submitted_total")
		m.scans = reg.Counter("sysrle_jobs_scans_total")
		m.panicsC = reg.Counter("sysrle_jobs_scan_panics_total")
		m.retriedC = reg.Counter("sysrle_jobs_scan_retries_total")
		m.quarantinedC = reg.Counter("sysrle_jobs_scans_quarantined_total")
		m.completedBy = func(s State) *telemetry.Counter {
			return reg.Counter("sysrle_jobs_completed_total", telemetry.L("state", string(s)))
		}
		m.queueDepth = reg.Gauge("sysrle_jobs_queue_depth")
		m.activeG = reg.Gauge("sysrle_jobs_active")
		m.workersBusyG = reg.Gauge("sysrle_jobs_workers_busy")
		m.workersStuckG = reg.Gauge("sysrle_jobs_workers_stuck")
		reg.Gauge("sysrle_jobs_workers").Set(int64(cfg.Workers))
	}
	if m.queueDepth != nil {
		m.queueDepth.Set(int64(len(m.tasks)))
	}
	if m.activeG != nil {
		for _, j := range recovered {
			if !j.state.Terminal() {
				m.activeG.Inc()
			}
		}
	}
	// Compact the journal down to exactly the recovered state before
	// any new appends, so the next boot replays the snapshot instead
	// of the full history.
	if cfg.Journal != nil {
		if err := cfg.Journal.Checkpoint(m.snapshotRecords()); err != nil {
			return nil, fmt.Errorf("jobs: checkpoint after recovery: %w", err)
		}
	}
	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker(i)
	}
	m.wg.Add(1)
	go m.janitor()
	return m, nil
}

// Close stops the janitor, closes the queue and waits for the
// workers to drain it. Queued scans still run to completion; only
// new submissions are refused (ErrClosed).
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	close(m.tasks)
	m.mu.Unlock()
	close(m.stop)
	m.wg.Wait()
}

// Submit validates the spec, resolves the reference, and enqueues one
// task per scan. It returns the job id immediately; admission is
// all-or-nothing — if the queue cannot take every scan the job is
// rejected with ErrQueueFull so callers get clean backpressure
// instead of a half-enqueued job.
func (m *Manager) Submit(spec Spec) (string, error) {
	if len(spec.Scans) == 0 {
		return "", ErrNoScans
	}
	switch spec.Type {
	case "", TypeInspect:
		if _, err := sysrle.NewServedEngine(spec.Engine, nil); err != nil {
			return "", fmt.Errorf("jobs: %w", err)
		}
		if (spec.RefID == "") == (spec.Ref == nil) {
			return "", errors.New("jobs: exactly one of RefID and Ref must be set")
		}
	case TypeDocClean:
		if spec.RefID != "" || spec.Ref != nil {
			return "", errors.New("jobs: docclean jobs take no reference")
		}
		if spec.Engine != "" {
			return "", errors.New("jobs: docclean jobs take no engine")
		}
		if err := spec.Doc.Validate(); err != nil {
			return "", err
		}
	default:
		return "", fmt.Errorf("jobs: unknown job type %q", spec.Type)
	}
	ref := spec.Ref
	if spec.RefID != "" {
		if m.cfg.Store == nil {
			return "", errors.New("jobs: no reference store configured")
		}
		var err error
		// One decode (at most) for the whole batch: the store's LRU
		// means a hot reference costs a map lookup here.
		ref, err = m.cfg.Store.Get(spec.RefID)
		if err != nil {
			return "", err
		}
	}
	// Archive the work before admission: recovery needs the scan bytes
	// to re-run whatever the crash interrupted. Content addressing
	// dedupes resubmissions for free.
	persist, err := m.archiveSpec(spec)
	if err != nil {
		return "", err
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return "", ErrClosed
	}
	if cap(m.tasks)-len(m.tasks) < len(spec.Scans) {
		return "", ErrQueueFull
	}
	m.seq++
	j := &job{
		id:      fmt.Sprintf("job-%06d-%s", m.seq, m.idSuffix),
		spec:    spec,
		ref:     ref,
		total:   len(spec.Scans),
		persist: persist,
		state:   StateQueued,
		created: m.cfg.now(),
		results: make([]ScanResult, len(spec.Scans)),
	}
	for i := range j.results {
		j.results[i] = ScanResult{Index: i}
	}
	// The admission record must be durable before the id is handed
	// out: an acknowledged job survives kill -9.
	if err := m.journalAdmit(j); err != nil {
		m.seq--
		return "", err
	}
	m.jobs[j.id] = j
	// Only workers drain the channel, so under m.mu the capacity
	// check above guarantees every send below succeeds immediately.
	for i := range spec.Scans {
		m.tasks <- task{job: j, scan: i}
	}
	if m.submitted != nil {
		m.submitted.Inc()
		m.queueDepth.Set(int64(len(m.tasks)))
		m.activeG.Inc()
	}
	return j.id, nil
}

// Get returns a snapshot of a job.
func (m *Manager) Get(id string) (Status, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return Status{}, ErrNotFound
	}
	return j.snapshot(), nil
}

// List returns a snapshot of every retained job, newest first.
func (m *Manager) List() []Status {
	m.mu.Lock()
	js := make([]*job, 0, len(m.jobs))
	for _, j := range m.jobs {
		js = append(js, j)
	}
	m.mu.Unlock()
	out := make([]Status, len(js))
	for i, j := range js {
		out[i] = j.snapshot()
	}
	SortStatuses(out)
	return out
}

// SortStatuses puts snapshots in List's order: by id descending. Ids
// start with a zero-padded sequence number, so within one Manager
// that is newest first.
func SortStatuses(s []Status) {
	sort.Slice(s, func(i, k int) bool { return s[i].ID > s[k].ID })
}

// Cancel marks a job canceled. Queued scans are skipped; a scan
// already on a worker finishes and is recorded. Canceling a terminal
// job is a no-op; the final state is returned either way.
func (m *Manager) Cancel(id string) (Status, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return Status{}, ErrNotFound
	}
	j.mu.Lock()
	marked := false
	if !j.state.Terminal() {
		j.canceled = true
		marked = true
		if j.done >= j.total {
			// Every scan already finished; canceling changes nothing.
			j.canceled = false
			marked = false
		}
	}
	j.mu.Unlock()
	if marked {
		m.journalAppend(walRecord{Op: opCancel, JobID: id})
	}
	return j.snapshot(), nil
}

// Delete cancels (if needed) and removes a job record. Queued scans
// of a deleted job are still drained by the workers (as fast skips —
// record keeps a pointer to the job, not the table entry), so the
// telemetry gauges stay consistent.
func (m *Manager) Delete(id string) error {
	if _, err := m.Cancel(id); err != nil {
		return err
	}
	m.mu.Lock()
	delete(m.jobs, id)
	m.mu.Unlock()
	m.journalAppend(walRecord{Op: opDelete, JobID: id})
	return nil
}

// worker drains the queue, beating the heartbeat registry around
// every task. Each worker constructs the job's engine itself, so
// engines with mutable state (the planner) are never shared.
func (m *Manager) worker(id int) {
	defer m.wg.Done()
	beat := m.health.workers[id]
	// Engines are cached per job spec name; the common "" case means
	// one planner reused across every task this worker ever runs.
	engines := map[string]core.Engine{}
	for t := range m.tasks {
		if m.queueDepth != nil {
			m.queueDepth.Set(int64(len(m.tasks)))
		}
		beat.begin(m.cfg.now())
		if m.workersBusyG != nil {
			m.workersBusyG.Inc()
		}
		m.runTask(t, engines)
		beat.end(m.cfg.now())
		if m.workersBusyG != nil {
			m.workersBusyG.Dec()
		}
	}
}

// runTask executes one scan task end to end: state transition,
// engine resolution, the retry loop, and recording. Nothing in here
// may kill the worker — scan attempts run under recover.
func (m *Manager) runTask(t task, engines map[string]core.Engine) {
	j := t.job
	j.mu.Lock()
	if j.state == StateQueued && !j.canceled {
		j.state = StateRunning
		j.started = m.cfg.now()
	}
	skip := j.canceled
	j.mu.Unlock()
	if skip {
		m.record(j, ScanResult{Index: t.scan, Error: "canceled"}, true)
		return
	}
	var eng core.Engine
	// Docclean scans run the morphology pipeline, not a row-difference
	// engine; everything else resolves (and caches) the job's engine.
	if j.spec.Type != TypeDocClean {
		var ok bool
		eng, ok = engines[j.spec.Engine]
		if !ok {
			var err error
			// Submit validated the name, but a journaled job may name
			// an engine no longer served: fail the scan, not the worker.
			eng, err = sysrle.NewServedEngine(j.spec.Engine, m.cfg.Registry)
			if err != nil {
				m.record(j, ScanResult{Index: t.scan, Error: err.Error()}, false)
				return
			}
			if m.cfg.WrapEngine != nil {
				if wrapped := m.cfg.WrapEngine(eng); wrapped != nil {
					eng = wrapped
				}
			}
			engines[j.spec.Engine] = eng
		}
	}
	res := m.runScan(j, eng, t.scan)
	if m.scans != nil {
		m.scans.Inc()
	}
	m.record(j, res, false)
}

// runScan runs one scan with the retry policy: up to 1+ScanRetries
// attempts, capped exponential backoff with jitter between them, and
// quarantine when every attempt fails.
func (m *Manager) runScan(j *job, eng core.Engine, scan int) ScanResult {
	res := ScanResult{Index: scan}
	attempts := 1 + m.cfg.ScanRetries
	var lastErr error
	for attempt := 1; attempt <= attempts; attempt++ {
		if attempt > 1 {
			if m.retriedC != nil {
				m.retriedC.Inc()
			}
			if !m.backoff(attempt-1) || m.jobCanceled(j) {
				// Shutdown or cancellation mid-retry: give up cleanly.
				res.Attempts = attempt - 1
				res.Error = lastErr.Error()
				return res
			}
		}
		out, err := m.attemptScan(j, eng, scan)
		if err == nil {
			res.Attempts = attempt
			switch {
			case out.report != nil:
				rep := out.report
				res.Clean = rep.Clean()
				res.Defects = len(rep.Defects)
				res.DiffPixels = rep.DiffArea
				res.DiffRuns = rep.DiffRuns
				res.Iterations = rep.TotalIterations
			case out.doc != nil:
				doc := out.doc
				res.Clean = doc.SpecklesRemoved == 0
				res.SpecklesRemoved = doc.SpecklesRemoved
				res.LinesH = doc.LinesH
				res.LinesV = doc.LinesV
				res.Blocks = len(doc.Blocks)
				res.OutputArea = doc.OutputArea
			}
			return res
		}
		lastErr = err
	}
	res.Attempts = attempts
	res.Error = lastErr.Error()
	if m.cfg.ScanRetries > 0 {
		// A poison scan: it failed every attempt it was entitled to.
		res.Quarantined = true
		if m.quarantinedC != nil {
			m.quarantinedC.Inc()
		}
	}
	return res
}

// scanOutcome is what one successful attempt produced: an inspection
// report or a docclean result, depending on the job type.
type scanOutcome struct {
	report *inspect.Report
	doc    *docclean.Result
}

// attemptScan runs a single attempt under recover and the per-scan
// deadline. A panic anywhere in the pipeline becomes an error; the
// worker goroutine is never lost.
func (m *Manager) attemptScan(j *job, eng core.Engine, scan int) (out scanOutcome, err error) {
	defer func() {
		if p := recover(); p != nil {
			if m.panicsC != nil {
				m.panicsC.Inc()
			}
			err = fmt.Errorf("scan panicked: %v", p)
		}
	}()
	ctx := context.Background()
	if m.cfg.ScanTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, m.cfg.ScanTimeout)
		defer cancel()
	}
	if j.spec.Type == TypeDocClean {
		out.doc, err = docclean.Clean(ctx, j.spec.Scans[scan], j.spec.Doc)
		return out, err
	}
	ins := &inspect.Inspector{
		Engine: eng,
		// Scans are the unit of parallelism; one row worker per
		// scan keeps the pool's CPU use at Workers and keeps the
		// per-worker engine single-threaded.
		Workers:       1,
		MinDefectArea: j.spec.MinDefectArea,
		MaxAlignShift: j.spec.MaxAlignShift,
	}
	out.report, err = ins.CompareContext(ctx, j.ref, j.spec.Scans[scan])
	return out, err
}

// backoff sleeps before retry n (1-based): RetryBackoff doubled per
// retry, capped at 32×, plus up to 50% jitter from the seeded rng.
// Returns false when the manager is shutting down.
func (m *Manager) backoff(n int) bool {
	shift := n - 1
	if shift > 5 {
		shift = 5
	}
	d := m.cfg.RetryBackoff << shift
	m.rngMu.Lock()
	d += time.Duration(m.rng.Int63n(int64(d)/2 + 1))
	m.rngMu.Unlock()
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-m.stop:
		return false
	}
}

func (m *Manager) jobCanceled(j *job) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.canceled
}

// record stores one scan result and finalizes the job when it was the
// last. canceledScan marks results that were skipped, not failed.
// With an audit log configured, successful inspect verdicts are
// appended to it first so the assigned id travels with the result.
// With a journal, the outcome, and the completion when this scan
// finishes the job, are appended before the result is published under
// j.mu: a client must never see a verdict that a crash could lose,
// because recovery would re-run the scan under a new audit id.
func (m *Manager) record(j *job, res ScanResult, canceledScan bool) {
	var auditTime time.Time
	if m.cfg.Audit != nil && !canceledScan && res.Error == "" && typeName(j.spec.Type) == TypeInspect {
		auditTime = m.cfg.now()
		if id, err := m.cfg.Audit.Append(j.verdict(res, auditTime)); err == nil {
			res.AuditID = id
		}
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	failed := j.failed
	if res.Error != "" && !canceledScan {
		failed++
	}
	state, finishedAt := j.state, j.finished
	finished := j.done+1 >= j.total
	if finished && !state.Terminal() {
		finishedAt = m.cfg.now()
		switch {
		case j.canceled:
			state = StateCanceled
		case failed > 0:
			state = StateFailed
		default:
			state = StateDone
		}
	}
	m.journalAppend(walRecord{Op: opScan, JobID: j.id, Index: res.Index, Result: &res, AuditTime: auditTime})
	if finished {
		m.journalAppend(walRecord{Op: opDone, JobID: j.id, State: state, Finished: finishedAt})
	}
	j.results[res.Index] = res
	j.done++
	j.failed = failed
	j.state, j.finished = state, finishedAt
	if finished && m.completedBy != nil {
		m.completedBy(state).Inc()
		m.activeG.Dec()
	}
}

// janitor collects finished jobs a retention window after they
// finish.
func (m *Manager) janitor() {
	defer m.wg.Done()
	if m.cfg.Retention < 0 {
		return
	}
	interval := m.cfg.Retention / 4
	if interval < 50*time.Millisecond {
		interval = 50 * time.Millisecond
	}
	if interval > time.Minute {
		interval = time.Minute
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-tick.C:
			m.collect()
		}
	}
}

// collect removes jobs whose retention has lapsed, tombstoning them
// in the journal so they stay gone across a restart.
func (m *Manager) collect() {
	deadline := m.cfg.now().Add(-m.cfg.Retention)
	var removed []string
	m.mu.Lock()
	for id, j := range m.jobs {
		j.mu.Lock()
		expired := j.state.Terminal() && !j.finished.IsZero() && j.finished.Before(deadline)
		j.mu.Unlock()
		if expired {
			delete(m.jobs, id)
			removed = append(removed, id)
		}
	}
	m.mu.Unlock()
	for _, id := range removed {
		m.journalAppend(walRecord{Op: opDelete, JobID: id})
	}
}

// snapshot copies the job under its lock.
func (j *job) snapshot() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:         j.id,
		State:      j.state,
		Type:       typeName(j.spec.Type),
		RefID:      j.spec.RefID,
		Engine:     engineName(j.spec.Type, j.spec.Engine),
		ScansTotal: j.total,
		ScansDone:  j.done,
		Created:    j.created,
	}
	if j.canceled && !j.state.Terminal() {
		st.State = StateCanceled
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	if j.failed > 0 {
		st.Error = fmt.Sprintf("%d of %d scans failed", j.failed, j.total)
	}
	st.Results = append([]ScanResult(nil), j.results...)
	return st
}

func engineName(jobType, name string) string {
	if jobType == TypeDocClean {
		return "" // docclean has no row-difference engine
	}
	if name == "" {
		return sysrle.DefaultEngine
	}
	return name
}

func typeName(jobType string) string {
	if jobType == "" {
		return TypeInspect
	}
	return jobType
}
