package jobs

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sysrle/internal/core"
	"sysrle/internal/fault"
	"sysrle/internal/inspect"
	"sysrle/internal/rle"
	"sysrle/internal/telemetry"
)

// flakyEngine panics for the first failFor XORRow calls across all
// users, then delegates to Sequential.
type flakyEngine struct {
	calls   *atomic.Int64
	failFor int64
}

func (flakyEngine) Name() string { return "flaky" }

func (f flakyEngine) XORRow(a, b rle.Row) (core.Result, error) {
	if f.calls.Add(1) <= f.failFor {
		panic("flaky engine detonated")
	}
	return core.Sequential{}.XORRow(a, b)
}

// sleepEngine holds every row for a fixed delay.
type sleepEngine struct{ delay time.Duration }

func (sleepEngine) Name() string { return "sleepy" }

func (e sleepEngine) XORRow(a, b rle.Row) (core.Result, error) {
	time.Sleep(e.delay)
	return core.Sequential{}.XORRow(a, b)
}

// TestWorkerSurvivesPanickingEngine is the regression for the bug
// where a panicking engine inside Inspector.Compare killed a worker
// goroutine: panics must fail the scan, and the pool must keep its
// full size and stay able to run later jobs.
func TestWorkerSurvivesPanickingEngine(t *testing.T) {
	ref, scan, _ := board(t, 11, 96, 64, 2)
	var calls atomic.Int64
	m := New(Config{
		Workers:   2,
		Retention: -1,
		// Panic on every row of roughly the first scan; the image has
		// 64 rows so later scans run clean.
		WrapEngine: func(core.Engine) core.Engine {
			return flakyEngine{calls: &calls, failFor: 1}
		},
	})
	defer m.Close()

	id, err := m.Submit(Spec{Ref: ref, Scans: []*rle.Image{scan, scan.Clone(), scan.Clone(), scan.Clone()}})
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, m, id)
	if st.State != StateFailed {
		t.Fatalf("state = %s, want failed (one scan hit the panic)", st.State)
	}
	panicked := 0
	for _, r := range st.Results {
		if strings.Contains(r.Error, "panicked") {
			panicked++
		} else if r.Error != "" {
			t.Errorf("scan %d failed with %q, want panic error or success", r.Index, r.Error)
		}
	}
	if panicked == 0 {
		t.Fatal("no scan recorded the panic")
	}
	if panicked == len(st.Results) {
		t.Fatal("every scan panicked; pool never recovered")
	}

	// The pool must be intact and able to finish a fresh job.
	if h := m.Health(); h.Workers != 2 {
		t.Fatalf("pool size %d, want 2", h.Workers)
	}
	id2, err := m.Submit(Spec{Ref: ref, Scans: []*rle.Image{ref.Clone()}})
	if err != nil {
		t.Fatal(err)
	}
	if st2 := waitTerminal(t, m, id2); st2.State != StateDone {
		t.Fatalf("post-panic job state = %s (results %+v)", st2.State, st2.Results)
	}
}

// TestBadEngineFailsScanNotWorker covers the defensive path in
// runTask: an engine that cannot be resolved must fail the scan with
// a recorded error instead of handing the inspector a nil engine.
func TestBadEngineFailsScanNotWorker(t *testing.T) {
	ref, scan, _ := board(t, 12, 96, 64, 1)
	m := New(Config{Workers: 1, Retention: -1})
	defer m.Close()

	// Submit validates names, so build the poisoned job by hand and
	// push it through runTask the way a worker would.
	j := &job{
		id:    "job-bogus",
		spec:  Spec{Engine: "warp-core", Scans: []*rle.Image{scan}},
		ref:   ref,
		total: 1,
		state: StateQueued,
	}
	j.initScans(1)
	m.runTask(task{job: j, scan: 0}, map[string]core.Engine{})

	st := j.snapshot()
	if st.State != StateFailed {
		t.Fatalf("state = %s, want failed", st.State)
	}
	if !strings.Contains(st.Results[0].Error, "unknown engine") {
		t.Errorf("scan error = %q, want unknown engine", st.Results[0].Error)
	}
}

// TestAttemptScanRecoversPipelinePanic exercises the jobs-level
// safety net directly: a panic outside the inspector's row workers
// (here, a nil scan image) must become a scan error and increment the
// panic counter — never unwind the worker goroutine.
func TestAttemptScanRecoversPipelinePanic(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := New(Config{Workers: 1, Retention: -1, Registry: reg})
	defer m.Close()

	j := &job{
		id:      "job-nilscan",
		spec:    Spec{Scans: []*rle.Image{nil}},
		ref:     rle.NewImage(8, 1),
		state:   StateQueued,
		results: []ScanResult{{Index: 0}},
	}
	_, err := m.attemptScan(j, core.Sequential{}, 0)
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("err = %v, want recovered panic", err)
	}
	if n := reg.Counter("sysrle_jobs_scan_panics_total").Value(); n != 1 {
		t.Errorf("panic counter = %d, want 1", n)
	}
}

// TestScanTimeoutFailsSlowScan: the per-scan deadline must cut off a
// hung engine instead of occupying the worker forever.
func TestScanTimeoutFailsSlowScan(t *testing.T) {
	ref := rle.NewImage(32, 40)
	scan := rle.NewImage(32, 40)
	for y := 0; y < 40; y++ {
		ref.Rows[y] = rle.Row{rle.Span(0, 5)}
		scan.Rows[y] = rle.Row{rle.Span(2, 7)}
	}
	m := New(Config{
		Workers:     1,
		Retention:   -1,
		ScanTimeout: 10 * time.Millisecond,
		WrapEngine:  func(core.Engine) core.Engine { return sleepEngine{delay: 2 * time.Millisecond} },
	})
	defer m.Close()

	id, err := m.Submit(Spec{Ref: ref, Scans: []*rle.Image{scan}})
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, m, id)
	if st.State != StateFailed {
		t.Fatalf("state = %s, want failed on deadline", st.State)
	}
	if !strings.Contains(st.Results[0].Error, "deadline") {
		t.Errorf("scan error = %q, want deadline exceeded", st.Results[0].Error)
	}
}

// TestHealthReportsStuckWorker: a worker holding one scan past
// StuckAfter shows up in the heartbeat snapshot, and clears once the
// scan finishes.
func TestHealthReportsStuckWorker(t *testing.T) {
	ref := rle.NewImage(16, 1)
	scan := rle.NewImage(16, 1)
	ref.Rows[0] = rle.Row{rle.Span(0, 3)}
	scan.Rows[0] = rle.Row{rle.Span(1, 4)}
	m := New(Config{
		Workers:    1,
		Retention:  -1,
		StuckAfter: time.Millisecond,
		WrapEngine: func(core.Engine) core.Engine { return sleepEngine{delay: 300 * time.Millisecond} },
	})
	defer m.Close()

	id, err := m.Submit(Spec{Ref: ref, Scans: []*rle.Image{scan}})
	if err != nil {
		t.Fatal(err)
	}
	sawStuck := false
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		h := m.Health()
		if h.Stuck > 0 {
			sawStuck = true
			if !h.Detail[0].Stuck || h.Detail[0].BusyFor <= 0 {
				t.Errorf("stuck detail not populated: %+v", h.Detail[0])
			}
			break
		}
		time.Sleep(time.Millisecond)
	}
	if !sawStuck {
		t.Fatal("stuck worker never reported")
	}
	waitTerminal(t, m, id)
	if h := m.Health(); h.Stuck != 0 || h.Busy != 0 {
		t.Errorf("health after completion %+v, want idle", h)
	}
}

// TestChaosConvergence is the acceptance gate: with every fault kind
// injected (panics, corrupt cells, dropped shifts, stuck cells, slow
// and transient errors) under the verified engine, every job reaches
// a terminal state, every scan result equals the fault-free baseline,
// and no workers are lost.
func TestChaosConvergence(t *testing.T) {
	const jobsN, scansN = 4, 6
	ref, scan, _ := board(t, 15, 128, 96, 3)
	scans := make([]*rle.Image, scansN)
	for i := range scans {
		if i%2 == 0 {
			scans[i] = scan.Clone()
		} else {
			scans[i] = ref.Clone()
		}
	}

	// Fault-free baseline, computed directly.
	baseline := make([]*inspect.Report, scansN)
	for i, s := range scans {
		rep, err := (&inspect.Inspector{}).Compare(ref, s)
		if err != nil {
			t.Fatal(err)
		}
		baseline[i] = rep
	}

	reg := telemetry.NewRegistry()
	inj := fault.NewInjector(fault.Plan{
		Seed:    42,
		Rate:    0.2,
		SlowFor: 50 * time.Microsecond, // all kinds, fast slow faults
	}, reg)
	m := New(Config{
		Workers:   3,
		Retention: -1,
		Registry:  reg,
		WrapEngine: func(eng core.Engine) core.Engine {
			return core.NewVerified(fault.Wrap(eng, inj))
		},
	})
	defer m.Close()

	ids := make([]string, jobsN)
	for i := range ids {
		id, err := m.Submit(Spec{Ref: ref, Scans: scans})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	for _, id := range ids {
		st := waitTerminal(t, m, id)
		if st.State != StateDone {
			t.Fatalf("job %s state = %s (results %+v)", id, st.State, st.Results)
		}
		for _, r := range st.Results {
			want := baseline[r.Index]
			if r.Error != "" {
				t.Fatalf("job %s scan %d failed under chaos: %s", id, r.Index, r.Error)
			}
			if r.Clean != want.Clean() || r.Defects != len(want.Defects) ||
				r.DiffPixels != want.DiffArea || r.DiffRuns != want.DiffRuns {
				t.Errorf("job %s scan %d diverged: got {clean:%v defects:%d px:%d runs:%d} want {clean:%v defects:%d px:%d runs:%d}",
					id, r.Index, r.Clean, r.Defects, r.DiffPixels, r.DiffRuns,
					want.Clean(), len(want.Defects), want.DiffArea, want.DiffRuns)
			}
		}
	}
	if inj.Total() == 0 {
		t.Fatal("chaos run injected zero faults; test proves nothing")
	}
	t.Logf("faults injected: %v", inj.Injected())
	if h := m.Health(); h.Workers != 3 || h.Stuck != 0 {
		t.Errorf("pool degraded after chaos: %+v", h)
	}
}

// TestSubmitCancelDeleteHammer races the public API from many
// goroutines while the pool runs: every surviving job must reach a
// terminal state and the manager must shut down without leaking
// goroutines.
func TestSubmitCancelDeleteHammer(t *testing.T) {
	before := runtime.NumGoroutine()
	ref, scan, _ := board(t, 16, 96, 64, 2)

	m := New(Config{Workers: 4, QueueDepth: 512, Retention: -1})
	var (
		mu  sync.Mutex
		ids []string
	)
	const hammers = 8
	var wg sync.WaitGroup
	for g := 0; g < hammers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				switch (g + i) % 4 {
				case 0, 1:
					id, err := m.Submit(Spec{Ref: ref, Scans: []*rle.Image{scan, ref.Clone()}})
					if err == nil {
						mu.Lock()
						ids = append(ids, id)
						mu.Unlock()
					} else if err != ErrQueueFull {
						t.Errorf("submit: %v", err)
					}
				case 2:
					mu.Lock()
					var id string
					if len(ids) > 0 {
						id = ids[(g*7+i)%len(ids)]
					}
					mu.Unlock()
					if id != "" {
						if _, err := m.Cancel(id); err != nil && err != ErrNotFound {
							t.Errorf("cancel: %v", err)
						}
					}
				case 3:
					mu.Lock()
					var id string
					if len(ids) > 0 && i%5 == 0 {
						id = ids[(g*3+i)%len(ids)]
					}
					mu.Unlock()
					if id != "" {
						if err := m.Delete(id); err != nil && err != ErrNotFound {
							t.Errorf("delete: %v", err)
						}
					}
					m.List()
					m.Health()
				}
			}
		}(g)
	}
	wg.Wait()

	// Every job still in the table must reach a terminal state.
	deadline := time.Now().Add(30 * time.Second)
	for {
		pending := 0
		for _, st := range m.List() {
			if !st.State.Terminal() || st.ScansDone < st.ScansTotal {
				pending++
			}
		}
		if pending == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d jobs never reached a terminal state", pending)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if h := m.Health(); h.Workers != 4 {
		t.Errorf("pool size %d after hammer, want 4", h.Workers)
	}
	m.Close()

	// The pool, janitor and any helper goroutines must be gone.
	deadline = time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Errorf("goroutines: %d before, %d after close", before, runtime.NumGoroutine())
}
