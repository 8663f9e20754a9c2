package jobs

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"sysrle/internal/docclean"
	"sysrle/internal/inspect"
	"sysrle/internal/refstore"
	"sysrle/internal/rle"
	"sysrle/internal/telemetry"
	"sysrle/internal/workload"
)

// board returns a synthetic PCB reference and a defective scan.
func board(t *testing.T, seed int64, w, h, defects int) (*rle.Image, *rle.Image, int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	layout, err := inspect.GenerateBoard(rng, inspect.DefaultBoard(w, h))
	if err != nil {
		t.Fatal(err)
	}
	scan, injected := inspect.InjectDefects(rng, layout, defects)
	return layout.Art.ToRLE(), scan.ToRLE(), len(injected)
}

// waitTerminal polls until the job reaches a terminal state.
func waitTerminal(t *testing.T, m *Manager, id string) Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st, err := m.Get(id)
		if err != nil {
			t.Fatalf("job %s vanished: %v", id, err)
		}
		if st.State.Terminal() && st.ScansDone == st.ScansTotal {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return Status{}
}

func TestJobRunsToDone(t *testing.T) {
	ref, scan, injected := board(t, 1, 200, 150, 4)
	m := New(Config{Workers: 2, Retention: -1})
	defer m.Close()
	id, err := m.Submit(Spec{Ref: ref, Scans: []*rle.Image{scan, ref.Clone(), scan.Clone()}})
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, m, id)
	if st.State != StateDone {
		t.Fatalf("state %s, want done (error %q)", st.State, st.Error)
	}
	if st.ScansDone != 3 || len(st.Results) != 3 {
		t.Fatalf("progress %d/%d, %d results", st.ScansDone, st.ScansTotal, len(st.Results))
	}
	// Scan 1 is the reference itself: clean. Scans 0 and 2 carry the
	// injected defects and must agree with each other.
	if !st.Results[1].Clean || st.Results[1].DiffPixels != 0 {
		t.Errorf("identical scan reported dirty: %+v", st.Results[1])
	}
	if injected > 0 && st.Results[0].Clean {
		t.Errorf("defective scan reported clean: %+v", st.Results[0])
	}
	if st.Results[0].Defects != st.Results[2].Defects {
		t.Errorf("same scan twice, different defect counts: %d vs %d",
			st.Results[0].Defects, st.Results[2].Defects)
	}
	if st.Started == nil || st.Finished == nil {
		t.Error("timestamps missing on a finished job")
	}
}

func TestJobAgainstStoredReference(t *testing.T) {
	ref, scan, _ := board(t, 2, 200, 150, 3)
	reg := telemetry.NewRegistry()
	store := refstore.New(refstore.Config{Registry: reg})
	meta, err := store.Put(ref)
	if err != nil {
		t.Fatal(err)
	}
	m := New(Config{Workers: 2, Store: store, Retention: -1, Registry: reg})
	defer m.Close()

	// Two jobs against the same stored reference: one decode total.
	scans := []*rle.Image{scan, scan.Clone()}
	for i := 0; i < 2; i++ {
		id, err := m.Submit(Spec{RefID: meta.ID, Scans: scans})
		if err != nil {
			t.Fatal(err)
		}
		if st := waitTerminal(t, m, id); st.State != StateDone {
			t.Fatalf("job %d state %s (%s)", i, st.State, st.Error)
		}
	}
	if v := reg.Counter("sysrle_refstore_decodes_total").Value(); v != 1 {
		t.Errorf("reference decoded %d times across 2 jobs, want 1", v)
	}
	if _, err := m.Submit(Spec{RefID: "unknown", Scans: scans}); !errors.Is(err, refstore.ErrNotFound) {
		t.Errorf("unknown ref: %v", err)
	}
}

func TestSubmitValidation(t *testing.T) {
	m := New(Config{Workers: 1, Retention: -1})
	defer m.Close()
	img := rle.NewImage(8, 8)
	if _, err := m.Submit(Spec{Ref: img}); !errors.Is(err, ErrNoScans) {
		t.Errorf("no scans: %v", err)
	}
	if _, err := m.Submit(Spec{Scans: []*rle.Image{img}}); err == nil {
		t.Error("missing reference accepted")
	}
	if _, err := m.Submit(Spec{Ref: img, RefID: "x", Scans: []*rle.Image{img}}); err == nil {
		t.Error("both reference forms accepted")
	}
	if _, err := m.Submit(Spec{Ref: img, Scans: []*rle.Image{img}, Engine: "warp"}); err == nil {
		t.Error("unknown engine accepted")
	}
	if _, err := m.Submit(Spec{RefID: "abc", Scans: []*rle.Image{img}}); err == nil {
		t.Error("RefID without a store accepted")
	}
}

func TestQueueFullBackpressure(t *testing.T) {
	m := New(Config{Workers: 1, QueueDepth: 4, Retention: -1})
	defer m.Close()
	img := rle.NewImage(16, 16)
	scans := make([]*rle.Image, 5)
	for i := range scans {
		scans[i] = img
	}
	// Five scans can never fit a depth-4 queue, whatever the workers
	// have drained: all-or-nothing admission rejects the job whole.
	if _, err := m.Submit(Spec{Ref: img, Scans: scans}); !errors.Is(err, ErrQueueFull) {
		t.Errorf("err = %v, want ErrQueueFull", err)
	}
	// A fitting job is accepted and runs.
	id, err := m.Submit(Spec{Ref: img, Scans: scans[:2]})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, m, id); st.State != StateDone {
		t.Errorf("state %s", st.State)
	}
}

func TestFailedScanFailsJob(t *testing.T) {
	ref := rle.NewImage(32, 32)
	good := rle.NewImage(32, 32)
	bad := rle.NewImage(16, 16) // size mismatch
	m := New(Config{Workers: 2, Retention: -1})
	defer m.Close()
	id, err := m.Submit(Spec{Ref: ref, Scans: []*rle.Image{good, bad, good}})
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, m, id)
	if st.State != StateFailed {
		t.Fatalf("state %s, want failed", st.State)
	}
	if st.Results[1].Error == "" {
		t.Error("mismatched scan has no error")
	}
	// The healthy scans still ran.
	if st.Results[0].Error != "" || st.Results[2].Error != "" {
		t.Errorf("healthy scans failed: %+v", st.Results)
	}
}

func TestCancelSkipsQueuedScans(t *testing.T) {
	ref, scan, _ := board(t, 3, 400, 300, 2)
	m := New(Config{Workers: 1, QueueDepth: 64, Retention: -1})
	defer m.Close()
	scans := make([]*rle.Image, 40)
	for i := range scans {
		scans[i] = scan
	}
	id, err := m.Submit(Spec{Ref: ref, Scans: scans})
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Cancel(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCanceled && st.State != StateDone {
		t.Fatalf("post-cancel state %s", st.State)
	}
	final := waitTerminal(t, m, id)
	if final.State != StateCanceled {
		// All 40 boards finishing on one worker before Cancel landed
		// would be astonishing, but is not strictly impossible.
		t.Skipf("job outran cancellation: state %s", final.State)
	}
	skipped := 0
	for _, r := range final.Results {
		if r.Error == "canceled" {
			skipped++
		}
	}
	if skipped == 0 {
		t.Error("cancellation skipped no scans")
	}
	// Cancel on a terminal job is a stable no-op.
	again, err := m.Cancel(id)
	if err != nil || again.State != StateCanceled {
		t.Errorf("re-cancel: %v state %s", err, again.State)
	}
}

func TestDeleteRemovesJob(t *testing.T) {
	m := New(Config{Workers: 1, Retention: -1})
	defer m.Close()
	img := rle.NewImage(8, 8)
	id, err := m.Submit(Spec{Ref: img, Scans: []*rle.Image{img}})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Delete(id); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Get(id); !errors.Is(err, ErrNotFound) {
		t.Errorf("deleted job still pollable: %v", err)
	}
	if err := m.Delete(id); !errors.Is(err, ErrNotFound) {
		t.Errorf("double delete: %v", err)
	}
}

func TestRetentionCollectsFinishedJobs(t *testing.T) {
	m := New(Config{Workers: 1, Retention: 30 * time.Millisecond})
	defer m.Close()
	img := rle.NewImage(8, 8)
	id, err := m.Submit(Spec{Ref: img, Scans: []*rle.Image{img}})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, m, id)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := m.Get(id); errors.Is(err, ErrNotFound) {
			return // collected
		}
		if time.Now().After(deadline) {
			t.Fatal("finished job never garbage-collected")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestSubmitAfterClose(t *testing.T) {
	m := New(Config{Workers: 1, Retention: -1})
	m.Close()
	img := rle.NewImage(8, 8)
	if _, err := m.Submit(Spec{Ref: img, Scans: []*rle.Image{img}}); !errors.Is(err, ErrClosed) {
		t.Errorf("err = %v, want ErrClosed", err)
	}
	m.Close() // idempotent
}

func TestEngineSelection(t *testing.T) {
	ref, scan, _ := board(t, 4, 120, 90, 2)
	m := New(Config{Workers: 2, Retention: -1})
	defer m.Close()
	var base Status
	for i, engine := range []string{"", "planner", "lockstep", "sequential", "sparse", "bus"} {
		id, err := m.Submit(Spec{Ref: ref, Scans: []*rle.Image{scan}, Engine: engine})
		if err != nil {
			t.Fatalf("%q: %v", engine, err)
		}
		st := waitTerminal(t, m, id)
		if st.State != StateDone {
			t.Fatalf("%q: state %s (%s)", engine, st.State, st.Error)
		}
		if i == 0 {
			base = st
			continue
		}
		if st.Results[0].Defects != base.Results[0].Defects ||
			st.Results[0].DiffPixels != base.Results[0].DiffPixels {
			t.Errorf("%q disagrees with the default: %+v vs %+v", engine, st.Results[0], base.Results[0])
		}
	}
}

// TestConcurrentSubmitCancelProgress hammers the manager under the
// race detector: parallel submitters, pollers and cancelers.
func TestConcurrentSubmitCancelProgress(t *testing.T) {
	ref, scan, _ := board(t, 5, 150, 100, 2)
	m := New(Config{Workers: 4, QueueDepth: 512, Retention: -1})
	defer m.Close()
	const submitters = 6
	var wg sync.WaitGroup
	ids := make(chan string, submitters*8)
	for w := 0; w < submitters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				id, err := m.Submit(Spec{Ref: ref, Scans: []*rle.Image{scan, scan}})
				if errors.Is(err, ErrQueueFull) {
					continue
				}
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				ids <- id
				if (i+w)%3 == 0 {
					if _, err := m.Cancel(id); err != nil {
						t.Errorf("cancel: %v", err)
						return
					}
				}
				m.List()
				if _, err := m.Get(id); err != nil {
					t.Errorf("get: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(ids)
	for id := range ids {
		st := waitTerminal(t, m, id)
		if !st.State.Terminal() {
			t.Errorf("job %s stuck in %s", id, st.State)
		}
	}
}

func TestDocCleanJobEndToEnd(t *testing.T) {
	// The acceptance path: a generated A4 page through the docclean
	// batch job type, plus a second tiny page to exercise fan-out.
	rng := rand.New(rand.NewSource(1999))
	page, err := workload.GenerateDocument(rng, workload.A4Doc())
	if err != nil {
		t.Fatal(err)
	}
	small := rle.NewImage(40, 20)
	small.Rows[3] = rle.Row{rle.Span(5, 34)}
	small.Rows[10] = rle.Row{rle.Span(8, 8)} // lone speck

	m := New(Config{Workers: 2, Retention: -1})
	defer m.Close()
	id, err := m.Submit(Spec{
		Type:  TypeDocClean,
		Scans: []*rle.Image{page, small},
		Doc:   docclean.Config{},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, m, id)
	if st.State != StateDone {
		t.Fatalf("state %s, want done (error %q)", st.State, st.Error)
	}
	if st.Type != TypeDocClean {
		t.Errorf("status type %q", st.Type)
	}
	if st.Engine != "" {
		t.Errorf("docclean job reports engine %q", st.Engine)
	}
	a4 := st.Results[0]
	if a4.SpecklesRemoved < 100 || a4.LinesH < 3 || a4.Blocks < 2 {
		t.Errorf("A4 result implausible: %+v", a4)
	}
	if a4.OutputArea <= 0 || a4.OutputArea >= page.Area() {
		t.Errorf("A4 output area %d vs input %d", a4.OutputArea, page.Area())
	}
	tiny := st.Results[1]
	if tiny.SpecklesRemoved != 1 {
		t.Errorf("tiny page removed %d specks, want the 1 planted", tiny.SpecklesRemoved)
	}
}

func TestDocCleanSubmitValidation(t *testing.T) {
	m := New(Config{Workers: 1, Retention: -1})
	defer m.Close()
	img := rle.NewImage(8, 8)
	cases := []Spec{
		{Type: TypeDocClean, Scans: []*rle.Image{img}, Ref: img},
		{Type: TypeDocClean, Scans: []*rle.Image{img}, RefID: "x"},
		{Type: TypeDocClean, Scans: []*rle.Image{img}, Engine: "lockstep"},
		{Type: TypeDocClean, Scans: []*rle.Image{img}, Doc: docclean.Config{MinLineLen: -1}},
		{Type: "transmogrify", Scans: []*rle.Image{img}},
	}
	for i, spec := range cases {
		if _, err := m.Submit(spec); err == nil {
			t.Errorf("case %d: invalid docclean spec accepted", i)
		}
	}
	// Inspect-flavoured statuses still report their type and engine.
	ref, scan, _ := board(t, 3, 80, 60, 1)
	id, err := m.Submit(Spec{Ref: ref, Scans: []*rle.Image{scan}})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, m, id); st.Type != TypeInspect || st.Engine != "planner" {
		t.Errorf("inspect job reported type %q engine %q", st.Type, st.Engine)
	}
}
