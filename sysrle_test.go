package sysrle

import (
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"

	"sysrle/internal/workload"
)

func paperRows() (Row, Row, Row) {
	a := Row{{Start: 10, Length: 3}, {Start: 16, Length: 2}, {Start: 23, Length: 2}, {Start: 27, Length: 3}}
	b := Row{{Start: 3, Length: 4}, {Start: 8, Length: 5}, {Start: 15, Length: 5}, {Start: 23, Length: 2}, {Start: 27, Length: 4}}
	want := Row{{Start: 3, Length: 4}, {Start: 8, Length: 2}, {Start: 15, Length: 1}, {Start: 18, Length: 2}, {Start: 30, Length: 1}}
	return a, b, want
}

func TestDiffFigure1(t *testing.T) {
	a, b, want := paperRows()
	got, err := Diff(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("Diff = %v, want %v", got, want)
	}
}

func TestAllEngineConstructors(t *testing.T) {
	a, b, want := paperRows()
	for _, e := range []Engine{NewLockstep(), NewChannel(), NewSequential(), NewBus(0), NewBus(1), NewSparse(), NewPacked(), NewPlanner()} {
		res, err := e.XORRow(a, b)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if !res.Row.EqualBits(want) {
			t.Errorf("%s: %v", e.Name(), res.Row)
		}
		if e.Name() == "" {
			t.Error("engine has empty name")
		}
	}
}

func TestEncodeDecode(t *testing.T) {
	bits := []bool{false, true, true, false, true, false, false, true}
	row := Encode(bits)
	if !row.Equal(Row{{Start: 1, Length: 2}, {Start: 4, Length: 1}, {Start: 7, Length: 1}}) {
		t.Fatalf("Encode = %v", row)
	}
	back := Decode(row, len(bits))
	for i := range bits {
		if back[i] != bits[i] {
			t.Fatal("Decode mismatch")
		}
	}
}

func TestBooleanOps(t *testing.T) {
	a := Row{{Start: 0, Length: 4}}
	b := Row{{Start: 2, Length: 4}}
	if !XOR(a, b).Equal(Row{{Start: 0, Length: 2}, {Start: 4, Length: 2}}) {
		t.Error("XOR wrong")
	}
	if !AND(a, b).Equal(Row{{Start: 2, Length: 2}}) {
		t.Error("AND wrong")
	}
	if !OR(a, b).Equal(Row{{Start: 0, Length: 6}}) {
		t.Error("OR wrong")
	}
	if !AndNot(a, b).Equal(Row{{Start: 0, Length: 2}}) {
		t.Error("AndNot wrong")
	}
}

func TestDiffImage(t *testing.T) {
	a, b, want := paperRows()
	imgA := NewImage(32, 3)
	imgB := NewImage(32, 3)
	imgA.SetRow(0, a)
	imgB.SetRow(0, b)
	imgA.SetRow(2, a)
	imgB.SetRow(2, a) // identical row: no difference
	diff, stats, err := DiffImage(imgA, imgB)
	if err != nil {
		t.Fatal(err)
	}
	if !diff.Rows[0].Equal(want) {
		t.Errorf("row 0 = %v", diff.Rows[0])
	}
	if len(diff.Rows[1]) != 0 || len(diff.Rows[2]) != 0 {
		t.Error("expected empty diff rows")
	}
	if stats.RowsDiffering != 1 {
		t.Errorf("RowsDiffering = %d", stats.RowsDiffering)
	}
	if stats.MaxRowIterations == 0 || stats.TotalIterations < stats.MaxRowIterations {
		t.Errorf("stats inconsistent: %+v", stats)
	}
}

func TestDiffImageSizeMismatch(t *testing.T) {
	if _, _, err := DiffImage(NewImage(4, 4), NewImage(5, 4)); err == nil {
		t.Error("size mismatch accepted")
	}
}

func TestDiffImageWithEnginesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	imgA, err := workload.GenerateImage(rng, workload.PaperRow(500, 0.3), 40)
	if err != nil {
		t.Fatal(err)
	}
	imgB := imgA.Clone()
	for y := 0; y < imgB.Height; y += 3 {
		mask, err := workload.ErrorMask(rng, 500, workload.PaperErrors(3))
		if err != nil {
			t.Fatal(err)
		}
		imgB.Rows[y] = XOR(imgB.Rows[y], mask)
	}
	// Lockstep is pinned wherever iteration counts are compared: the
	// default planner's counts depend on which path ran each row.
	base, baseStats, err := DiffImage(imgA, imgB, WithEngine(NewLockstep()))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []Engine{nil, NewChannel(), NewSequential(), NewBus(0)} {
		got, _, err := DiffImage(imgA, imgB, WithEngine(e), WithWorkers(3))
		if err != nil {
			t.Fatalf("%v: %v", e, err)
		}
		if !got.Equal(base) {
			t.Errorf("%v image diff differs", e)
		}
	}
	// Single worker gives identical results to many workers.
	one, oneStats, err := DiffImage(imgA, imgB, WithEngine(NewLockstep()), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if !one.Equal(base) || oneStats.TotalIterations != baseStats.TotalIterations {
		t.Error("worker count changed the result")
	}
}

func TestDiffRejectsInvalid(t *testing.T) {
	bad := Row{{Start: 3, Length: 2}, {Start: 2, Length: 2}}
	if _, err := Diff(bad, nil); err == nil {
		t.Error("invalid row accepted")
	}
}

func TestSimilarityHelpers(t *testing.T) {
	a, b, want := paperRows()
	if RunCountDiff(a, b) != 1 {
		t.Error("RunCountDiff wrong")
	}
	if XORRuns(a, b) != len(want) {
		t.Error("XORRuns wrong")
	}
	if Hamming(a, b) != want.Area() {
		t.Error("Hamming wrong")
	}
}

// countingEngine fails every row and counts how many XORRow calls it
// receives, to observe the error short-circuit.
type countingEngine struct{ calls atomic.Int64 }

func (e *countingEngine) Name() string { return "counting-fail" }

func (e *countingEngine) XORRow(a, b Row) (Result, error) {
	e.calls.Add(1)
	return Result{}, errors.New("boom")
}

func TestDiffImageShortCircuitsOnError(t *testing.T) {
	const height = 4096
	a := NewImage(64, height)
	b := NewImage(64, height)
	eng := &countingEngine{}
	if _, _, err := DiffImage(a, b, WithEngine(eng), WithWorkers(2)); err == nil {
		t.Fatal("failing engine produced no error")
	}
	// Without the short-circuit every one of the 4096 rows reaches
	// the engine; with it only the rows already in flight when the
	// first failure lands do.
	if n := eng.calls.Load(); n >= height/2 {
		t.Errorf("engine saw %d rows after the first failure; distribution not short-circuited", n)
	}
}

// panicEngine panics on every row.
type panicEngine struct{}

func (panicEngine) Name() string { return "panicky" }

func (panicEngine) XORRow(a, b Row) (Result, error) { panic("boom") }

// TestDiffImagePanicEngineFailsRow: a panicking engine fails the diff
// with an error naming the row, on one worker and on several, instead
// of crashing the process from a worker goroutine.
func TestDiffImagePanicEngineFailsRow(t *testing.T) {
	a := NewImage(64, 100)
	for _, workers := range []int{1, 4} {
		_, _, err := DiffImage(a, a, WithEngine(panicEngine{}), WithWorkers(workers))
		if err == nil || err.Error() != "sysrle: row 0: engine panicky panicked: boom" {
			t.Errorf("workers=%d: err = %v, want row 0's panic", workers, err)
		}
	}
}
