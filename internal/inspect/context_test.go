package inspect

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sysrle/internal/core"
	"sysrle/internal/rle"
)

// slowEngine sleeps per row, then answers correctly.
type slowEngine struct{ delay time.Duration }

func (slowEngine) Name() string { return "slow" }

func (e slowEngine) XORRow(a, b rle.Row) (core.Result, error) {
	time.Sleep(e.delay)
	return core.Sequential{}.XORRow(a, b)
}

// panicEngine panics on every row.
type panicEngine struct{}

func (panicEngine) Name() string { return "panicky" }

func (panicEngine) XORRow(a, b rle.Row) (core.Result, error) { panic("injected row panic") }

func twoImages(h int) (*rle.Image, *rle.Image) {
	ref := rle.NewImage(32, h)
	scan := rle.NewImage(32, h)
	for y := 0; y < h; y++ {
		ref.Rows[y] = rle.Row{rle.Span(0, 5)}
		scan.Rows[y] = rle.Row{rle.Span(3, 8)}
	}
	return ref, scan
}

func TestCompareContextCanceled(t *testing.T) {
	ref, scan := twoImages(16)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ins := &Inspector{}
	if _, err := ins.CompareContext(ctx, ref, scan); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestCompareContextDeadline(t *testing.T) {
	ref, scan := twoImages(64)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	ins := &Inspector{Engine: slowEngine{delay: 2 * time.Millisecond}, Workers: 1}
	start := time.Now()
	_, err := ins.CompareContext(ctx, ref, scan)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	// 64 rows × 2ms would be 128ms without the deadline; the deadline
	// must cut that far short (cooperatively, so allow a generous pad).
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Errorf("compare ran %v past a 5ms deadline", elapsed)
	}
}

// TestComparePanicEngineFailsComparison is the row-level safety net: a
// panicking engine must fail the comparison with an error, not crash
// the process (the row workers are plain goroutines — an unrecovered
// panic there would be fatal).
func TestComparePanicEngineFailsComparison(t *testing.T) {
	ref, scan := twoImages(8)
	for _, workers := range []int{1, 2, 4} {
		ins := &Inspector{Engine: panicEngine{}, Workers: workers}
		_, err := ins.Compare(ref, scan)
		if err == nil {
			t.Fatalf("workers=%d: panicking engine produced a report", workers)
		}
		if !strings.Contains(err.Error(), "row 0: engine panicky panicked") {
			t.Errorf("workers=%d: err = %v, want a panic error naming row 0", workers, err)
		}
	}
}

// countingEngine fails every row and counts how many XORRow calls it
// receives, to observe the error short-circuit.
type countingEngine struct{ calls atomic.Int64 }

func (e *countingEngine) Name() string { return "counting-fail" }

func (e *countingEngine) XORRow(a, b rle.Row) (core.Result, error) {
	e.calls.Add(1)
	return core.Result{}, errors.New("boom")
}

func TestCompareShortCircuitsOnError(t *testing.T) {
	const height = 4096
	ref, scan := rle.NewImage(64, height), rle.NewImage(64, height)
	eng := &countingEngine{}
	if _, err := (&Inspector{Engine: eng, Workers: 2}).Compare(ref, scan); err == nil {
		t.Fatal("failing engine produced a report")
	}
	// Without the short-circuit every one of the 4096 rows reaches
	// the engine; with it only the rows already in flight when the
	// first failure lands do.
	if n := eng.calls.Load(); n >= height/2 {
		t.Errorf("engine saw %d rows after the first failure; comparison not short-circuited", n)
	}
}

// TestCompareContextBackgroundUnchanged: the plain Compare path (no
// deadline) still works through the context plumbing.
func TestCompareContextBackgroundUnchanged(t *testing.T) {
	ref, scan := twoImages(8)
	ins := &Inspector{}
	rep, err := ins.Compare(ref, scan)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RowsCompared != 8 || rep.DiffArea == 0 {
		t.Errorf("report %+v", rep)
	}
}
