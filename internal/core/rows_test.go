package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"sysrle/internal/rle"
)

// TestXORRowsMatchesSequentialPass: for every worker count and every
// height around the band size, the rows and per-row counts equal one
// in-order pass of the same engine.
func TestXORRowsMatchesSequentialPass(t *testing.T) {
	rng := rand.New(rand.NewSource(1401))
	for _, h := range []int{0, 1, 31, 32, 33, 100, 1025} {
		a := randomTestImage(rng, 120, h)
		b := randomTestImage(rng, 120, h)
		want := rle.NewImage(a.Width, h)
		wantIters, wantCells := make([]int, h), make([]int, h)
		for y := 0; y < h; y++ {
			r, err := XORRowAppend(Lockstep{}, nil, a.Rows[y], b.Rows[y])
			if err != nil {
				t.Fatal(err)
			}
			want.Rows[y], wantIters[y], wantCells[y] = r.Row, r.Iterations, r.Cells
		}
		for _, workers := range []int{1, 2, 3, 8, h + 5} {
			var built atomic.Int64
			got, err := XORRows(context.Background(), a, b, workers, func(int) Engine {
				built.Add(1)
				return Lockstep{}
			})
			if err != nil {
				t.Fatalf("h=%d workers=%d: %v", h, workers, err)
			}
			if !got.Image.Equal(want) {
				t.Errorf("h=%d workers=%d: rows differ from the sequential pass", h, workers)
			}
			for y := 0; y < h; y++ {
				if got.Iterations[y] != wantIters[y] || got.Cells[y] != wantCells[y] {
					t.Errorf("h=%d workers=%d row %d: iterations/cells %d/%d, want %d/%d",
						h, workers, y, got.Iterations[y], got.Cells[y], wantIters[y], wantCells[y])
					break
				}
			}
			if n := built.Load(); n < 1 || n > int64(max(workers, 1)) {
				t.Errorf("h=%d workers=%d: %d engines built", h, workers, n)
			}
		}
	}
}

// goid is the current goroutine's id, from its stack header.
func goid() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return string(bytes.Fields(buf)[1])
}

// orderEngine records which goroutine ran each row and in what order.
// It is not safe for concurrent use, like a OneMachine engine.
type orderEngine struct {
	rows []int
	gids map[string]bool
}

func (*orderEngine) Name() string { return "order" }

func (e *orderEngine) XORRow(a, b rle.Row) (Result, error) {
	e.rows = append(e.rows, a[0].Start)
	e.gids[goid()] = true
	return Sequential{}.XORRow(a, b)
}

// rowImage tags row y with a one-pixel run at x = y, so engines can
// tell rows apart.
func rowImage(h int) *rle.Image {
	img := rle.NewImage(h+1, h)
	for y := range img.Rows {
		img.Rows[y] = rle.Row{{Start: y, Length: 1}}
	}
	return img
}

// TestXORRowsOneWorkerInlineInOrder: one worker runs on the caller's
// goroutine and visits rows 0…H-1 in order.
func TestXORRowsOneWorkerInlineInOrder(t *testing.T) {
	const h = 100
	a := rowImage(h)
	eng := &orderEngine{gids: map[string]bool{}}
	if _, err := XORRows(context.Background(), a, rle.NewImage(a.Width, h), 1, func(int) Engine { return eng }); err != nil {
		t.Fatal(err)
	}
	for y, got := range eng.rows {
		if got != y {
			t.Fatalf("visit %d was row %d; rows out of order", y, got)
		}
	}
	if len(eng.rows) != h {
		t.Fatalf("%d rows visited, want %d", len(eng.rows), h)
	}
	if me := goid(); len(eng.gids) != 1 || !eng.gids[me] {
		t.Errorf("rows ran on goroutines %v, want only the caller's %s", eng.gids, me)
	}
}

// cancelEngine cancels its context when it reaches row at, and counts
// the rows it sees.
type cancelEngine struct {
	at     int
	cancel context.CancelFunc
	calls  atomic.Int64
}

func (*cancelEngine) Name() string { return "cancel" }

func (e *cancelEngine) XORRow(a, b rle.Row) (Result, error) {
	e.calls.Add(1)
	if a[0].Start == e.at {
		e.cancel()
	}
	return Sequential{}.XORRow(a, b)
}

func TestXORRowsCancelMidImage(t *testing.T) {
	const h = 1025
	a := rowImage(h)
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		eng := &cancelEngine{at: 200, cancel: cancel}
		_, err := XORRows(ctx, a, rle.NewImage(a.Width, h), workers, func(int) Engine { return eng })
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if n := eng.calls.Load(); n >= h {
			t.Errorf("workers=%d: engine saw %d of %d rows after the cancel", workers, n, h)
		}
	}
}

// failEngine fails the rows in bad, each with an error naming it, and
// counts every row it sees.
type failEngine struct {
	bad   map[int]bool
	calls atomic.Int64
}

func (*failEngine) Name() string { return "fail" }

func (e *failEngine) XORRow(a, b rle.Row) (Result, error) {
	e.calls.Add(1)
	if y := a[0].Start; e.bad[y] {
		return Result{}, fmt.Errorf("bad row %d", y)
	}
	return Sequential{}.XORRow(a, b)
}

// TestXORRowsReportsLowestFailingRow: whatever the scheduling, the
// error names the lowest failing row, and the failure stops the rest.
func TestXORRowsReportsLowestFailingRow(t *testing.T) {
	const h = 4096
	a := rowImage(h)
	for _, workers := range []int{1, 2, 4, 8} {
		for try := 0; try < 5; try++ {
			eng := &failEngine{bad: map[int]bool{700: true, 301: true, 1000: true, 3000: true}}
			_, err := XORRows(context.Background(), a, rle.NewImage(a.Width, h), workers, func(int) Engine { return eng })
			if err == nil || err.Error() != "row 301: bad row 301" {
				t.Fatalf("workers=%d: err = %v, want row 301's", workers, err)
			}
			if n := eng.calls.Load(); n >= h/2 {
				t.Errorf("workers=%d: engine saw %d rows; the failure did not stop the image", workers, n)
			}
		}
	}
}

// panicEngine panics on every row.
type panicEngine struct{}

func (panicEngine) Name() string { return "panicky" }

func (panicEngine) XORRow(a, b rle.Row) (Result, error) { panic("boom") }

func TestXORRowsPanicBecomesRowError(t *testing.T) {
	a := rowImage(64)
	for _, workers := range []int{1, 4} {
		_, err := XORRows(context.Background(), a, a, workers, func(int) Engine { return panicEngine{} })
		if err == nil || err.Error() != "row 0: engine panicky panicked: boom" {
			t.Errorf("workers=%d: err = %v, want row 0's panic", workers, err)
		}
	}
}

// TestArrayPoolPanicBecomesRowError: a malformed image (fewer rows
// than its height) panics inside the row loop; the pool must report
// the row instead of crashing the process.
func TestArrayPoolPanicBecomesRowError(t *testing.T) {
	for _, n := range []int{1, 4} {
		pool := NewArrayPool(n, 16)
		a := rowImage(8)
		short := &rle.Image{Width: a.Width, Height: a.Height, Rows: a.Rows[:5]}
		_, _, err := pool.XORImage(a, short)
		pool.Close()
		if err == nil || !strings.Contains(err.Error(), "row 5:") || !strings.Contains(err.Error(), "panicked") {
			t.Errorf("%d arrays: err = %v, want a panic naming row 5", n, err)
		}
	}
}
