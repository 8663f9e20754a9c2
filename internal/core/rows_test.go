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

	"sysrle/internal/refstore"
	"sysrle/internal/rle"
)

// TestXORRowsMatchesSequentialPass: for every worker count and every
// height around the band size, the rows and the summed and maxed
// counts equal one in-order pass of the same engine.
func TestXORRowsMatchesSequentialPass(t *testing.T) {
	rng := rand.New(rand.NewSource(1401))
	for _, h := range []int{0, 1, 31, 32, 33, 100, 1025} {
		a := randomTestImage(rng, 120, h)
		b := randomTestImage(rng, 120, h)
		want := rle.NewImage(a.Width, h)
		var wantStats ImageStats
		for y := 0; y < h; y++ {
			r, err := XORRowAppend(Lockstep{}, nil, a.Rows[y], b.Rows[y])
			if err != nil {
				t.Fatal(err)
			}
			want.Rows[y] = r.Row
			wantStats.add(ImageStats{r.Iterations, r.Iterations, r.Cells, r.Cells, min(len(r.Row), 1)})
		}
		for _, workers := range []int{1, 2, 3, 8, h + 5} {
			var built atomic.Int64
			got := rle.NewImage(a.Width, h)
			stats, err := XORRows(context.Background(), a, b, workers, func(int) Engine {
				built.Add(1)
				return Lockstep{}
			}, PersistRows(got))
			if err != nil {
				t.Fatalf("h=%d workers=%d: %v", h, workers, err)
			}
			if !got.Equal(want) {
				t.Errorf("h=%d workers=%d: rows differ from the sequential pass", h, workers)
			}
			if *stats != wantStats {
				t.Errorf("h=%d workers=%d: stats %+v, want %+v", h, workers, *stats, wantStats)
			}
			if n := built.Load(); n < 1 || n > int64(max(workers, 1)) {
				t.Errorf("h=%d workers=%d: %d engines built", h, workers, n)
			}
		}
	}
}

// discard is a sink that drops every row.
func discard(int) func(int, rle.Row) { return func(int, rle.Row) {} }

// TestXORRowsDecoderSource: an RLEB stream decoded row by row as the
// loop consumes it gives the rows and counts of the decoded image,
// and a malformed row fails the loop naming that row.
func TestXORRowsDecoderSource(t *testing.T) {
	rng := rand.New(rand.NewSource(1402))
	a := randomTestImage(rng, 200, 90)
	b := randomTestImage(rng, 200, 90)
	want := rle.NewImage(a.Width, a.Height)
	wantStats, err := XORRows(context.Background(), a, b, 1, func(int) Engine { return Sequential{} }, PersistRows(want))
	if err != nil {
		t.Fatal(err)
	}
	data := rle.AppendBinary(nil, b)
	dec, err := rle.NewRowDecoder(data)
	if err != nil {
		t.Fatal(err)
	}
	var rows []int
	got := rle.NewImage(a.Width, a.Height)
	stats, err := XORRows(context.Background(), a, dec, 1, func(int) Engine { return Sequential{} }, func(w int) func(int, rle.Row) {
		persist := PersistRows(got)(w)
		return func(y int, row rle.Row) { rows = append(rows, y); persist(y, row) }
	})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) || *stats != *wantStats {
		t.Errorf("decoder source: stats %+v, want %+v; images equal %v", *stats, *wantStats, got.Equal(want))
	}
	for y, r := range rows {
		if r != y {
			t.Fatalf("sink call %d got row %d; rows out of order", y, r)
		}
	}
	// Truncate the stream inside row 40: rows 0…39 decode, row 40 fails.
	prefix := rle.AppendBinary(nil, &rle.Image{Width: b.Width, Height: b.Height, Rows: b.Rows[:40]})
	dec, err = rle.NewRowDecoder(append(prefix, 0xff))
	if err == nil {
		_, err = XORRows(context.Background(), a, dec, 1, func(int) Engine { return Sequential{} }, discard)
	}
	if err == nil || !strings.HasPrefix(err.Error(), "row 40: rle: row 40") {
		t.Errorf("truncated stream: err = %v, want row 40's decode error", err)
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
	if _, err := XORRows(context.Background(), a, rle.NewImage(a.Width, h), 1, func(int) Engine { return eng }, discard); err != nil {
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
		_, err := XORRows(ctx, a, rle.NewImage(a.Width, h), workers, func(int) Engine { return eng }, discard)
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
			_, err := XORRows(context.Background(), a, rle.NewImage(a.Width, h), workers, func(int) Engine { return eng }, discard)
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

// TestXORRowsPanicBecomesRowError: a panicking engine, or a malformed
// image (fewer rows than its height) panicking inside the row loop
// under a real engine, fails the call naming the row instead of
// crashing the process.
func TestXORRowsPanicBecomesRowError(t *testing.T) {
	a := rowImage(64)
	short := &rle.Image{Width: a.Width, Height: a.Height, Rows: a.Rows[:5]}
	for _, tc := range []struct {
		name string
		b    *rle.Image
		eng  Engine
		want string
	}{
		{"engine-panics", a, panicEngine{}, "row 0: engine panicky panicked: boom"},
		{"short-image", short, Lockstep{}, "row 5: engine systolic-lockstep panicked: "},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, workers := range []int{1, 4} {
				_, err := XORRows(context.Background(), a, tc.b, workers, func(int) Engine { return tc.eng }, discard)
				if err == nil || !strings.HasPrefix(err.Error(), tc.want) {
					t.Errorf("%s, workers=%d: err = %v, want %q…", tc.eng.Name(), workers, err, tc.want)
				}
			}
		})
	}
}

// entryCounter is a ValidAppendEngine counting which entry XORRows
// takes.
type entryCounter struct {
	Sequential
	checked, unchecked int
}

func (e *entryCounter) XORRowAppend(dst, a, b rle.Row) (Result, error) {
	e.checked++
	return e.Sequential.XORRowAppend(dst, a, b)
}

func (e *entryCounter) XORRowAppendValid(dst, a, b rle.Row) (Result, error) {
	e.unchecked++
	return e.Sequential.XORRowAppendValid(dst, a, b)
}

// TestXORRowsTrustsOnlyValidSources: the unchecked entry is taken only
// when both operands are ValidSources — the RLEB decoder and a stored
// reference — and never for a caller's *rle.Image.
func TestXORRowsTrustsOnlyValidSources(t *testing.T) {
	img := randomTestImage(rand.New(rand.NewSource(1403)), 64, 5)
	decoder := func() RowSource {
		d, err := rle.NewRowDecoder(rle.AppendBinary(nil, img))
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	stored := refstore.New(refstore.Config{})
	meta, err := stored.Put(img)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := stored.Source(meta.ID)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		a, b      RowSource
		unchecked bool
	}{
		{"decoder ⊕ decoder", decoder(), decoder(), true},
		{"stored ⊕ decoder", ref, decoder(), true},
		{"stored ⊕ image", ref, img, false},
		{"image ⊕ decoder", img, decoder(), false},
		{"image ⊕ image", img, img, false},
	} {
		e := &entryCounter{}
		discard := func(int) func(int, rle.Row) { return func(int, rle.Row) {} }
		if _, err := XORRows(context.Background(), c.a, c.b, 1, func(int) Engine { return e }, discard); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := e.unchecked == img.Height && e.checked == 0; got != c.unchecked || e.checked+e.unchecked != img.Height {
			t.Errorf("%s: %d checked, %d unchecked rows; want unchecked=%v", c.name, e.checked, e.unchecked, c.unchecked)
		}
	}
}
