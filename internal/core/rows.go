package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"sysrle/internal/rle"
)

// RowBand is how many consecutive rows a row worker claims at once:
// enough to make the claim, one atomic add, noise next to the rows'
// engine time. Images too short to give every worker a full band are
// split evenly instead.
const RowBand = 32

// ImageStats aggregates the per-row engine counts of a whole-image
// difference.
type ImageStats struct {
	TotalIterations, MaxRowIterations int
	TotalCells, MaxRowCells           int
	RowsDiffering                     int
}

// add folds o into s: sums stay sums and maxima stay maxima.
func (s *ImageStats) add(o ImageStats) {
	s.TotalIterations += o.TotalIterations
	s.MaxRowIterations = max(s.MaxRowIterations, o.MaxRowIterations)
	s.TotalCells += o.TotalCells
	s.MaxRowCells = max(s.MaxRowCells, o.MaxRowCells)
	s.RowsDiffering += o.RowsDiffering
}

// RowSource serves the rows of one XORRows operand. An *rle.Image
// serves any row; an *rle.RowDecoder serves only the next one, in
// order, so it needs a one-worker loop.
type RowSource interface {
	Size() (width, height int)
	// ReadRow returns row y, possibly appended to dst. An error is the
	// source's own, for example a malformed encoded row.
	ReadRow(y int, dst rle.Row) (rle.Row, error)
}

// PersistRows returns an XORRows sink that copies every row into img,
// through one rle.Arena per worker.
func PersistRows(img *rle.Image) func(w int) func(y int, row rle.Row) {
	return func(int) func(int, rle.Row) {
		arena := rle.NewArena(0)
		return func(y int, row rle.Row) { img.Rows[y] = arena.Persist(row) }
	}
}

// XORRows is the one whole-image row loop — the software analogue of
// the paper's one systolic array per scanline. It diffs two equally
// sized row sources row by row on up to workers row workers, which
// claim RowBand rows at a time from one atomic cursor. Worker w diffs
// on engine(w) into its own scratch row and hands each finished row
// y to sink(w); the row is that scratch, valid only during the call.
// Worker 0 runs on the caller's goroutine, so one worker starts no
// goroutine and visits rows in order 0…H-1, as the planner's
// hysteresis, a sequential source such as rle.RowDecoder and an
// order-dependent sink all require. XORRows returns the engine counts
// summed and maxed over every row. A worker whose engine is a Flusher
// flushes it once, after its last row, so the engine's telemetry is
// published before XORRows returns.
//
// When both sources are ValidSources and engine(w) is a
// ValidAppendEngine, rows go through its unchecked entry: the sources
// already checked them. Otherwise every row pair is validated.
//
// ctx is checked before each row, and its error is returned unwrapped.
// A row whose source or engine fails or panics (recovered once per
// worker) stops every worker from starting a higher row, and the call
// fails with "row N: …" for the lowest failing row N.
func XORRows(ctx context.Context, a, b RowSource, workers int, engine func(w int) Engine, sink func(w int) func(y int, row rle.Row)) (*ImageStats, error) {
	aw, n := a.Size()
	if bw, bh := b.Size(); aw != bw || n != bh {
		return nil, fmt.Errorf("size mismatch %dx%d vs %dx%d", aw, n, bw, bh)
	}
	workers = max(min(workers, n), 1)
	band := max(min(RowBand, (n+workers-1)/workers), 1)
	var cursor atomic.Int64
	// Rows above the lowest failure so far are not worth computing;
	// rows below it still are, so which failure is reported does not
	// depend on scheduling.
	var lowest atomic.Int64
	lowest.Store(int64(n))
	var mu sync.Mutex
	var rowErr error
	stats := &ImageStats{}
	fail := func(y int, err error) {
		mu.Lock()
		defer mu.Unlock()
		if int64(y) < lowest.Load() {
			lowest.Store(int64(y))
			rowErr = fmt.Errorf("row %d: %w", y, err)
		}
	}
	_, validA := a.(ValidSource)
	_, validB := b.(ValidSource)
	done := ctx.Done()
	run := func(w int) {
		eng, emit := engine(w), sink(w)
		var valid ValidAppendEngine
		if validA && validB {
			valid, _ = eng.(ValidAppendEngine)
		}
		var scratch, ra, rb rle.Row
		var st ImageStats
		y := 0
		defer func() {
			if p := recover(); p != nil {
				fail(y, fmt.Errorf("engine %s panicked: %v", eng.Name(), p))
			}
			if f, ok := eng.(Flusher); ok {
				f.Flush()
			}
			mu.Lock()
			defer mu.Unlock()
			stats.add(st)
		}()
		for end := 0; end < n; {
			start := int(cursor.Add(int64(band))) - band
			end = min(start+band, n)
			for y = start; y < end; y++ {
				select {
				case <-done:
					return
				default:
				}
				if int64(y) > lowest.Load() {
					return
				}
				var r Result
				var err error
				if ra, err = a.ReadRow(y, ra[:0]); err == nil {
					if rb, err = b.ReadRow(y, rb[:0]); err == nil && valid != nil {
						r, err = valid.XORRowAppendValid(scratch[:0], ra, rb)
					} else if err == nil {
						r, err = XORRowAppend(eng, scratch[:0], ra, rb)
					}
				}
				if err != nil {
					fail(y, err)
					return
				}
				scratch = r.Row
				emit(y, scratch)
				st.add(ImageStats{r.Iterations, r.Iterations, r.Cells, r.Cells, min(len(scratch), 1)})
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(w)
		}()
	}
	run(0)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if rowErr != nil {
		return nil, rowErr
	}
	return stats, nil
}
