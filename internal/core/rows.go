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

// RowsResult is the outcome of XORRows: the canonical difference
// image and each row's engine Iterations and Cells, indexed by row.
type RowsResult struct {
	Image             *rle.Image
	Iterations, Cells []int
}

// Stats sums and maxes the per-row counts.
func (r *RowsResult) Stats() *ImageStats {
	s := &ImageStats{}
	for y, row := range r.Image.Rows {
		s.TotalIterations += r.Iterations[y]
		s.MaxRowIterations = max(s.MaxRowIterations, r.Iterations[y])
		s.TotalCells += r.Cells[y]
		s.MaxRowCells = max(s.MaxRowCells, r.Cells[y])
		if len(row) > 0 {
			s.RowsDiffering++
		}
	}
	return s
}

// XORRows is the one whole-image row loop — the software analogue of
// the paper's one systolic array per scanline. It diffs two equally
// sized images row by row on up to workers row workers, which claim
// RowBand rows at a time from one atomic cursor. Worker w diffs on
// engine(w) into its own scratch row and rle.Arena. Worker 0 runs on
// the caller's goroutine, so one worker starts no goroutine and visits
// rows in order 0…H-1, as the planner's hysteresis expects.
//
// ctx is checked before each row, and its error is returned unwrapped.
// A row whose engine fails or panics (recovered once per worker) stops
// every worker from starting a higher row, and the call fails with
// "row N: …" for the lowest failing row N.
func XORRows(ctx context.Context, a, b *rle.Image, workers int, engine func(w int) Engine) (*RowsResult, error) {
	if a.Width != b.Width || a.Height != b.Height {
		return nil, fmt.Errorf("size mismatch %dx%d vs %dx%d", a.Width, a.Height, b.Width, b.Height)
	}
	n := a.Height
	res := &RowsResult{Image: rle.NewImage(a.Width, n), Iterations: make([]int, n), Cells: make([]int, n)}
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
	fail := func(y int, err error) {
		mu.Lock()
		defer mu.Unlock()
		if int64(y) < lowest.Load() {
			lowest.Store(int64(y))
			rowErr = fmt.Errorf("row %d: %w", y, err)
		}
	}
	done := ctx.Done()
	run := func(w int) {
		eng := engine(w)
		arena := rle.NewArena(0)
		var scratch rle.Row
		y := 0
		defer func() {
			if p := recover(); p != nil {
				fail(y, fmt.Errorf("engine %s panicked: %v", eng.Name(), p))
			}
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
				r, err := XORRowAppend(eng, scratch[:0], a.Rows[y], b.Rows[y])
				if err != nil {
					fail(y, err)
					return
				}
				scratch = r.Row
				res.Image.Rows[y] = arena.Persist(scratch)
				res.Iterations[y], res.Cells[y] = r.Iterations, r.Cells
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
	return res, nil
}
