package core

import (
	"fmt"

	"sysrle/internal/rle"
	"sysrle/internal/systolic"
)

// Sparse is a lockstep-equivalent engine whose simulation cost is
// proportional to the work the machine actually does, not to the
// array length: only cells holding a moving (RegBig) run can change
// during an iteration — a cell without one no-ops both step 1 (there
// is nothing to move down) and step 2 (nothing to XOR) — so the
// simulator keeps the sorted list of active cells and advances just
// those. Iteration counts, final states and results are identical to
// Lockstep (property-tested); on similar images the wall-clock drops
// from O(cells × iterations) to roughly O(moving runs × iterations).
type Sparse struct{}

// Name implements Engine.
func (Sparse) Name() string { return "systolic-sparse" }

// XORRow implements Engine.
func (Sparse) XORRow(a, b rle.Row) (Result, error) {
	if err := ValidateRowPair(a, b); err != nil {
		return Result{}, err
	}
	cells := BuildCells(a, b)
	iters, err := runSparse(cells, nil)
	if err != nil {
		return Result{}, err
	}
	row, err := Gather(cells)
	if err != nil {
		return Result{}, err
	}
	return Result{Row: row, Iterations: iters, Cells: len(cells)}, nil
}

// XORRowAppend implements AppendEngine, drawing the cell array and
// the active-cell lists from a package pool.
func (Sparse) XORRowAppend(dst rle.Row, a, b rle.Row) (Result, error) {
	if err := ValidateRowPair(a, b); err != nil {
		return Result{}, err
	}
	s := sparsePool.Get().(*sparseScratch)
	defer sparsePool.Put(s)
	cells := s.load(a, b)
	iters, err := runSparse(cells, s)
	if err != nil {
		return Result{}, err
	}
	row, err := GatherAppend(cells, dst)
	if err != nil {
		return Result{}, err
	}
	return Result{Row: row, Iterations: iters, Cells: len(cells)}, nil
}

// runSparse executes the machine to quiescence, mutating cells, and
// returns the iteration count (identical to RunLockstep's). A non-nil
// scratch donates (and keeps) the active-index lists.
func runSparse(cells []Cell, s *sparseScratch) (int, error) {
	// Active cells: indices holding a RegBig run, ascending.
	var active, next []int
	if s != nil {
		active, next = s.active[:0], s.next[:0]
		defer func() { s.active, s.next = active, next }()
	} else {
		active = make([]int, 0, len(cells))
	}
	for i := range cells {
		if cells[i].Big.Full {
			active = append(active, i)
		}
	}
	if len(active) == 0 {
		return 0, nil
	}
	maxIter := systolic.DefaultMaxIterations(len(cells))
	if next == nil {
		next = make([]int, 0, len(active))
	}
	for iter := 1; iter <= maxIter; iter++ {
		// Compute phase on active cells only.
		for _, i := range active {
			cells[i].Local()
		}
		// Shift phase: surviving RegBig runs move one cell right.
		// Processing right-to-left keeps a run from being moved
		// twice and preserves the simultaneous-shift semantics
		// (destination cells' RegBig is empty in lockstep because
		// every cell extracts before any injects; right-to-left
		// order guarantees the destination was already vacated).
		next = next[:0]
		for k := len(active) - 1; k >= 0; k-- {
			i := active[k]
			if !cells[i].Big.Full {
				continue
			}
			if i+1 >= len(cells) {
				return iter, fmt.Errorf("core: %w (iteration %d)", systolic.ErrOverflow, iter)
			}
			cells[i+1].Big = cells[i].Big
			cells[i].Big = Reg{}
			next = append(next, i+1)
		}
		if len(next) == 0 {
			return iter, nil
		}
		// next was built right-to-left: reverse into active.
		active = active[:0]
		for k := len(next) - 1; k >= 0; k-- {
			active = append(active, next[k])
		}
	}
	return maxIter, fmt.Errorf("core: %w (%d)", systolic.ErrMaxIterations, maxIter)
}
