package core

import (
	"fmt"
	"runtime"

	"sysrle/internal/rle"
	"sysrle/internal/systolic"
)

// Result is the outcome of one systolic (or baseline) row difference.
type Result struct {
	// Row is the computed XOR. Systolic engines return it exactly as
	// gathered from RegSmall left to right: ordered and
	// non-overlapping (Theorem 2) but possibly with adjacent runs —
	// apply Canonicalize for the maximally compressed form, as the
	// paper notes ("an additional pass can be made at the end").
	Row rle.Row
	// Iterations is the number of systolic iterations executed
	// (steps 1–3 by every cell), or the number of merge steps for the
	// sequential baseline. This is the quantity Figure 5 and Table 1
	// report.
	Iterations int
	// Cells is the array size used (0 for the sequential baseline).
	Cells int
}

// Engine computes RLE row differences. Implementations: Lockstep,
// Channel (this package) and the broadcast-bus ablation
// (internal/broadcast).
type Engine interface {
	// Name identifies the engine in reports and benchmarks.
	Name() string
	// XORRow computes the image difference of two valid RLE rows.
	XORRow(a, b rle.Row) (Result, error)
}

// AppendEngine is an Engine with an allocation-free result path:
// XORRowAppend writes the difference after dst's existing runs,
// reusing dst's capacity, and the appended runs are already canonical
// (no separate Canonicalize pass needed). Callers that sweep one
// scratch row over many row pairs — the whole-image loop XORRows —
// go through this interface via the XORRowAppend helper.
type AppendEngine interface {
	Engine
	// XORRowAppend computes the image difference of a and b and
	// appends it, canonical, to dst. The returned Result's Row is the
	// extended dst (reallocated only if capacity ran out).
	XORRowAppend(dst rle.Row, a, b rle.Row) (Result, error)
}

// OneMachine is implemented by engines that are one machine each:
// they carry buffers or routing state from row to row, so concurrent
// row workers must not share one. The method does nothing; it marks
// the type for RowWorkers.
type OneMachine interface {
	Engine
	OneMachine()
}

// RowWorkers sizes the worker pool of a whole-image loop that shares
// engine e across its workers: n workers (GOMAXPROCS when n ≤ 0), no
// more than there are rows, and exactly one when e is a OneMachine.
// It is the single home of that rule; sysrle.DiffImage and
// inspect.Inspector both size their XORRows calls through it. A nil e means
// each worker builds its own engine, so n stands.
func RowWorkers(e Engine, n, rows int) int {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n > rows && rows > 0 {
		n = rows
	}
	if _, ok := e.(OneMachine); ok {
		n = 1
	}
	return n
}

// XORRowAppend runs e's append path when it implements AppendEngine
// and otherwise adapts XORRow, canonicalizing the fresh result into
// dst. Either way the appended runs are canonical.
func XORRowAppend(e Engine, dst rle.Row, a, b rle.Row) (Result, error) {
	if ae, ok := e.(AppendEngine); ok {
		return ae.XORRowAppend(dst, a, b)
	}
	res, err := e.XORRow(a, b)
	if err != nil {
		return Result{}, err
	}
	res.Row = rle.AppendCanonical(dst, res.Row)
	return res, nil
}

// Program returns the paper's cell program in framework form. The
// shifted value is RegBig; a cell is quiet when its RegBig is empty
// (the C output).
func Program() systolic.Program[Cell, Reg] {
	return systolic.Program[Cell, Reg]{
		Local: func(_ int, c *Cell) { c.Local() },
		Extract: func(c *Cell) Reg {
			b := c.Big
			c.Big = Reg{}
			return b
		},
		Inject: func(c *Cell, m Reg) {
			if m.Full {
				c.Big = m
			}
		},
		Quiet: func(c Cell) bool { return !c.Big.Full },
		Empty: func(m Reg) bool { return !m.Full },
	}
}

// BuildCells loads two rows into a fresh array: cell i holds run i of
// the first image in RegSmall and run i of the second image in RegBig
// (paper §3). The array has k1+k2+1 cells: by Corollary 1.2 no run
// ever reaches beyond cell index k1+k2, so the run can never overflow.
func BuildCells(a, b rle.Row) []Cell {
	n := len(a) + len(b) + 1
	cells := make([]Cell, n)
	for i, r := range a {
		cells[i].Small = MakeReg(r.Start, r.End())
	}
	for i, r := range b {
		cells[i].Big = MakeReg(r.Start, r.End())
	}
	return cells
}

// Gather collects the result runs from RegSmall left to right,
// skipping empty cells, and verifies the Theorem-2 ordering before
// returning.
func Gather(cells []Cell) (rle.Row, error) {
	var row rle.Row
	for i, c := range cells {
		if c.Big.Full {
			return nil, fmt.Errorf("core: cell %d still holds a RegBig run %v", i, c.Big)
		}
		if !c.Small.Full {
			continue
		}
		r := rle.Span(c.Small.Start, c.Small.End)
		if len(row) > 0 && row[len(row)-1].End() >= r.Start {
			return nil, fmt.Errorf("core: result not ordered at cell %d: %v after %v", i, r, row[len(row)-1])
		}
		row = append(row, r)
	}
	return row, nil
}

// GatherAppend is Gather writing into dst: it collects the result
// runs left to right, verifies the Theorem-2 ordering, and merges
// adjacent runs as it goes, so the appended segment is canonical —
// the paper's "additional pass at the end" folded into the gather
// itself. Runs already in dst are never merged with.
func GatherAppend(cells []Cell, dst rle.Row) (rle.Row, error) {
	base := len(dst)
	for i := range cells {
		c := &cells[i]
		if c.Big.Full {
			return dst, fmt.Errorf("core: cell %d still holds a RegBig run %v", i, c.Big)
		}
		if !c.Small.Full {
			continue
		}
		if n := len(dst); n > base {
			prev := dst[n-1]
			if prev.End() >= c.Small.Start {
				return dst, fmt.Errorf("core: result not ordered at cell %d: %v after %v",
					i, rle.Span(c.Small.Start, c.Small.End), prev)
			}
			if prev.End()+1 == c.Small.Start {
				dst[n-1].Length = c.Small.End - prev.Start + 1
				continue
			}
		}
		dst = append(dst, rle.Span(c.Small.Start, c.Small.End))
	}
	return dst, nil
}

func validateInputs(a, b rle.Row) error {
	if err := a.Validate(-1); err != nil {
		return fmt.Errorf("first operand: %w", err)
	}
	if err := b.Validate(-1); err != nil {
		return fmt.Errorf("second operand: %w", err)
	}
	return nil
}

// ValidateRowPair checks both operands the way every engine in this
// package does, with the same error wording — exported for engines
// that live outside the package (the hybrid planner).
func ValidateRowPair(a, b rle.Row) error { return validateInputs(a, b) }

// Lockstep is the deterministic array-sweep engine — the reference
// implementation and the one the benchmarks use.
type Lockstep struct {
	// CheckInvariants, when set, verifies the §4 invariants
	// (Corollary 2.1 parts 1–4 after step 2, Theorem 2 and Corollary
	// 1.2 after step 3) at every iteration and fails the run on any
	// violation. Meant for tests; costs O(cells) per iteration.
	CheckInvariants bool
	// Observer, when non-nil, receives per-phase snapshots (used for
	// Figure-3 traces).
	Observer systolic.Observer[Cell]
}

// Name implements Engine.
func (e Lockstep) Name() string { return "systolic-lockstep" }

// XORRow implements Engine.
func (e Lockstep) XORRow(a, b rle.Row) (Result, error) {
	if err := validateInputs(a, b); err != nil {
		return Result{}, err
	}
	cells := BuildCells(a, b)
	k1k2 := len(a) + len(b)
	var invErr error
	observer := e.Observer
	if e.CheckInvariants {
		inner := observer
		observer = func(iter int, phase systolic.Phase, snap []Cell) {
			if inner != nil {
				inner(iter, phase, snap)
			}
			if invErr != nil {
				return
			}
			var err error
			switch phase {
			case systolic.PhaseLocal:
				err = CheckOrderingAfterStep2(snap)
			case systolic.PhaseShift:
				err = CheckEndOfIteration(snap, k1k2)
			}
			if err != nil {
				invErr = fmt.Errorf("iteration %d (%v): %w", iter, phase, err)
			}
		}
	}
	iters, err := systolic.RunLockstep(Program(), cells, systolic.Options[Cell]{Observer: observer})
	if err != nil {
		return Result{}, err
	}
	if invErr != nil {
		return Result{}, invErr
	}
	row, err := Gather(cells)
	if err != nil {
		return Result{}, err
	}
	return Result{Row: row, Iterations: iters, Cells: len(cells)}, nil
}

// XORRowAppend implements AppendEngine. Without observers or
// invariant checking it draws its cell array and shift buffer from a
// package pool, so a warm steady state performs no per-row
// allocations beyond growing dst.
func (e Lockstep) XORRowAppend(dst rle.Row, a, b rle.Row) (Result, error) {
	if e.CheckInvariants || e.Observer != nil {
		// Observed runs take the reference path; the pooled fast path
		// exists for production sweeps, not instrumented ones.
		res, err := e.XORRow(a, b)
		if err != nil {
			return Result{}, err
		}
		res.Row = rle.AppendCanonical(dst, res.Row)
		return res, nil
	}
	if err := validateInputs(a, b); err != nil {
		return Result{}, err
	}
	s := lockstepPool.Get().(*lockstepScratch)
	defer lockstepPool.Put(s)
	cells := s.load(a, b)
	iters, err := systolic.RunLockstepBuffered(Program(), cells, systolic.Options[Cell]{}, &s.buf)
	if err != nil {
		return Result{}, err
	}
	row, err := GatherAppend(cells, dst)
	if err != nil {
		return Result{}, err
	}
	return Result{Row: row, Iterations: iters, Cells: len(cells)}, nil
}

// Channel is the CSP engine: one goroutine per cell, channels for the
// shift path. Semantically identical to Lockstep (property-tested);
// exists to demonstrate the natural concurrent mapping and to
// exercise the algorithm under real asynchrony.
type Channel struct {
	// Observer, when non-nil, receives end-of-iteration snapshots.
	Observer systolic.Observer[Cell]
}

// Name implements Engine.
func (e Channel) Name() string { return "systolic-channel" }

// XORRow implements Engine.
func (e Channel) XORRow(a, b rle.Row) (Result, error) {
	if err := validateInputs(a, b); err != nil {
		return Result{}, err
	}
	cells := BuildCells(a, b)
	iters, err := systolic.RunChannels(Program(), cells, systolic.Options[Cell]{Observer: e.Observer})
	if err != nil {
		return Result{}, err
	}
	row, err := Gather(cells)
	if err != nil {
		return Result{}, err
	}
	return Result{Row: row, Iterations: iters, Cells: len(cells)}, nil
}
