package core

import (
	"fmt"

	"sysrle/internal/rle"
)

// ChannelArray models the deployed hardware more faithfully than the
// per-call Channel engine: a *fixed-size* array of cells, each a
// long-lived goroutine, through which row pair after row pair is
// streamed — load registers, iterate to quiescence, unload, repeat —
// without tearing the machine down between rows. A row pair that
// needs more cells than the array has fails with ErrTooWide, exactly
// as a physical array would.
//
// Not safe for concurrent use (it is one machine); run several arrays
// for row-level parallelism.
type ChannelArray struct {
	n       int
	cmds    []chan arrayCmd
	right   []chan Reg
	feed    chan Reg
	reports chan arrayReport
	closed  bool
	// snap is the cell-state snapshot buffer, reused across rows (the
	// array is one machine, so calls are serial by contract).
	snap []Cell
}

// ErrTooWide reports a row pair exceeding the array's capacity.
var ErrTooWide = fmt.Errorf("core: input exceeds array capacity")

// CheckCells fails with ErrTooWide when the row pair a, b needs more
// than cells cells: the paper's array for it has k1+k2+1 (BuildCells).
func CheckCells(a, b rle.Row, cells int) error {
	if need := len(a) + len(b) + 1; need > cells {
		return fmt.Errorf("%w: need %d cells, have %d", ErrTooWide, need, cells)
	}
	return nil
}

type arrayOp int

const (
	opLoad arrayOp = iota // install a fresh cell state
	opStep                // run one iteration (local + shift)
	opRead                // report current state
	opStop                // terminate the goroutine
)

type arrayCmd struct {
	op    arrayOp
	state Cell
}

type arrayReport struct {
	idx  int
	cell Cell
}

// NewChannelArray builds an array of the given capacity (cells) and
// starts its goroutines. Callers must Close it when done.
func NewChannelArray(cells int) *ChannelArray {
	if cells < 1 {
		cells = 1
	}
	a := &ChannelArray{
		n:       cells,
		cmds:    make([]chan arrayCmd, cells),
		right:   make([]chan Reg, cells),
		feed:    make(chan Reg, 1),
		reports: make(chan arrayReport, cells),
	}
	for i := range a.cmds {
		a.cmds[i] = make(chan arrayCmd)
		a.right[i] = make(chan Reg, 1)
	}
	for i := 0; i < cells; i++ {
		go a.cell(i)
	}
	return a
}

// cell is the persistent per-cell goroutine.
func (a *ChannelArray) cell(i int) {
	var left <-chan Reg
	if i == 0 {
		left = a.feed
	} else {
		left = a.right[i-1]
	}
	var s Cell
	for cmd := range a.cmds[i] {
		switch cmd.op {
		case opLoad:
			s = cmd.state
		case opStep:
			s.Local()
			out := s.Big
			s.Big = Reg{}
			a.right[i] <- out
			if in := <-left; in.Full {
				s.Big = in
			}
			a.reports <- arrayReport{idx: i, cell: s}
		case opRead:
			a.reports <- arrayReport{idx: i, cell: s}
		case opStop:
			return
		}
	}
}

// Capacity returns the number of cells.
func (a *ChannelArray) Capacity() int { return a.n }

// Name implements Engine.
func (a *ChannelArray) Name() string {
	return fmt.Sprintf("systolic-array/%d", a.n)
}

// OneMachine implements OneMachine: the cells are the array's only
// copy of the hardware.
func (a *ChannelArray) OneMachine() {}

// broadcast sends one command to every cell.
func (a *ChannelArray) broadcast(c arrayCmd) {
	for i := 0; i < a.n; i++ {
		a.cmds[i] <- c
	}
}

// XORRow implements Engine on the fixed array.
func (a *ChannelArray) XORRow(rowA, rowB rle.Row) (Result, error) {
	iterations, err := a.runRow(rowA, rowB)
	if err != nil {
		return Result{}, err
	}
	row, err := Gather(a.snap)
	if err != nil {
		return Result{}, err
	}
	return Result{Row: row, Iterations: iterations, Cells: a.n}, nil
}

// XORRowAppend implements AppendEngine on the fixed array.
func (a *ChannelArray) XORRowAppend(dst rle.Row, rowA, rowB rle.Row) (Result, error) {
	iterations, err := a.runRow(rowA, rowB)
	if err != nil {
		return Result{}, err
	}
	row, err := GatherAppend(a.snap, dst)
	if err != nil {
		return Result{}, err
	}
	return Result{Row: row, Iterations: iterations, Cells: a.n}, nil
}

// runRow streams one row pair through the machine, leaving the final
// cell states in a.snap, and returns the iteration count.
func (a *ChannelArray) runRow(rowA, rowB rle.Row) (int, error) {
	if a.closed {
		return 0, fmt.Errorf("core: array is closed")
	}
	if err := ValidateRowPair(rowA, rowB); err != nil {
		return 0, err
	}
	if err := CheckCells(rowA, rowB, a.n); err != nil {
		return 0, err
	}
	// Load phase.
	for i := 0; i < a.n; i++ {
		var c Cell
		if i < len(rowA) {
			c.Small = MakeReg(rowA[i].Start, rowA[i].End())
		}
		if i < len(rowB) {
			c.Big = MakeReg(rowB[i].Start, rowB[i].End())
		}
		a.cmds[i] <- arrayCmd{op: opLoad, state: c}
	}
	if a.snap == nil {
		a.snap = make([]Cell, a.n)
	}
	snapshot := a.snap
	collect := func() {
		for i := 0; i < a.n; i++ {
			r := <-a.reports
			snapshot[r.idx] = r.cell
		}
	}
	quiet := func() bool {
		for _, c := range snapshot {
			if c.Big.Full {
				return false
			}
		}
		return true
	}
	// The B operand may be empty: check quiescence before stepping.
	iterations := 0
	if len(rowB) > 0 {
		maxIter := 16*a.n + 64
		for {
			a.feed <- Reg{}
			a.broadcast(arrayCmd{op: opStep})
			collect()
			if out := <-a.right[a.n-1]; out.Full {
				return 0, fmt.Errorf("core: %v", errOverflowArray)
			}
			iterations++
			if quiet() {
				break
			}
			if iterations >= maxIter {
				return 0, fmt.Errorf("core: array failed to converge in %d iterations", maxIter)
			}
		}
	} else {
		a.broadcast(arrayCmd{op: opRead})
		collect()
	}
	return iterations, nil
}

var errOverflowArray = fmt.Errorf("non-empty run shifted out of the fixed array (capacity exceeded mid-run)")

// Close terminates the cell goroutines. The array cannot be reused
// afterwards.
func (a *ChannelArray) Close() {
	if a.closed {
		return
	}
	a.closed = true
	a.broadcast(arrayCmd{op: opStop})
	for i := range a.cmds {
		close(a.cmds[i])
	}
}
