package perf

import (
	"fmt"
	"time"

	"sysrle"
	"sysrle/internal/core"
	"sysrle/internal/rle"
)

// Calibration of core.RowCostModel. The router only needs cost
// *ratios*, so the constants are fitted from four wall-clock
// measurements of the two real paths on sweep-style rows:
//
//	MergePerRun   = slope of the sequential merge over total run count
//	PackedPerRun  = slope of the packed path over total run count
//	                (fixed width, so the word term cancels)
//	PackedPerWord = slope of the packed path over word count
//	                (fixed run count, so the run term cancels)
//	PackedFixed   = packed intercept once both slopes are removed
//
// Each point is the minimum of several timed repetitions — the
// standard defence against scheduler noise; the minimum estimates the
// uncontended cost, which is what the ratios should compare.

// CalibrateRowCost measures the sequential merge and the packed-word
// XOR on the current machine and fits a RowCostModel for rows around
// the given width. `benchtab -calibrate` prints the result in a form
// that can be pasted into core.DefaultRowCostModel (see
// EXPERIMENTS.md, "Reproducing the crossover").
func CalibrateRowCost(width int) (core.RowCostModel, error) {
	if width < 256 {
		return core.RowCostModel{}, fmt.Errorf("perf: calibration needs width ≥ 256, got %d", width)
	}
	seq, err := sysrle.NewEngineByName("sequential")
	if err != nil {
		return core.RowCostModel{}, err
	}
	packed, err := sysrle.NewEngineByName("packed")
	if err != nil {
		return core.RowCostModel{}, err
	}
	// The high point is the maximal alternating density — the regime
	// the packed path exists for — so the fitted slope is anchored
	// where routing it matters; the low point sits deep in merge
	// territory. The 16× spread keeps slope noise small.
	rLo, rHi := width/32, width/2
	aLo, bLo := sweepRows(width, rLo)
	aHi, bHi := sweepRows(width, rHi)
	// The same run count at four times the width isolates the word
	// slope. sweepRows spaces runs over the full width, so the wide
	// rows exercise the same paint count over 4× the words.
	aWide, bWide := sweepRows(4*width, rLo)

	mergeLo := measureRowNs(seq, aLo, bLo)
	mergeHi := measureRowNs(seq, aHi, bHi)
	packLo := measureRowNs(packed, aLo, bLo)
	packHi := measureRowNs(packed, aHi, bHi)
	packWide := measureRowNs(packed, aWide, bWide)

	dRuns := float64(2 * (len(aHi) - len(aLo))) // total runs = 2 × per-operand
	words := func(w int) float64 { return float64((w + 63) / 64) }
	m := core.RowCostModel{
		MergePerRun:   (mergeHi - mergeLo) / dRuns,
		PackedPerRun:  (packHi - packLo) / dRuns,
		PackedPerWord: (packWide - packLo) / (words(4*width) - words(width)),
	}
	m.PackedFixed = packLo - m.PackedPerWord*words(width) - m.PackedPerRun*float64(2*len(aLo))
	// Clamp pathological fits (a negative constant can only come from
	// measurement noise) so the model always prices both paths ≥ 0.
	for _, p := range []*float64{&m.MergePerRun, &m.PackedPerRun, &m.PackedPerWord, &m.PackedFixed} {
		if *p < 0 {
			*p = 0
		}
	}
	return m, nil
}

// measureRowNs times one warm append-path row diff: minimum of nine
// repetitions, each long enough to amortise timer granularity and
// scheduler preemptions.
func measureRowNs(eng core.Engine, a, b rle.Row) float64 {
	return measureRowsNs(eng, []rle.Row{a}, []rle.Row{b})
}

// measureRowsNs times a warm in-order pass over a row set, returning
// ns per row — the multi-row form keeps routing state (the planner's
// hysteresis) in its production regime.
func measureRowsNs(eng core.Engine, rowsA, rowsB []rle.Row) float64 {
	return bestNs(rowPass(eng, rowsA, rowsB)) / float64(len(rowsA))
}

// rowPass returns one in-order append-path pass of eng over a row set.
func rowPass(eng core.Engine, rowsA, rowsB []rle.Row) func() {
	var scratch rle.Row
	return func() {
		for y := range rowsA {
			r, err := core.XORRowAppend(eng, scratch[:0], rowsA[y], rowsB[y])
			if err != nil {
				panic(err) // operands are internally generated and valid
			}
			scratch = r.Row
		}
	}
}

// bestNs times one warm call of once: minimum of nine repetitions,
// each long enough to amortise timer granularity and scheduler
// preemptions.
func bestNs(once func()) float64 {
	return bestNsEach(once)[0]
}

// bestNsEach is bestNs for several calls, their repetitions
// interleaved: load from other processes then falls on every call
// alike, so a comparison between them holds up under it.
func bestNsEach(calls ...func()) []float64 {
	iters := make([]int, len(calls))
	for i, once := range calls {
		once() // warm buffers
		// Grow the batch until one repetition takes ≥ 1ms.
		iters[i] = 1
		for timeBatch(once, iters[i]) < time.Millisecond {
			iters[i] *= 4
		}
	}
	best := make([]float64, len(calls))
	for rep := 0; rep < 9; rep++ {
		for i, once := range calls {
			ns := float64(timeBatch(once, iters[i]).Nanoseconds()) / float64(iters[i])
			if rep == 0 || ns < best[i] {
				best[i] = ns
			}
		}
	}
	return best
}

// timeBatch times n calls of once.
func timeBatch(once func(), n int) time.Duration {
	start := time.Now()
	for i := 0; i < n; i++ {
		once()
	}
	return time.Since(start)
}
