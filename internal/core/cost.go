package core

import (
	"math"
	"math/bits"
)

// Hardware resource model. The paper's conclusion contrasts the
// systolic array against the trivially parallel uncompressed
// approach: "a parallel solution ... can easily be performed on
// uncompressed data in constant time if the number of processors
// available is proportional to the number of pixels in the images;
// [this method] has the advantage of using a smaller number of
// processors, and it does not require the time to convert the image
// between RLE format and bitmap mode." Cost quantifies that claim
// from the §3 cell architecture (two registers of two coordinates
// each, plus comparator/min/max logic).

// Cost estimates the silicon budget of one row engine.
type Cost struct {
	// Cells is the array length (the paper's 2k).
	Cells int
	// CoordBits is the width of one coordinate: ⌈log₂ rowWidth⌉.
	CoordBits int
	// RegisterBits is the total register storage: 2 registers × 2
	// coordinates × CoordBits per cell, plus 2 valid bits.
	RegisterBits int
	// UncompressedPEs is the processing-element count of the
	// constant-time bitmap alternative: one per pixel.
	UncompressedPEs int
}

// EstimateCost sizes the array for rows of the given width holding at
// most maxRuns runs per operand.
func EstimateCost(width, maxRuns int) Cost {
	if width < 1 {
		width = 1
	}
	if maxRuns < 0 {
		maxRuns = 0
	}
	coordBits := bits.Len(uint(width - 1))
	if coordBits == 0 {
		coordBits = 1
	}
	cells := 2 * maxRuns
	if cells == 0 {
		cells = 1
	}
	return Cost{
		Cells:           cells,
		CoordBits:       coordBits,
		RegisterBits:    cells * (4*coordBits + 2),
		UncompressedPEs: width,
	}
}

// PEAdvantage is the paper's headline resource ratio: pixels per
// systolic cell.
func (c Cost) PEAdvantage() float64 {
	return float64(c.UncompressedPEs) / float64(c.Cells)
}

// ---------------------------------------------------------------------------
// Per-row runtime cost model.
//
// The silicon model above quantifies the paper's hardware claim; this
// model quantifies its *runtime* concession (§6): the merge cost of
// the compressed-domain engines tracks the run counts of the
// operands, while a word-packed XOR tracks the row area — so on dense
// or dissimilar rows the packed path wins. Both run counts are known
// before any work is done (they are the operand lengths), which is
// exactly what makes a per-row representation router possible: the
// planner engine prices both paths from (k1, k2, width) alone and
// routes each row to the cheaper one.

// RowCostModel prices one row difference on both representations, in
// nanoseconds. The constants are calibrated on the software engines —
// `benchtab -calibrate` re-measures them on the current machine (see
// EXPERIMENTS.md, "Reproducing the crossover") — and only their
// ratios matter for routing, so the defaults transfer across similar
// 64-bit hardware.
type RowCostModel struct {
	// MergePerRun is the sequential §2 merge cost per input run: the
	// merge executes Θ(k1+k2) steps regardless of similarity.
	MergePerRun float64
	// PackedPerWord is the pack → XOR → repack cost per 64-pixel word:
	// three word-granular passes (zero+paint, xor, rescan).
	PackedPerWord float64
	// PackedPerRun is the packed path's per-input-run cost: painting
	// one run into the word buffer (and its share of emitting output
	// runs, which Theorem 1 bounds by the input run count).
	PackedPerRun float64
	// PackedFixed is the packed path's per-row intercept: genuine
	// fixed overhead (buffer sizing, width derivation) plus whatever
	// the linear per-run term cannot express — see the
	// DefaultRowCostModel comment on effective fits.
	PackedFixed float64
}

// DefaultRowCostModel is the committed calibration (`benchtab
// -calibrate` on the reference container plus a measured density scan
// of the two real paths, constants rounded; see EXPERIMENTS.md,
// "Reproducing the crossover"). It places the width-2000 crossover at
// ~250 total input runs, matching where the measured sequential-merge
// and packed-path curves actually intersect on the density sweep. The
// routing decision is insensitive to ±25% perturbations of any one
// constant except right at the crossover, where both paths cost the
// same anyway — see TestRouterCrossoverStability.
//
// The constants are an *effective* linear fit, not microarchitectural
// truths: the packed path's measured per-run cost falls at full
// density (the repack scan's branches become predictable), which a
// linear model cannot express, so PackedFixed soaks up the difference.
// The fit is chosen to reproduce the measured routing boundaries —
// RLE below the crossover, packed at the dense end with enough
// modelled margin (~1.4×) to clear the switching hysteresis — rather
// than to predict absolute nanoseconds.
func DefaultRowCostModel() RowCostModel {
	return RowCostModel{
		MergePerRun:   8.0,
		PackedPerWord: 2.2,
		PackedPerRun:  5.5,
		PackedFixed:   550.0,
	}
}

// MergeCost prices the RLE merge path for operand run counts k1, k2.
func (m RowCostModel) MergeCost(k1, k2 int) float64 {
	return m.MergePerRun * float64(k1+k2)
}

// PackedCost prices the pack → word-XOR → repack path for operand run
// counts k1, k2 on a row of the given width.
func (m RowCostModel) PackedCost(k1, k2, width int) float64 {
	words := (width + 63) / 64
	return m.PackedFixed + m.PackedPerWord*float64(words) + m.PackedPerRun*float64(k1+k2)
}

// CrossoverRuns returns the smallest total input run count k1+k2 at
// which the packed path prices at or below the merge path for the
// given width — the model's crossover point, the quantity the
// density-sweep benchmark makes visible.
func (m RowCostModel) CrossoverRuns(width int) int {
	perRun := m.MergePerRun - m.PackedPerRun
	if perRun <= 0 {
		return int(^uint(0) >> 1) // packed never catches up
	}
	words := (width + 63) / 64
	fixed := m.PackedFixed + m.PackedPerWord*float64(words)
	k := int(fixed/perRun) + 1
	if k < 0 {
		k = 0
	}
	return k
}

// Route is a per-row representation decision.
type Route uint8

const (
	// RouteRLE diffs the row with the compressed-domain merge.
	RouteRLE Route = iota
	// RoutePacked diffs the row via pack → 64-bit word XOR → repack.
	RoutePacked
)

func (r Route) String() string {
	if r == RoutePacked {
		return "packed"
	}
	return "rle"
}

// Router applies a RowCostModel per row with hysteresis: once a path
// is chosen, switching requires the other path to price at least
// Hysteresis (a fraction, e.g. 0.25 = 25%) cheaper. Adjacent rows of
// real images have strongly correlated run counts, so rows near the
// crossover would otherwise flap between representations on noise —
// costing the packed path its warm word buffers and branch
// predictability for no modelled gain. Not safe for concurrent use;
// one Router per engine.
type Router struct {
	// Model prices the two paths; the zero Model routes everything to
	// RLE (both paths price 0 and hysteresis keeps the incumbent).
	Model RowCostModel
	// Hysteresis is the fractional price advantage required to switch
	// paths. 0 disables hysteresis; negative values are treated as 0.
	Hysteresis float64

	last    Route
	decided bool
}

// DecidePriced routes one row already priced by Model, updating the
// hysteresis state: merge and packed are the row's MergeCost and
// PackedCost. The caller prices the row once, for the route and for
// anything else that needs the prices (the planner's crossover
// histogram takes their PriceRatio).
func (r *Router) DecidePriced(merge, packed float64) Route {
	h := r.Hysteresis
	if h < 0 {
		h = 0
	}
	next := r.last
	switch {
	case !r.decided:
		// First row: no incumbent, take the cheaper path outright.
		if packed < merge {
			next = RoutePacked
		} else {
			next = RouteRLE
		}
	case r.last == RouteRLE:
		if packed*(1+h) < merge {
			next = RoutePacked
		}
	default: // RoutePacked incumbent
		if merge*(1+h) < packed {
			next = RouteRLE
		}
	}
	r.last, r.decided = next, true
	return next
}

// PriceRatio returns merge price / packed price for one row — the
// quantity the planner's crossover histogram observes (> 1 means the
// model favours the packed path). Rows where both paths price zero
// report 1 (indifferent).
func PriceRatio(merge, packed float64) float64 {
	if packed <= 0 {
		if merge <= 0 {
			return 1
		}
		return math.Inf(1)
	}
	return merge / packed
}
