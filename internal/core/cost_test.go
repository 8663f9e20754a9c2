package core

import "testing"

func TestEstimateCost(t *testing.T) {
	c := EstimateCost(10000, 250)
	if c.Cells != 500 {
		t.Errorf("Cells = %d, want 500", c.Cells)
	}
	if c.CoordBits != 14 { // 2^13=8192 < 10000 ≤ 2^14
		t.Errorf("CoordBits = %d, want 14", c.CoordBits)
	}
	if c.UncompressedPEs != 10000 {
		t.Errorf("PEs = %d", c.UncompressedPEs)
	}
	if want := 500 * (4*14 + 2); c.RegisterBits != want {
		t.Errorf("RegisterBits = %d, want %d", c.RegisterBits, want)
	}
	if adv := c.PEAdvantage(); adv != 20 {
		t.Errorf("PEAdvantage = %v, want 20", adv)
	}
}

func TestEstimateCostPowersOfTwo(t *testing.T) {
	if got := EstimateCost(1024, 10).CoordBits; got != 10 {
		t.Errorf("CoordBits(1024) = %d, want 10", got)
	}
	if got := EstimateCost(1025, 10).CoordBits; got != 11 {
		t.Errorf("CoordBits(1025) = %d, want 11", got)
	}
}

func TestEstimateCostDegenerate(t *testing.T) {
	c := EstimateCost(0, 0)
	if c.Cells < 1 || c.CoordBits < 1 || c.UncompressedPEs < 1 {
		t.Errorf("degenerate cost %+v", c)
	}
	c = EstimateCost(100, -5)
	if c.Cells < 1 {
		t.Errorf("negative runs cost %+v", c)
	}
}

func TestCostAdvantageGrowsWithSparsity(t *testing.T) {
	dense := EstimateCost(10000, 2000)
	sparse := EstimateCost(10000, 50)
	if sparse.PEAdvantage() <= dense.PEAdvantage() {
		t.Error("sparser images should need relatively fewer cells")
	}
}

func TestRowCostModelCrossover(t *testing.T) {
	m := DefaultRowCostModel()
	for _, width := range []int{64, 500, 2000, 10000} {
		k := m.CrossoverRuns(width)
		if k <= 0 {
			t.Fatalf("width %d: implausible crossover %d", width, k)
		}
		// At the crossover the packed path prices at or below the
		// merge; one run pair earlier it must not.
		if m.PackedCost(k, 0, width) > m.MergeCost(k, 0) {
			t.Errorf("width %d: packed still pricier at crossover k=%d", width, k)
		}
		if k >= 2 && m.PackedCost(k-2, 0, width) <= m.MergeCost(k-2, 0) {
			t.Errorf("width %d: packed already cheaper below crossover k=%d", width, k)
		}
	}
	// Wider rows move the crossover up: more words to pay for.
	if DefaultRowCostModel().CrossoverRuns(64) >= DefaultRowCostModel().CrossoverRuns(64*64) {
		t.Error("crossover not increasing in width")
	}
	// A model whose packed path never wins reports an effectively
	// infinite crossover.
	never := RowCostModel{MergePerRun: 1, PackedPerRun: 2, PackedPerWord: 1, PackedFixed: 1}
	if never.CrossoverRuns(1000) < 1<<40 {
		t.Error("packed-never model found a crossover")
	}
}

// decide routes one row of run counts k1, k2 and the given width,
// priced by the router's own model.
func decide(r *Router, k1, k2, width int) Route {
	return r.DecidePriced(r.Model.MergeCost(k1, k2), r.Model.PackedCost(k1, k2, width))
}

// costRatio prices one row on m and returns its PriceRatio.
func costRatio(m RowCostModel, k1, k2, width int) float64 {
	return PriceRatio(m.MergeCost(k1, k2), m.PackedCost(k1, k2, width))
}

func TestRouterHysteresis(t *testing.T) {
	m := DefaultRowCostModel()
	width := 2000
	cross := m.CrossoverRuns(width)

	// Without hysteresis the router flaps on alternating run counts
	// straddling the crossover; with it, the incumbent holds.
	lo, hi := cross-4, cross+4
	if lo < 0 {
		t.Fatalf("crossover %d too small for the test", cross)
	}
	flappy := Router{Model: m}
	changes := 0
	prev := decide(&flappy, lo, 0, width)
	for i := 0; i < 20; i++ {
		k := lo
		if i%2 == 1 {
			k = hi
		}
		cur := decide(&flappy, k, 0, width)
		if cur != prev {
			changes++
		}
		prev = cur
	}
	if changes == 0 {
		t.Skip("corridor too narrow to flap; widen lo/hi")
	}
	steady := Router{Model: m, Hysteresis: 0.25}
	changes = 0
	prev = decide(&steady, lo, 0, width)
	for i := 0; i < 20; i++ {
		k := lo
		if i%2 == 1 {
			k = hi
		}
		cur := decide(&steady, k, 0, width)
		if cur != prev {
			changes++
		}
		prev = cur
	}
	if changes != 0 {
		t.Errorf("hysteretic router changed paths %d times inside the corridor", changes)
	}

	// Far from the crossover the hysteretic router still switches.
	r := Router{Model: m, Hysteresis: 0.25}
	if got := decide(&r, 2, 2, width); got != RouteRLE {
		t.Fatalf("sparse row routed %v", got)
	}
	if got := decide(&r, 800, 800, width); got != RoutePacked {
		t.Fatalf("dense row routed %v", got)
	}
	if got := decide(&r, 2, 2, width); got != RouteRLE {
		t.Fatalf("sparse row after dense routed %v", got)
	}
}

// TestRouterCrossoverStability: the decision far from the crossover
// is insensitive to ±25% perturbation of any single constant — the
// property that lets one committed calibration serve many machines.
// (±25% is what the physics allows: the measured dense-end advantage
// of the packed path is ~1.4×, so halving the merge slope genuinely
// should flip a machine to RLE everywhere.)
func TestRouterCrossoverStability(t *testing.T) {
	base := DefaultRowCostModel()
	width := 2000
	perturb := []func(RowCostModel, float64) RowCostModel{
		func(m RowCostModel, f float64) RowCostModel { m.MergePerRun *= f; return m },
		func(m RowCostModel, f float64) RowCostModel { m.PackedPerWord *= f; return m },
		func(m RowCostModel, f float64) RowCostModel { m.PackedPerRun *= f; return m },
		func(m RowCostModel, f float64) RowCostModel { m.PackedFixed *= f; return m },
	}
	for pi, p := range perturb {
		for _, f := range []float64{0.75, 1.25} {
			m := p(base, f)
			r := Router{Model: m}
			if got := decide(&r, 3, 3, width); got != RouteRLE {
				t.Errorf("perturbation %d ×%.1f: sparse row routed %v", pi, f, got)
			}
			r = Router{Model: m}
			if got := decide(&r, 900, 900, width); got != RoutePacked {
				t.Errorf("perturbation %d ×%.1f: dense row routed %v", pi, f, got)
			}
		}
	}
}

func TestCostRatio(t *testing.T) {
	m := DefaultRowCostModel()
	if r := costRatio(m, 0, 0, 64); r != 1 && r >= 1 {
		// Empty rows: merge prices 0, packed prices its fixed cost.
		if r != 0 {
			t.Errorf("empty-row ratio = %v, want 0 (merge free, packed fixed)", r)
		}
	}
	if r := costRatio(m, 1000, 1000, 2000); r <= 1 {
		t.Errorf("dense ratio = %v, want > 1", r)
	}
	if r := costRatio(m, 2, 2, 2000); r >= 1 {
		t.Errorf("sparse ratio = %v, want < 1", r)
	}
	zero := RowCostModel{}
	if r := costRatio(zero, 5, 5, 100); r != 1 {
		t.Errorf("zero-model ratio = %v, want 1", r)
	}
}
