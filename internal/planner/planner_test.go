package planner

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"sysrle/internal/core"
	"sysrle/internal/rle"
	"sysrle/internal/telemetry"
)

// randomFragmentedRow draws a valid row with occasional adjacent
// fragments (non-canonical encodings the paper permits as inputs).
func randomFragmentedRow(rng *rand.Rand, width int) rle.Row {
	var row rle.Row
	x := rng.Intn(3)
	for x < width {
		l := 1 + rng.Intn(7)
		if x+l > width {
			l = width - x
		}
		if l >= 2 && rng.Intn(4) == 0 {
			cut := 1 + rng.Intn(l-1)
			row = append(row, rle.Run{Start: x, Length: cut}, rle.Run{Start: x + cut, Length: l - cut})
		} else {
			row = append(row, rle.Run{Start: x, Length: l})
		}
		x += l + 1 + rng.Intn(5)
	}
	return row
}

// denseRow builds alternating single-pixel runs with the given phase
// — the maximal run count for a width.
func denseRow(width, phase int) rle.Row {
	var row rle.Row
	for x := phase; x < width; x += 2 {
		row = append(row, rle.Run{Start: x, Length: 1})
	}
	return row
}

// TestEnginesMatchSequential: both engines agree bit-for-bit with
// the §2 merge over a random corpus, on both call paths.
func TestEnginesMatchSequential(t *testing.T) {
	engines := []core.AppendEngine{NewPacked(), New()}
	rng := rand.New(rand.NewSource(73))
	for trial := 0; trial < 500; trial++ {
		width := 1 + rng.Intn(300)
		a := randomFragmentedRow(rng, width)
		b := randomFragmentedRow(rng, width)
		want, _ := core.AppendSequentialXOR(nil, a, b)
		for _, eng := range engines {
			res, err := eng.XORRow(a, b)
			if err != nil {
				t.Fatalf("%s: XORRow: %v", eng.Name(), err)
			}
			if !res.Row.EqualBits(want) {
				t.Fatalf("%s: XORRow(%v, %v) = %v, want bits %v", eng.Name(), a, b, res.Row, want)
			}
			prefix := rle.Row{{Start: 0, Length: 2}}
			resApp, err := eng.XORRowAppend(prefix.Clone(), a, b)
			if err != nil {
				t.Fatalf("%s: XORRowAppend: %v", eng.Name(), err)
			}
			if len(resApp.Row) < 1 || resApp.Row[0] != prefix[0] {
				t.Fatalf("%s: prefix disturbed: %v", eng.Name(), resApp.Row)
			}
			appended := resApp.Row[1:]
			if !appended.Canonical() {
				t.Fatalf("%s: appended segment not canonical: %v", eng.Name(), appended)
			}
			if !appended.EqualBits(want) {
				t.Fatalf("%s: appended %v, want bits %v", eng.Name(), appended, want)
			}
		}
	}
}

func TestEnginesValidateInputs(t *testing.T) {
	bad := rle.Row{{Start: 5, Length: 2}, {Start: 4, Length: 1}} // out of order
	for _, eng := range []core.Engine{NewPacked(), New()} {
		if _, err := eng.XORRow(bad, nil); err == nil || !strings.Contains(err.Error(), "first operand") {
			t.Errorf("%s: bad first operand accepted (err=%v)", eng.Name(), err)
		}
		if _, err := eng.XORRow(nil, bad); err == nil || !strings.Contains(err.Error(), "second operand") {
			t.Errorf("%s: bad second operand accepted (err=%v)", eng.Name(), err)
		}
	}
}

func TestEnginesEmptyAndZeroWidth(t *testing.T) {
	for _, eng := range []core.Engine{NewPacked(), New()} {
		res, err := eng.XORRow(nil, nil)
		if err != nil {
			t.Fatalf("%s: empty rows: %v", eng.Name(), err)
		}
		if res.Row.Area() != 0 {
			t.Errorf("%s: E(∅,∅) = %v", eng.Name(), res.Row)
		}
	}
}

// TestPlannerRouting: sparse rows take the RLE path, dense rows the
// packed path, and the counters record every decision.
func TestPlannerRouting(t *testing.T) {
	p := New()
	sparseA := rle.Row{{Start: 3, Length: 5}}
	sparseB := rle.Row{{Start: 1990, Length: 5}}
	if _, err := p.XORRow(sparseA, sparseB); err != nil {
		t.Fatal(err)
	}
	if p.RowsRLE() != 1 || p.RowsPacked() != 0 {
		t.Fatalf("sparse row: rle=%d packed=%d", p.RowsRLE(), p.RowsPacked())
	}
	if _, err := p.XORRow(denseRow(2000, 0), denseRow(2000, 1)); err != nil {
		t.Fatal(err)
	}
	if p.RowsPacked() != 1 {
		t.Fatalf("dense row not routed packed: rle=%d packed=%d", p.RowsRLE(), p.RowsPacked())
	}
}

// TestPlannerHysteresisHoldsNearCrossover: alternating rows just
// around the model's crossover must not flap between paths.
func TestPlannerHysteresisHoldsNearCrossover(t *testing.T) {
	width := 2000
	cross := core.DefaultRowCostModel().CrossoverRuns(width)
	mk := func(runs int) rle.Row {
		var row rle.Row
		for i := 0; i < runs; i++ {
			row = append(row, rle.Run{Start: i * (width / (runs + 1)), Length: 1})
		}
		return row
	}
	lo, hi := mk(cross/2-2), mk(cross/2+2)
	p := New()
	for i := 0; i < 30; i++ {
		a, b := lo, lo
		if i%2 == 1 {
			a, b = hi, hi
		}
		if _, err := p.XORRow(a, b); err != nil {
			t.Fatal(err)
		}
	}
	// All 30 rows must have taken one path (whichever won the first
	// decision) — zero flaps.
	if p.RowsRLE() != 0 && p.RowsPacked() != 0 {
		t.Errorf("planner flapped near the crossover: rle=%d packed=%d", p.RowsRLE(), p.RowsPacked())
	}
}

// TestPlannerTelemetry: decision counters and the crossover
// histogram land in an attached registry.
func TestPlannerTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	p := New(WithMetrics(reg))
	if _, err := p.XORRow(rle.Row{{Start: 0, Length: 3}}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := p.XORRow(denseRow(2000, 0), denseRow(2000, 1)); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter(MetricRowsRLE).Value(); got != 1 {
		t.Errorf("%s = %d, want 1", MetricRowsRLE, got)
	}
	if got := reg.Counter(MetricRowsPacked).Value(); got != 1 {
		t.Errorf("%s = %d, want 1", MetricRowsPacked, got)
	}
	if got := reg.Histogram(MetricCrossoverRatio, CrossoverBuckets).Count(); got != 2 {
		t.Errorf("%s count = %d, want 2", MetricCrossoverRatio, got)
	}
}

// TestPlannerWarmAppendZeroAllocs pins the append contract on both
// routes: once the word buffers and destination are warm, neither
// path allocates.
func TestPlannerWarmAppendZeroAllocs(t *testing.T) {
	cases := []struct {
		name string
		a, b rle.Row
	}{
		{"rle-route", rle.Row{{Start: 3, Length: 5}, {Start: 100, Length: 4}}, rle.Row{{Start: 50, Length: 7}}},
		{"packed-route", denseRow(2000, 0), denseRow(2000, 1)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := New()
			var scratch rle.Row
			warm := func() {
				res, err := p.XORRowAppend(scratch[:0], tc.a, tc.b)
				if err != nil {
					t.Fatal(err)
				}
				scratch = res.Row
			}
			warm()
			if n := testing.AllocsPerRun(20, warm); n != 0 {
				t.Errorf("%v allocs/op on the warm append path, want 0", n)
			}
		})
	}
}

// TestPlannerPublishOnce: core.XORRows publishes a planner's routing
// tallies once, after the image, not per row. A sink that reads the
// registry at every row sees the value from before the image, and the
// call returns with both row counters up by exactly H in total and
// the crossover histogram up by H observations — on one worker, and
// on two workers with one planner each.
func TestPlannerPublishOnce(t *testing.T) {
	const width, height = 2000, 96
	rng := rand.New(rand.NewSource(5))
	a, b := rle.NewImage(width, height), rle.NewImage(width, height)
	for y := 0; y < height; y++ {
		if y%32 < 16 { // sparse and dense bands exercise both routes
			a.Rows[y], b.Rows[y] = randomFragmentedRow(rng, width)[:3], randomFragmentedRow(rng, width)[:2]
		} else {
			a.Rows[y], b.Rows[y] = denseRow(width, 0), denseRow(width, 1)
		}
	}
	for _, workers := range []int{1, 2} {
		reg := telemetry.NewRegistry()
		rows := func() int64 {
			return reg.Counter(MetricRowsRLE).Value() + reg.Counter(MetricRowsPacked).Value()
		}
		ratio := reg.Histogram(MetricCrossoverRatio, CrossoverBuckets)
		// One row through XORRow first: it publishes at once, so the
		// image starts from a non-zero published value.
		warm := New(WithMetrics(reg))
		if _, err := warm.XORRow(a.Rows[0], b.Rows[0]); err != nil {
			t.Fatal(err)
		}
		if got := rows(); got != 1 || ratio.Count() != 1 {
			t.Fatalf("XORRow published %d rows, %d ratios; want 1, 1", got, ratio.Count())
		}
		engines := []*Planner{warm, New(WithMetrics(reg))}
		before := rows()
		_, err := core.XORRows(context.Background(), a, b, workers, func(w int) core.Engine { return engines[w] },
			func(int) func(int, rle.Row) {
				return func(y int, _ rle.Row) {
					if got := rows(); workers == 1 && got != before {
						t.Errorf("row %d: registry at %d rows mid-image, want %d", y, got, before)
					}
				}
			})
		if err != nil {
			t.Fatal(err)
		}
		if got := rows(); got != before+height {
			t.Errorf("%d workers: rows counters rose by %d, want %d", workers, got-before, height)
		}
		if got := ratio.Count(); got != 1+height {
			t.Errorf("%d workers: %s count rose by %d, want %d", workers, MetricCrossoverRatio, got-1, height)
		}
		if workers > 1 {
			continue
		}
		if warm.RowsPacked() == 0 || warm.RowsRLE() == 0 {
			t.Errorf("image routed %d rows packed, %d to the merge; want both", warm.RowsPacked(), warm.RowsRLE())
		}
		// The merged bands are the ones observing each row would fill.
		wantReg := telemetry.NewRegistry()
		observed := wantReg.Histogram(MetricCrossoverRatio, CrossoverBuckets)
		model := core.DefaultRowCostModel()
		for i := -1; i < height; i++ { // row 0 twice: XORRow, then the image
			y := max(i, 0)
			k1, k2 := len(a.Rows[y]), len(b.Rows[y])
			observed.Observe(core.PriceRatio(model.MergeCost(k1, k2), model.PackedCost(k1, k2, packWidth(a.Rows[y], b.Rows[y]))))
		}
		if got, want := bucketLines(t, reg), bucketLines(t, wantReg); got != want {
			t.Errorf("crossover bands after the image:\n%s\nwant, as observed row by row:\n%s", got, want)
		}
	}
}

// bucketLines renders reg's crossover-ratio bucket lines.
func bucketLines(t *testing.T, reg *telemetry.Registry) string {
	t.Helper()
	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, MetricCrossoverRatio+"_bucket") {
			lines = append(lines, line)
		}
	}
	return strings.Join(lines, "\n")
}
