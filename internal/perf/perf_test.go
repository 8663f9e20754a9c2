package perf

import (
	"encoding/json"
	"testing"

	"sysrle"
	"sysrle/internal/core"
	"sysrle/internal/planner"
	"sysrle/internal/rle"
)

// The allocation regression gate. Wall-clock benchmarks are too noisy
// to gate CI on, but allocation counts are deterministic: these tests
// pin the zero-allocation hot path with testing.AllocsPerRun and fail
// on any regression. CI runs them in the perf-smoke job.

func TestGeneratePairWorkloads(t *testing.T) {
	for _, wl := range Workloads {
		pair, err := GeneratePair(wl, 400, 16, 7)
		if err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
		if pair.A.Width != 400 || pair.A.Height != 16 || pair.B.Width != 400 {
			t.Errorf("%s: wrong dimensions", wl)
		}
		if len(pair.RowA) == 0 || len(pair.RowB) == 0 {
			t.Errorf("%s: empty benchmark rows", wl)
		}
		// Determinism: the same seed generates the same pair.
		again, err := GeneratePair(wl, 400, 16, 7)
		if err != nil {
			t.Fatal(err)
		}
		if !pair.A.Equal(again.A) || !pair.B.Equal(again.B) {
			t.Errorf("%s: generation not deterministic", wl)
		}
	}
	if _, err := GeneratePair("quantum", 400, 16, 7); err == nil {
		t.Error("unknown workload accepted")
	}
}

// TestDiffImageAllocReduction is the tentpole gate: on the similar-
// images workload the buffer-reuse path must allocate at most half of
// what the allocate-per-row path does. The committed BENCH_PR6.json
// numbers come from the same matrix.
func TestDiffImageAllocReduction(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are nondeterministic under -race (sync.Pool drops)")
	}
	pair, err := GeneratePair("similar", 1000, 64, 1999)
	if err != nil {
		t.Fatal(err)
	}
	measure := func(reuse bool) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, _, err := sysrle.DiffImage(pair.A, pair.B,
				sysrle.WithWorkers(2),
				sysrle.WithBufferReuse(reuse)); err != nil {
				t.Fatal(err)
			}
		})
	}
	before := measure(false)
	after := measure(true)
	t.Logf("DiffImage similar: %.0f allocs/op without reuse, %.0f with", before, after)
	if after > before/2 {
		t.Errorf("buffer reuse saves too little: %.0f → %.0f allocs/op (need ≥50%% reduction)", before, after)
	}
}

// TestXORRowAppendSteadyStateZeroAllocs pins the per-row hot path:
// once the scratch row and pooled cell buffers are warm, the
// shareable engines complete a row without allocating at all.
func TestXORRowAppendSteadyStateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are nondeterministic under -race (sync.Pool drops)")
	}
	pair, err := GeneratePair("similar", 1000, 8, 1999)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"lockstep", "sequential", "sparse"} {
		eng, err := sysrle.NewEngineByName(name)
		if err != nil {
			t.Fatal(err)
		}
		var scratch rle.Row
		warm := func() {
			r, err := core.XORRowAppend(eng, scratch[:0], pair.RowA, pair.RowB)
			if err != nil {
				t.Fatal(err)
			}
			scratch = r.Row
		}
		warm()
		if n := testing.AllocsPerRun(20, warm); n != 0 {
			t.Errorf("%s: %v allocs/op on the warm append path, want 0", name, n)
		}
	}
}

func TestRunSmallMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark matrix in -short mode")
	}
	opts := Options{Width: 200, Height: 8, Seed: 7, Engines: []string{"lockstep", "sequential"}}
	rep, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	// 3 workloads × (2 DiffImage paths + 2 engines).
	if want := len(Workloads) * 4; len(rep.Results) != want {
		t.Fatalf("got %d measurements, want %d", len(rep.Results), want)
	}
	for _, m := range rep.Results {
		if m.NsPerOp <= 0 || m.Iterations <= 0 {
			t.Errorf("%s/%s/%s: implausible measurement %+v", m.Benchmark, m.Engine, m.Workload, m)
		}
	}
	if rep.Find("DiffImage", "default", "similar", true) == nil {
		t.Error("Find missed the headline cell")
	}
	if rep.Find("DiffImage", "default", "nope", true) != nil {
		t.Error("Find invented a cell")
	}
	// The report must round-trip as JSON — it is the file format of
	// BENCH_PR6.json.
	blob, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Results) != len(rep.Results) || back.GoVersion != rep.GoVersion {
		t.Error("JSON round trip lost data")
	}
}

// TestPlannerSweepZeroAllocs extends the warm-append gate to the
// hybrid planner across the whole density sweep: whichever path the
// router picks, a warm planner must not allocate.
func TestPlannerSweepZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are nondeterministic under -race (sync.Pool drops)")
	}
	for _, wl := range []string{"sweep-sparse", "sweep-cross", "sweep-dense"} {
		pair, err := GeneratePair(wl, 1000, 8, 1999)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := sysrle.NewEngineByName("planner")
		if err != nil {
			t.Fatal(err)
		}
		// A full row pass per round so sweep-cross exercises both
		// routes (and the hysteresis switches between them) warm.
		var scratch rle.Row
		warm := func() {
			for y := range pair.A.Rows {
				r, err := core.XORRowAppend(eng, scratch[:0], pair.A.Rows[y], pair.B.Rows[y])
				if err != nil {
					t.Fatal(err)
				}
				scratch = r.Row
			}
		}
		warm()
		if n := testing.AllocsPerRun(20, warm); n != 0 {
			t.Errorf("%s: %v allocs/pass on the warm planner append path, want 0", wl, n)
		}
	}
}

// TestPlannerSmokeCompetitive is the planner acceptance gate: on every
// density-sweep workload the hybrid must price within 10% of the best
// single engine, and on the dense endpoint and the mixed sweep it must
// strictly beat the pure-RLE merge (that is the whole point of
// routing). Wall-clock gates are retried a few times so one scheduler
// hiccup doesn't fail CI; each attempt already takes the minimum of
// repeated timings, over a full in-order row pass so hysteresis runs
// in its production regime. The three engines' repetitions are
// interleaved, so load from other processes (go test runs packages
// side by side) slows them alike instead of skewing the ratio.
func TestPlannerSmokeCompetitive(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock gate in -short mode")
	}
	if raceEnabled {
		t.Skip("wall-clock comparisons are meaningless under -race")
	}
	const width, height, attempts = 2000, 16, 4
	// measure returns ns/row for planner, sequential and packed.
	measure := func(pair Pair) (float64, float64, float64) {
		var passes []func()
		for _, name := range []string{"planner", "sequential", "packed"} {
			eng, err := sysrle.NewEngineByName(name)
			if err != nil {
				t.Fatal(err)
			}
			passes = append(passes, rowPass(eng, pair.A.Rows, pair.B.Rows))
		}
		ns := bestNsEach(passes...)
		return ns[0] / height, ns[1] / height, ns[2] / height
	}
	for _, wl := range []string{"sweep-sparse", "sweep-cross", "sweep-dense"} {
		pair, err := GeneratePair(wl, width, height, 1999)
		if err != nil {
			t.Fatal(err)
		}
		var planner, seq, packed float64
		ok := false
		for try := 0; try < attempts && !ok; try++ {
			planner, seq, packed = measure(pair)
			best := seq
			if packed < best {
				best = packed
			}
			ok = planner <= best*1.10
			if wl != "sweep-sparse" {
				ok = ok && planner < seq
			}
		}
		t.Logf("%s: planner %.0f ns/row, sequential %.0f, packed %.0f", wl, planner, seq, packed)
		if !ok {
			t.Errorf("%s: planner %.0f ns/row not within 10%% of best single engine (sequential %.0f, packed %.0f)",
				wl, planner, seq, packed)
		}
	}
}

// TestDiffImageSchedulingOverhead is the row-loop gate: on a 1024²
// paper-similar pair, DiffImage on one shared planner — how the server
// diffs — must run within 1.25× of a bare XORRowAppend loop over the
// same rows on the same engine kind. What separates the two is the
// row loop's scheduling (one worker, run inline) plus persisting the
// output rows; a hand-off per row roughly doubles it.
func TestDiffImageSchedulingOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock gate in -short mode")
	}
	if raceEnabled {
		t.Skip("wall-clock comparisons are meaningless under -race")
	}
	const size, attempts = 1024, 4
	pair, err := GeneratePair("similar", size, size, 2029)
	if err != nil {
		t.Fatal(err)
	}
	shared := planner.New()
	var diff, bare float64
	ok := false
	for try := 0; try < attempts && !ok; try++ {
		diff = bestNs(func() {
			if _, _, err := sysrle.DiffImage(pair.A, pair.B, sysrle.WithEngine(shared)); err != nil {
				panic(err) // operands are internally generated and valid
			}
		}) / size
		bare = measureRowsNs(planner.New(), pair.A.Rows, pair.B.Rows)
		ok = diff <= bare*1.25
	}
	t.Logf("shared-planner DiffImage %.0f ns/row, bare XORRowAppend loop %.0f ns/row (%.2f×)", diff, bare, diff/bare)
	if !ok {
		t.Errorf("DiffImage %.0f ns/row is over 1.25× the bare row loop's %.0f ns/row", diff, bare)
	}
}

// TestCalibrateRowCost sanity-checks the fit: the constants must come
// out non-negative with a positive merge slope, and the fitted model
// must still place a finite crossover (the merge path has to lose
// eventually on this hardware, or the planner is pointless).
func TestCalibrateRowCost(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration benchmarks in -short mode")
	}
	if _, err := CalibrateRowCost(10); err == nil {
		t.Error("degenerate width accepted")
	}
	// The slopes of the two paths are close on any machine, so one
	// noisy run can fail to find a crossover; retry a few times and
	// demand at least one plausible fit.
	const attempts = 3
	ok := false
	var m core.RowCostModel
	for try := 0; try < attempts && !ok; try++ {
		var err error
		m, err = CalibrateRowCost(2048)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("calibrated: %+v (crossover at width 2048: %d total runs)", m, m.CrossoverRuns(2048))
		if m.MergePerRun <= 0 {
			t.Fatalf("MergePerRun = %v, want > 0", m.MergePerRun)
		}
		if m.PackedPerWord < 0 || m.PackedPerRun < 0 || m.PackedFixed < 0 {
			t.Fatalf("negative packed constants: %+v", m)
		}
		cross := m.CrossoverRuns(2048)
		ok = cross > 0 && cross <= 2048
	}
	if !ok {
		t.Errorf("no attempt found a plausible width-2048 crossover: %+v", m)
	}
}
