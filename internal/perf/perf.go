// Package perf is the reproducible benchmark harness for the
// zero-allocation hot path: a fixed engine × workload matrix measured
// with testing.Benchmark and emitted as a machine-readable JSON
// report (BENCH_PR6.json at the repository root is one committed
// run; BENCH_PR4.json is the pre-planner baseline). The same matrix
// backs two uses:
//
//   - `benchtab -bench` regenerates the report so numbers in the
//     repository can be reproduced on any machine (`make bench-json`);
//   - the allocation regression gate in perf_test.go pins the
//     *allocation counts*, which unlike wall-clock times are
//     deterministic, so CI fails when the hot path regresses.
//
// The matrix has two axes. The DiffImage rows measure the facade's
// whole-image diff with buffer reuse off ("before": the
// allocate-per-row path) and on ("after": append-path engines,
// per-worker scratch rows, arena-persisted results) over three
// workloads. The XORRow rows measure the per-row append hot path of
// each registry engine on the same workloads.
package perf

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"sysrle"
	"sysrle/internal/core"
	"sysrle/internal/rle"
	"sysrle/internal/workload"
)

// Workload names of the fixed matrix.
//
//   - similar: the paper's regime — a generated board and a scan
//     differing by a few small error runs per row; systolic engines
//     converge in O(run-count difference).
//   - random: two independently generated images — no similarity for
//     the algorithm to exploit.
//   - worst: alternating single-pixel runs, offset by one pixel
//     between the operands — the maximal run count for the width, and
//     the densest result (every pixel differs).
//   - sweep-sparse, sweep-cross, sweep-dense: the density sweep behind
//     the planner's representation crossover — single-pixel runs at a
//     controlled count per row. The endpoints hold every row well
//     below the crossover (16 runs/operand) or at the maximal
//     alternating density (width/2); sweep-cross mixes both in
//     alternating row blocks, the regime where per-row routing beats
//     *either* single representation. The three are the planner
//     acceptance gates (within 10% of the best single engine
//     everywhere, strictly ahead of pure RLE on the dense end).
var Workloads = []string{"similar", "random", "worst", "sweep-sparse", "sweep-cross", "sweep-dense"}

// Options sizes one harness run. The zero value is not runnable; use
// DefaultOptions.
type Options struct {
	// Width and Height size the generated images.
	Width, Height int
	// Seed makes workload generation reproducible.
	Seed int64
	// Engines lists the registry engines measured on the XORRow axis;
	// nil means every registered engine.
	Engines []string
	// Rounds repeats every cell's benchmark and keeps the fastest run
	// (the standard defence against scheduler noise on shared
	// machines); ≤ 1 means a single run. The committed report uses 3.
	Rounds int
}

// DefaultOptions is the committed-report configuration: images large
// enough that per-row costs dominate the fixed per-image overhead,
// each cell the fastest of three runs.
func DefaultOptions() Options {
	return Options{Width: 2000, Height: 64, Seed: 1999, Rounds: 3}
}

// Measurement is one cell of the matrix.
type Measurement struct {
	// Benchmark is the axis: "DiffImage" or "XORRow".
	Benchmark string `json:"benchmark"`
	// Engine is the registry engine name; for DiffImage rows it is
	// "default" (per-worker planners).
	Engine string `json:"engine"`
	// Workload is one of Workloads.
	Workload string `json:"workload"`
	// BufferReuse records which path a DiffImage row measured; XORRow
	// rows always use the append path and report true.
	BufferReuse bool `json:"buffer_reuse"`
	// NsPerOp, BytesPerOp, AllocsPerOp are the standard Go benchmark
	// metrics; Iterations is the N the framework settled on.
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	Iterations  int     `json:"iterations"`
}

// Report is one full harness run.
type Report struct {
	GoVersion string        `json:"go_version"`
	GOOS      string        `json:"goos"`
	GOARCH    string        `json:"goarch"`
	MaxProcs  int           `json:"maxprocs"`
	Width     int           `json:"width"`
	Height    int           `json:"height"`
	Seed      int64         `json:"seed"`
	Results   []Measurement `json:"results"`
}

// Pair is one benchmark input: two images and their middle rows (the
// row-axis operands).
type Pair struct {
	A, B       *rle.Image
	RowA, RowB rle.Row
}

// GeneratePair builds the named workload at the given size,
// deterministically for a seed.
func GeneratePair(name string, width, height int, seed int64) (Pair, error) {
	rng := rand.New(rand.NewSource(seed))
	switch name {
	case "similar":
		a, err := workload.GenerateImage(rng, workload.PaperRow(width, 0.3), height)
		if err != nil {
			return Pair{}, err
		}
		b := a.Clone()
		ep := workload.CountForPixelFraction(width, 0.02, 1, 8)
		for y := 0; y < b.Height; y++ {
			mask, err := workload.ErrorMask(rng, width, ep)
			if err != nil {
				return Pair{}, err
			}
			b.Rows[y] = rle.XOR(b.Rows[y], mask)
		}
		return pairOf(a, b), nil
	case "random":
		a, err := workload.GenerateImage(rng, workload.PaperRow(width, 0.3), height)
		if err != nil {
			return Pair{}, err
		}
		b, err := workload.GenerateImage(rng, workload.PaperRow(width, 0.3), height)
		if err != nil {
			return Pair{}, err
		}
		return pairOf(a, b), nil
	case "worst":
		// Single-pixel runs at every even position in a, every odd
		// position in b: the maximal run count for the width and a
		// result where every pixel differs.
		a := rle.NewImage(width, height)
		b := rle.NewImage(width, height)
		rowA := make(rle.Row, 0, (width+1)/2)
		rowB := make(rle.Row, 0, width/2)
		for x := 0; x < width; x += 2 {
			rowA = append(rowA, rle.Run{Start: x, Length: 1})
		}
		for x := 1; x < width; x += 2 {
			rowB = append(rowB, rle.Run{Start: x, Length: 1})
		}
		for y := 0; y < height; y++ {
			a.Rows[y] = rowA
			b.Rows[y] = rowB
		}
		return pairOf(a, b), nil
	case "sweep-sparse", "sweep-cross", "sweep-dense":
		return sweepPair(name, width, height)
	default:
		return Pair{}, fmt.Errorf("perf: unknown workload %q (have %v)", name, Workloads)
	}
}

// sweepSparseRuns and sweepDenseRuns are the per-operand run counts of
// the density-sweep endpoints for a width: well below any plausible
// crossover, and the maximal alternating density (single-pixel runs,
// one blank column each).
func sweepSparseRuns(width int) int {
	runs := 16
	if max := width / 2; runs > max {
		runs = max
	}
	if runs < 1 {
		runs = 1
	}
	return runs
}

func sweepDenseRuns(width int) int {
	runs := width / 2
	if runs < 1 {
		runs = 1
	}
	return runs
}

// sweepRows builds one operand pair of the density sweep: runs
// single-pixel runs per operand, evenly spaced, with b offset one
// pixel from a so every run lands in the difference.
func sweepRows(width, runs int) (rle.Row, rle.Row) {
	rowA := make(rle.Row, 0, runs)
	rowB := make(rle.Row, 0, runs)
	step := width / runs
	if step < 2 {
		step = 2
	}
	for x := 0; x+1 < width && len(rowA) < runs; x += step {
		rowA = append(rowA, rle.Run{Start: x, Length: 1})
		rowB = append(rowB, rle.Run{Start: x + 1, Length: 1})
	}
	return rowA, rowB
}

func sweepPair(name string, width, height int) (Pair, error) {
	if width < 4 {
		return Pair{}, fmt.Errorf("perf: %s needs width ≥ 4, got %d", name, width)
	}
	sparseA, sparseB := sweepRows(width, sweepSparseRuns(width))
	denseA, denseB := sweepRows(width, sweepDenseRuns(width))
	// sweep-cross alternates sparse and dense blocks of rows — the
	// mixed-density regime where per-row routing beats either single
	// representation. Blocks (not single rows) so the router's
	// hysteresis sees the run-length structure real images have.
	blockSize := height / 8
	if blockSize < 1 {
		blockSize = 1
	}
	a := rle.NewImage(width, height)
	b := rle.NewImage(width, height)
	for y := 0; y < height; y++ {
		rowA, rowB := sparseA, sparseB
		switch name {
		case "sweep-dense":
			rowA, rowB = denseA, denseB
		case "sweep-cross":
			if (y/blockSize)%2 == 1 {
				rowA, rowB = denseA, denseB
			}
		}
		a.Rows[y] = rowA
		b.Rows[y] = rowB
	}
	return pairOf(a, b), nil
}

func pairOf(a, b *rle.Image) Pair {
	mid := a.Height / 2
	return Pair{A: a, B: b, RowA: a.Rows[mid], RowB: b.Rows[mid]}
}

// Run executes the full matrix and returns the report. Wall-clock
// numbers vary by machine; allocation counts are deterministic.
func Run(opts Options) (*Report, error) {
	rep := &Report{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		MaxProcs:  runtime.GOMAXPROCS(0),
		Width:     opts.Width,
		Height:    opts.Height,
		Seed:      opts.Seed,
	}
	engines := opts.Engines
	if engines == nil {
		engines = sysrle.EngineNames()
	}
	for _, wl := range Workloads {
		pair, err := GeneratePair(wl, opts.Width, opts.Height, opts.Seed)
		if err != nil {
			return nil, err
		}
		// DiffImage axis: before (reuse off) and after (reuse on).
		for _, reuse := range []bool{false, true} {
			m, err := fastestOf(opts.Rounds, func() (Measurement, error) {
				return benchDiffImage(pair, wl, reuse)
			})
			if err != nil {
				return nil, err
			}
			rep.Results = append(rep.Results, m)
		}
		// XORRow axis: the per-row append hot path of each engine.
		for _, name := range engines {
			m, err := fastestOf(opts.Rounds, func() (Measurement, error) {
				return benchXORRow(name, pair, wl)
			})
			if err != nil {
				return nil, err
			}
			rep.Results = append(rep.Results, m)
		}
	}
	return rep, nil
}

// fastestOf runs one cell's benchmark rounds times and keeps the run
// with the lowest ns/op. Allocation counts are deterministic, so only
// the wall-clock side of the measurement is affected.
func fastestOf(rounds int, bench func() (Measurement, error)) (Measurement, error) {
	best, err := bench()
	if err != nil {
		return Measurement{}, err
	}
	for r := 1; r < rounds; r++ {
		m, err := bench()
		if err != nil {
			return Measurement{}, err
		}
		if m.NsPerOp < best.NsPerOp {
			best = m
		}
	}
	return best, nil
}

func benchDiffImage(pair Pair, wl string, reuse bool) (Measurement, error) {
	var benchErr error
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := sysrle.DiffImage(pair.A, pair.B,
				sysrle.WithBufferReuse(reuse)); err != nil {
				benchErr = err
				b.FailNow()
			}
		}
	})
	if benchErr != nil {
		return Measurement{}, fmt.Errorf("perf: DiffImage/%s: %w", wl, benchErr)
	}
	return Measurement{
		Benchmark:   "DiffImage",
		Engine:      "default",
		Workload:    wl,
		BufferReuse: reuse,
		NsPerOp:     float64(res.NsPerOp()),
		BytesPerOp:  res.AllocedBytesPerOp(),
		AllocsPerOp: res.AllocsPerOp(),
		Iterations:  res.N,
	}, nil
}

func benchXORRow(engine string, pair Pair, wl string) (Measurement, error) {
	eng, err := sysrle.NewEngineByName(engine)
	if err != nil {
		return Measurement{}, err
	}
	if c, ok := eng.(interface{ Close() }); ok {
		defer c.Close()
	}
	// One op = one row, cycling through the whole image so workloads
	// with per-row structure (similar/random error placement, the
	// sweep-cross density mix) measure their average row, not just the
	// middle one.
	rowsA, rowsB := pair.A.Rows, pair.B.Rows
	var benchErr error
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		var scratch rle.Row
		for i := 0; i < b.N; i++ {
			y := i % len(rowsA)
			r, err := core.XORRowAppend(eng, scratch[:0], rowsA[y], rowsB[y])
			if err != nil {
				benchErr = err
				b.FailNow()
			}
			scratch = r.Row
		}
	})
	if benchErr != nil {
		return Measurement{}, fmt.Errorf("perf: XORRow/%s/%s: %w", engine, wl, benchErr)
	}
	return Measurement{
		Benchmark:   "XORRow",
		Engine:      engine,
		Workload:    wl,
		BufferReuse: true,
		NsPerOp:     float64(res.NsPerOp()),
		BytesPerOp:  res.AllocedBytesPerOp(),
		AllocsPerOp: res.AllocsPerOp(),
		Iterations:  res.N,
	}, nil
}

// Find returns the first measurement matching the axis coordinates,
// or nil.
func (r *Report) Find(benchmark, engine, wl string, reuse bool) *Measurement {
	for i := range r.Results {
		m := &r.Results[i]
		if m.Benchmark == benchmark && m.Engine == engine && m.Workload == wl && m.BufferReuse == reuse {
			return m
		}
	}
	return nil
}
