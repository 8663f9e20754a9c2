package sysrle

// testing.B benchmarks, one per paper table/figure, plus wall-clock
// engine comparisons. The iteration-count reproduction itself (the
// quantities the paper's evaluation reports) lives in
// internal/experiments and cmd/benchtab; here each benchmark both
// measures wall time of the corresponding workload and reports the
// algorithmic iteration count as a custom metric (sys-iters/op), so
// `go test -bench .` regenerates the evaluation's shape in one run.

import (
	"fmt"
	"math/rand"
	"testing"

	"sysrle/internal/bitmap"
	"sysrle/internal/broadcast"
	"sysrle/internal/core"
	"sysrle/internal/experiments"
	"sysrle/internal/inspect"
	"sysrle/internal/rle"
	"sysrle/internal/workload"
)

// pairsFor pre-generates workload pairs so generation cost stays out
// of the measured loop.
func pairsFor(b *testing.B, width int, density float64, ep workload.ErrorParams, n int, seed int64) []workload.Pair {
	b.Helper()
	rng := rand.New(rand.NewSource(seed))
	pairs := make([]workload.Pair, n)
	for i := range pairs {
		p, err := workload.GeneratePair(rng, workload.PaperRow(width, density), ep)
		if err != nil {
			b.Fatal(err)
		}
		pairs[i] = p
	}
	return pairs
}

// benchEngine measures one engine over a pool of pairs and reports
// the mean systolic iteration count alongside wall time.
func benchEngine(b *testing.B, e core.Engine, pairs []workload.Pair) {
	b.Helper()
	b.ReportAllocs()
	var iters int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		res, err := e.XORRow(p.A, p.B)
		if err != nil {
			b.Fatal(err)
		}
		iters += int64(res.Iterations)
	}
	b.ReportMetric(float64(iters)/float64(b.N), "sys-iters/op")
}

// BenchmarkTable1 regenerates Table 1: systolic vs. sequential across
// image sizes, for ≈3.5% errors and for a fixed 6 error runs of 4
// pixels.
func BenchmarkTable1(b *testing.B) {
	engines := []core.Engine{core.Lockstep{}, core.Sequential{}}
	for _, size := range experiments.Table1Sizes {
		models := []struct {
			name string
			ep   workload.ErrorParams
		}{
			{"3.5pct", workload.CountForPixelFraction(size, 0.035, 2, 6)},
			{"6runs", workload.ErrorParams{Count: 6, MinLen: 4, MaxLen: 4}},
		}
		for _, m := range models {
			pairs := pairsFor(b, size, 0.30, m.ep, 32, int64(size))
			for _, e := range engines {
				b.Run(fmt.Sprintf("%s/errors=%s/size=%d", e.Name(), m.name, size), func(b *testing.B) {
					benchEngine(b, e, pairs)
				})
			}
		}
	}
}

// BenchmarkFigure5 regenerates the Figure 5 sweep: systolic cost as a
// function of the fraction of differing pixels on 10,000-pixel rows.
func BenchmarkFigure5(b *testing.B) {
	for _, pct := range []float64{0, 5, 10, 20, 30, 40, 55, 70} {
		ep := workload.CountForPixelFraction(10000, pct/100, 2, 6)
		pairs := pairsFor(b, 10000, 0.30, ep, 16, int64(1000+pct))
		b.Run(fmt.Sprintf("err=%gpct", pct), func(b *testing.B) {
			benchEngine(b, core.Lockstep{}, pairs)
		})
	}
}

// BenchmarkFigure3Trace regenerates the worked example with full
// tracing (tiny, but keeps the figure's code path measured).
func BenchmarkFigure3Trace(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure3Trace(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBroadcastAblation regenerates the §6 ablation: plain
// shifts vs. broadcast-bus variants on similar images.
func BenchmarkBroadcastAblation(b *testing.B) {
	pairs := pairsFor(b, 10000, 0.30, workload.PaperErrors(25), 16, 4242)
	for _, e := range []core.Engine{
		core.Lockstep{},
		broadcast.Bus{},
		broadcast.Bus{Bandwidth: 1},
	} {
		b.Run(e.Name(), func(b *testing.B) {
			benchEngine(b, e, pairs)
		})
	}
}

// BenchmarkEngines compares all engines and the two non-systolic
// baselines (compressed sweep, uncompressed word-parallel XOR) on the
// same similar-image workload — the wall-clock complement to Table 1.
func BenchmarkEngines(b *testing.B) {
	const width = 4096
	pairs := pairsFor(b, width, 0.30, workload.PaperErrors(8), 16, 77)
	for _, e := range []core.Engine{
		core.Lockstep{}, core.Sparse{}, core.Channel{}, core.Sequential{}, broadcast.Bus{},
	} {
		b.Run(e.Name(), func(b *testing.B) { benchEngine(b, e, pairs) })
	}
	b.Run("rle-sweep", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			rle.XOR(p.A, p.B)
		}
	})
	b.Run("bitmap-xor", func(b *testing.B) {
		bms := make([][2]*bitmap.Bitmap, len(pairs))
		for i, p := range pairs {
			imgA := rle.NewImage(width, 1)
			imgA.Rows[0] = p.A
			imgB := rle.NewImage(width, 1)
			imgB.Rows[0] = p.B
			bms[i] = [2]*bitmap.Bitmap{bitmap.FromRLE(imgA), bitmap.FromRLE(imgB)}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pair := bms[i%len(bms)]
			if _, err := bitmap.XOR(pair[0], pair[1]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkImageDiff measures the row-parallel image diff used by the
// inspection pipeline, across worker counts.
func BenchmarkImageDiff(b *testing.B) {
	rng := rand.New(rand.NewSource(55))
	layout, err := inspect.GenerateBoard(rng, inspect.DefaultBoard(800, 600))
	if err != nil {
		b.Fatal(err)
	}
	scanBits, _ := inspect.InjectDefects(rng, layout, 10)
	ref, scan := layout.Art.ToRLE(), scanBits.ToRLE()
	for _, workers := range []int{1, 4, 0} {
		name := fmt.Sprintf("workers=%d", workers)
		if workers == 0 {
			name = "workers=GOMAXPROCS"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := DiffImage(ref, scan, WithWorkers(workers)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// The allocate-per-row path, for comparison with the buffer-reuse
	// default above (the structured version of this comparison is
	// internal/perf and the committed BENCH_PR4.json).
	b.Run("workers=GOMAXPROCS/no-reuse", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := DiffImage(ref, scan, WithBufferReuse(false)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDiffImageSimilar1024 measures the row loop's scheduling
// cost the way the server pays it: DiffImage on one shared planner
// (one worker) over a 1024² paper-similar pair, next to a bare
// XORRowAppend loop over the same rows. internal/perf's
// TestDiffImageSchedulingOverhead gates the ratio.
func BenchmarkDiffImageSimilar1024(b *testing.B) {
	const size = 1024
	rng := rand.New(rand.NewSource(2029))
	ref, err := workload.GenerateImage(rng, workload.PaperRow(size, 0.3), size)
	if err != nil {
		b.Fatal(err)
	}
	scan := ref.Clone()
	ep := workload.CountForPixelFraction(size, 0.02, 1, 8)
	for y := range scan.Rows {
		mask, err := workload.ErrorMask(rng, size, ep)
		if err != nil {
			b.Fatal(err)
		}
		scan.Rows[y] = rle.XOR(scan.Rows[y], mask)
	}
	b.Run("shared-planner", func(b *testing.B) {
		b.ReportAllocs()
		eng := NewPlanner()
		for i := 0; i < b.N; i++ {
			if _, _, err := DiffImage(ref, scan, WithEngine(eng)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("bare-loop", func(b *testing.B) {
		b.ReportAllocs()
		eng := NewPlanner()
		var scratch Row
		for i := 0; i < b.N; i++ {
			for y := range ref.Rows {
				r, err := core.XORRowAppend(eng, scratch[:0], ref.Rows[y], scan.Rows[y])
				if err != nil {
					b.Fatal(err)
				}
				scratch = r.Row
			}
		}
	})
}

// BenchmarkPCBInspection measures the full motivating pipeline:
// board diff + labeling + classification.
func BenchmarkPCBInspection(b *testing.B) {
	rng := rand.New(rand.NewSource(66))
	layout, err := inspect.GenerateBoard(rng, inspect.DefaultBoard(800, 600))
	if err != nil {
		b.Fatal(err)
	}
	scanBits, _ := inspect.InjectDefects(rng, layout, 10)
	ref, scan := layout.Art.ToRLE(), scanBits.ToRLE()
	ins := &inspect.Inspector{MinDefectArea: 2}
	b.SetBytes(int64(ref.Width*ref.Height) / 8) // 1-bpp equivalent throughput
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ins.Compare(ref, scan); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInspectSimilar128 measures one Inspector.Compare in the
// end-to-end benchmark's batch-job shape: a 128² §5 reference against
// a scan with ~1% of each row flipped in error runs of 2–6 pixels
// (~120 defects each), cycling over eight such scans.
func BenchmarkInspectSimilar128(b *testing.B) {
	rng := rand.New(rand.NewSource(25))
	ref, err := workload.GenerateImage(rng, workload.PaperRow(128, 0.3), 128)
	if err != nil {
		b.Fatal(err)
	}
	ep := workload.CountForPixelFraction(128, 0.01, 2, 6)
	ep.Count = max(ep.Count, 1) // one error run per row
	scans := make([]*rle.Image, 8)
	for i := range scans {
		scans[i] = rle.NewImage(128, 128)
		for y, row := range ref.Rows {
			mask, err := workload.ErrorMask(rng, 128, ep)
			if err != nil {
				b.Fatal(err)
			}
			scans[i].Rows[y] = rle.XOR(row, mask)
		}
	}
	ins := &inspect.Inspector{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ins.Compare(ref, scans[i%len(scans)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMorphology measures compressed-domain open/close on a
// generated image (the intro's "morphological operations" in RLE).
func BenchmarkMorphology(b *testing.B) {
	rng := rand.New(rand.NewSource(88))
	img, err := workload.GenerateImage(rng, workload.PaperRow(1024, 0.3), 256)
	if err != nil {
		b.Fatal(err)
	}
	for _, se := range []SE{Box(1), Box(2)} {
		b.Run(fmt.Sprintf("open/box=%d", se.Rx), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Open(img, se); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAlignment measures scan registration: exhaustive search
// vs. the coarse-to-fine pyramid at the same shift budget.
func BenchmarkAlignment(b *testing.B) {
	rng := rand.New(rand.NewSource(99))
	layout, err := inspect.GenerateBoard(rng, inspect.DefaultBoard(400, 300))
	if err != nil {
		b.Fatal(err)
	}
	ref := layout.Art.ToRLE()
	scan := rle.Translate(ref, 3, -2)
	b.Run("exhaustive/shift=4", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			inspect.Align(ref, scan, 4)
		}
	})
	b.Run("pyramid/shift=4", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, _, err := inspect.AlignPyramid(ref, scan, 4); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pyramid/shift=32", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, _, err := inspect.AlignPyramid(ref, scan, 32); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSimilaritySweep shows the paper's core scaling claim as a
// wall-clock fact: systolic time grows with the number of errors, not
// with the image size.
func BenchmarkSimilaritySweep(b *testing.B) {
	for _, size := range []int{1024, 8192, 65536} {
		pairs := pairsFor(b, size, 0.30, workload.ErrorParams{Count: 6, MinLen: 4, MaxLen: 4}, 8, int64(size))
		b.Run(fmt.Sprintf("fixed-6-errors/size=%d", size), func(b *testing.B) {
			benchEngine(b, core.Lockstep{}, pairs)
		})
	}
}
