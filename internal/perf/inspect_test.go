package perf

import (
	"math/rand"
	"runtime"
	"testing"

	"sysrle/internal/inspect"
	"sysrle/internal/rle"
	"sysrle/internal/workload"
)

// similar128 is the end-to-end benchmark's batch-job scan shape: a
// 128² §5 reference (density 0.3, runs of 4–20) and a scan with about
// 1% of each row flipped in error runs of 2–6 pixels, ~120 defects.
func similar128(tb testing.TB, seed int64) (ref, scan *rle.Image) {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	ref, err := workload.GenerateImage(rng, workload.PaperRow(128, 0.3), 128)
	if err != nil {
		tb.Fatal(err)
	}
	ep := workload.CountForPixelFraction(128, 0.01, 2, 6)
	ep.Count = max(ep.Count, 1)
	scan = rle.NewImage(128, 128)
	for y, row := range ref.Rows {
		mask, err := workload.ErrorMask(rng, 128, ep)
		if err != nil {
			tb.Fatal(err)
		}
		scan.Rows[y] = rle.XOR(row, mask)
	}
	return ref, scan
}

// TestInspectCompareAllocs bounds the allocations and bytes of one
// Inspector.Compare on the 128² similar pair (121 defects), so that
// labelling and classifying a defect stays close to allocation-free.
// One classifier scratch per comparison, reused from defect to defect,
// brings it to ~112 allocations and ~48 KB (go1.24, amd64); a fresh
// morphology context, window crop and labelling per defect, with a
// full 1024-run arena chunk for each dilation, cost ~7,480 and
// ~2.45 MB, and geometric arena chunks alone ~7,480 and ~0.48 MB.
func TestInspectCompareAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are nondeterministic under -race (sync.Pool drops)")
	}
	ref, scan := similar128(t, 1)
	ins := &inspect.Inspector{}
	compare := func() {
		if _, err := ins.Compare(ref, scan); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(10, compare)
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		compare()
	}
	runtime.ReadMemStats(&after)
	bytesPer := (after.TotalAlloc - before.TotalAlloc) / runs
	rep, _ := ins.Compare(ref, scan)
	t.Logf("128² similar Compare: %d defects, %.0f allocs, %d B per op", len(rep.Defects), allocs, bytesPer)
	const maxAllocs, maxBytes = 140, 60 << 10
	if allocs > maxAllocs {
		t.Errorf("%.0f allocs per Compare, want ≤ %d", allocs, maxAllocs)
	}
	if bytesPer > maxBytes {
		t.Errorf("%d B allocated per Compare, want ≤ %d", bytesPer, maxBytes)
	}
}
