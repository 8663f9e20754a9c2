package rle

import (
	"math/rand"
	"testing"
)

func TestArenaPersistCopies(t *testing.T) {
	a := NewArena(8)
	src := Row{{0, 2}, {5, 3}}
	got := a.Persist(src)
	if !got.Equal(src) {
		t.Fatalf("Persist = %v, want %v", got, src)
	}
	src[0] = Run{Start: 100, Length: 1}
	if got[0].Start == 100 {
		t.Fatal("Persist did not copy: mutation of the source leaked through")
	}
}

func TestArenaPersistEmpty(t *testing.T) {
	var a Arena // zero value must work
	if got := a.Persist(nil); got != nil {
		t.Fatalf("Persist(nil) = %v, want nil", got)
	}
	if got := a.Persist(Row{}); got != nil {
		t.Fatalf("Persist(empty) = %v, want nil", got)
	}
}

func TestArenaRowsIsolated(t *testing.T) {
	// Appending to one persisted row must never clobber the next row
	// carved from the same chunk.
	a := NewArena(64)
	r1 := a.Persist(Row{{0, 1}})
	r2 := a.Persist(Row{{10, 1}})
	r1 = append(r1, Run{Start: 99, Length: 1})
	if r2[0].Start != 10 {
		t.Fatalf("appending to row 1 clobbered row 2: %v", r2)
	}
	_ = r1
}

func TestArenaLargeRowExactAllocation(t *testing.T) {
	a := NewArena(8)
	big := make(Row, 16)
	for i := range big {
		big[i] = Run{Start: 3 * i, Length: 1}
	}
	got := a.Persist(big)
	if !got.Equal(big) {
		t.Fatalf("large Persist = %v, want %v", got, big)
	}
	if cap(got) != len(got) {
		t.Fatalf("large row not exact-size: cap %d len %d", cap(got), len(got))
	}
}

func TestArenaManyRowsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := NewArena(32)
	srcs := make([]Row, 200)
	kept := make([]Row, 200)
	for i := range srcs {
		srcs[i] = randomRow(rng, 1+rng.Intn(128))
		kept[i] = a.Persist(srcs[i])
	}
	for i := range srcs {
		if !kept[i].Equal(srcs[i]) {
			t.Fatalf("row %d corrupted: %v want %v", i, kept[i], srcs[i])
		}
	}
}

// TestArenaGrowsGeometrically pins the growth rule: a fresh arena's
// first chunk holds max(16, 4n) runs for a first row of n runs, and k
// tiny rows then cost a number of chunks logarithmic in k until the
// cap is reached.
func TestArenaGrowsGeometrically(t *testing.T) {
	tiny := Row{{0, 1}, {3, 2}}
	for _, a := range []*Arena{NewArena(0), {}} {
		a.Persist(tiny)
		if got, limit := len(a.chunk)+len(tiny), max(16, 4*len(tiny)); got > limit {
			t.Fatalf("first chunk holds %d runs for a %d-run row, want ≤ %d", got, len(tiny), limit)
		}
	}
	for _, k := range []int{1, 10, 100, 1000} {
		allocs := testing.AllocsPerRun(5, func() {
			var a Arena
			for i := 0; i < k; i++ {
				a.Persist(tiny)
			}
		})
		// Chunks of 16, 32, … 1024 runs, then 1024 each: ⌈log2⌉ of the
		// runs persisted, plus one chunk per full cap beyond.
		runs := k * len(tiny)
		limit := 1
		for size, total := 16, 16; total < runs; total += size {
			size = min(2*size, DefaultArenaChunk)
			limit++
		}
		if allocs > float64(limit) {
			t.Errorf("%d tiny rows: %.0f chunk allocations, want ≤ %d", k, allocs, limit)
		}
		t.Logf("%d rows of %d runs: %.0f chunks", k, len(tiny), allocs)
	}
}

// TestArenaCapKeepsMeaning: a row of at least half the cap that does
// not fit the current chunk gets its own exact allocation, not a
// fresh chunk, and no chunk ever exceeds the cap.
func TestArenaCapKeepsMeaning(t *testing.T) {
	big := make(Row, 32)
	for i := range big {
		big[i] = Run{Start: 2 * i, Length: 1}
	}
	a := NewArena(64)
	if got := a.Persist(big); cap(got) != 32 || !got.Equal(big) || a.chunk != nil {
		t.Fatalf("half-cap row: cap %d, %v, chunk %d runs; want its own exact allocation and no chunk", cap(got), got, len(a.chunk))
	}
	for i := 0; i < 100; i++ {
		a.Persist(Row{{0, 1}, {5, 1}, {9, 1}})
		if len(a.chunk) > 64 {
			t.Fatalf("chunk of %d runs exceeds the cap of 64", len(a.chunk))
		}
	}
}

// TestArenaGrowthRowsIsolated: rows persisted across chunk boundaries
// as the chunks grow stay capacity-clipped and intact.
func TestArenaGrowthRowsIsolated(t *testing.T) {
	var a Arena
	var kept []Row
	for i := 0; i < 300; i++ {
		r := a.Persist(Row{{i, 1}, {i + 2, 1 + i%3}})
		if cap(r) != len(r) {
			t.Fatalf("row %d: cap %d, len %d; want capacity-clipped", i, cap(r), len(r))
		}
		kept = append(kept, r)
	}
	for i := range kept {
		_ = append(kept[i], Run{Start: 1 << 20, Length: 1})
	}
	for i, r := range kept {
		if want := (Row{{i, 1}, {i + 2, 1 + i%3}}); !r.Equal(want) {
			t.Fatalf("row %d = %v after appends to its neighbours, want %v", i, r, want)
		}
	}
}

func BenchmarkArenaPersist(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	rows := make([]Row, 64)
	for i := range rows {
		rows[i] = randomRow(rng, 512)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := NewArena(0)
		for _, w := range rows {
			a.Persist(w)
		}
	}
}
