package core

import (
	"math/rand"
	"testing"

	"sysrle/internal/rle"
)

// The append path must be byte-identical to the canonicalized XORRow
// result — and to the reference sweep — for every engine, on the
// same Result accounting (iterations, cells).

func appendEngines(t testing.TB) (map[string]Engine, func()) {
	arr := NewChannelArray(600)
	engines := map[string]Engine{
		"lockstep":   Lockstep{},
		"sequential": Sequential{},
		"sparse":     Sparse{},
		"channel":    Channel{}, // no append path: exercises the dispatcher fallback
		"array":      arr,
		"verified":   NewVerified(Lockstep{}),
	}
	return engines, arr.Close
}

func TestXORRowAppendMatchesXORRow(t *testing.T) {
	engines, closeAll := appendEngines(t)
	defer closeAll()
	rng := rand.New(rand.NewSource(271))
	var scratch rle.Row
	for trial := 0; trial < 60; trial++ {
		width := 16 + rng.Intn(512)
		a := randomCanonicalRow(rng, width)
		b := randomCanonicalRow(rng, width)
		want := rle.XOR(a, b)
		for name, e := range engines {
			ref, err := e.XORRow(a, b)
			if err != nil {
				t.Fatalf("%s.XORRow: %v", name, err)
			}
			res, err := XORRowAppend(e, scratch[:0], a, b)
			if err != nil {
				t.Fatalf("%s append: %v", name, err)
			}
			scratch = res.Row
			if !res.Row.Equal(want) {
				t.Fatalf("%s append = %v, want %v (a=%v b=%v)", name, res.Row, want, a, b)
			}
			if !res.Row.Equal(ref.Row.Canonicalize()) {
				t.Fatalf("%s append disagrees with canonicalized XORRow", name)
			}
			if res.Iterations != ref.Iterations {
				t.Fatalf("%s append iterations %d != XORRow %d", name, res.Iterations, ref.Iterations)
			}
		}
	}
}

func TestXORRowAppendPreservesPrefix(t *testing.T) {
	engines, closeAll := appendEngines(t)
	defer closeAll()
	prefix := rle.Row{{Start: 0, Length: 3}}
	a, b := fig1Img1(), fig1Img2()
	for name, e := range engines {
		dst := append(rle.Row{}, prefix...)
		res, err := XORRowAppend(e, dst, a, b)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := append(append(rle.Row{}, prefix...), fig1XOR()...)
		if !res.Row.Equal(want) {
			t.Fatalf("%s append with prefix = %v, want %v", name, res.Row, want)
		}
	}
}

func TestXORRowAppendInvalidInput(t *testing.T) {
	engines, closeAll := appendEngines(t)
	defer closeAll()
	bad := rle.Row{{Start: 5, Length: 2}, {Start: 4, Length: 1}} // out of order
	for name, e := range engines {
		if name == "verified" {
			continue // Verified recovers rather than rejecting after validation
		}
		if _, err := XORRowAppend(e, nil, bad, nil); err == nil {
			t.Errorf("%s accepted an invalid row", name)
		}
	}
}

func TestVerifiedAppendRecovery(t *testing.T) {
	// A primary that appends garbage must be detected, dst rewound,
	// and the count surfaced through Recovered.
	v := NewVerified(corruptEngine{})
	prefix := rle.Row{{Start: 0, Length: 1}}
	a, b := fig1Img1(), fig1Img2()
	res, err := v.XORRowAppend(append(rle.Row{}, prefix...), a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := append(append(rle.Row{}, prefix...), fig1XOR()...)
	if !res.Row.Equal(want) {
		t.Fatalf("recovered append = %v, want %v", res.Row, want)
	}
	if v.Recovered() != 1 {
		t.Fatalf("Recovered = %d, want 1", v.Recovered())
	}
	if _, err := v.XORRow(a, b); err != nil {
		t.Fatal(err)
	}
	if v.Recovered() != 2 {
		t.Fatalf("Recovered after XORRow = %d, want 2", v.Recovered())
	}
}

// corruptEngine claims an obviously wrong result on every row.
type corruptEngine struct{}

func (corruptEngine) Name() string { return "corrupt" }
func (corruptEngine) XORRow(a, b rle.Row) (Result, error) {
	return Result{Row: rle.Row{{Start: 0, Length: 1}}}, nil
}

func TestGatherAppendOverflowedCell(t *testing.T) {
	cells := []Cell{{Big: MakeReg(1, 2)}}
	if _, err := GatherAppend(cells, nil); err == nil {
		t.Fatal("GatherAppend accepted a cell still holding RegBig")
	}
	disordered := []Cell{{Small: MakeReg(5, 9)}, {Small: MakeReg(4, 6)}}
	if _, err := GatherAppend(disordered, nil); err == nil {
		t.Fatal("GatherAppend accepted disordered cells")
	}
}

// The lockstep append path reuses pooled cell arrays and shift
// buffers across rows; these tests pin what that reuse must not
// change.

func TestLockstepAppendMatchesXORRow(t *testing.T) {
	rng := rand.New(rand.NewSource(811))
	var dst rle.Row
	for trial := 0; trial < 300; trial++ {
		width := 16 + rng.Intn(400)
		a := randomValidRow(rng, width)
		b := randomValidRow(rng, width)
		want, err := Lockstep{}.XORRow(a, b)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Lockstep{}.XORRowAppend(dst[:0], a, b)
		if err != nil {
			t.Fatal(err)
		}
		dst = got.Row
		if !got.Row.Equal(want.Row.Canonicalize()) || got.Iterations != want.Iterations || got.Cells != want.Cells {
			t.Fatalf("append path diverges on %v ^ %v: %+v vs %+v", a, b, got, want)
		}
	}
}

func TestLockstepAppendResultsSurviveReuse(t *testing.T) {
	first, err := Lockstep{}.XORRowAppend(nil, fig1Img1(), fig1Img2())
	if err != nil {
		t.Fatal(err)
	}
	snapshot := first.Row.Clone()
	// A second, different call reuses the pooled cells; it must not
	// corrupt the first result.
	if _, err := (Lockstep{}).XORRowAppend(nil, fig1Img2(), nil); err != nil {
		t.Fatal(err)
	}
	if !first.Row.Equal(snapshot) {
		t.Error("reusing the pooled scratch mutated an earlier result")
	}
}

func TestLockstepAppendGrowsAndShrinks(t *testing.T) {
	rng := rand.New(rand.NewSource(813))
	// Big input first, then small: stale pooled cells must be cleared.
	big := randomValidRow(rng, 2000)
	if _, err := (Lockstep{}).XORRowAppend(nil, big, big); err != nil {
		t.Fatal(err)
	}
	small := rle.Row{{Start: 2, Length: 3}}
	res, err := Lockstep{}.XORRowAppend(nil, small, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Row.Equal(small) {
		t.Fatalf("after shrink: %v", res.Row)
	}
	if res.Cells != 2 {
		t.Errorf("cells = %d, want 2", res.Cells)
	}
}

func TestLockstepAppendRejectsInvalid(t *testing.T) {
	bad := rle.Row{{Start: 5, Length: 2}, {Start: 4, Length: 2}}
	if _, err := (Lockstep{}).XORRowAppend(nil, bad, nil); err == nil {
		t.Error("invalid input accepted")
	}
}

func TestLockstepAppendZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are nondeterministic under -race (sync.Pool drops)")
	}
	rng := rand.New(rand.NewSource(31))
	a := randomValidRow(rng, 2000)
	b := randomValidRow(rng, 2000)
	// Warm the pool and the destination once.
	res, err := Lockstep{}.XORRowAppend(nil, a, b)
	if err != nil {
		t.Fatal(err)
	}
	dst := res.Row
	allocs := testing.AllocsPerRun(50, func() {
		r, err := Lockstep{}.XORRowAppend(dst[:0], a, b)
		if err != nil {
			t.Fatal(err)
		}
		dst = r.Row
	})
	if allocs != 0 {
		t.Fatalf("warm Lockstep.XORRowAppend allocated %.1f times per row, want 0", allocs)
	}
}

// TestSequentialAppendStepParity: what dst already holds changes
// neither the merge-step count nor the appended bits — emission does
// not take part in the paper's accounting.
func TestSequentialAppendStepParity(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	prefix := rle.Row{rle.Span(300, 301)}
	total := 0
	for trial := 0; trial < 200; trial++ {
		a := randomCanonicalRow(rng, 256)
		b := randomCanonicalRow(rng, 256)
		fresh, wantSteps := AppendSequentialXOR(nil, a, b)
		got, steps := AppendSequentialXOR(prefix.Clone(), a, b)
		if steps != wantSteps {
			t.Fatalf("steps %d after a prefix, %d into nil", steps, wantSteps)
		}
		if !got[:1].Equal(prefix) || !got[1:].Equal(fresh) || !fresh.Canonical() {
			t.Fatalf("appended %v after %v, want canonical %v", got[1:], got[:1], fresh)
		}
		total += steps
	}
	if total != 8147 {
		t.Errorf("%d merge steps over the 200 pairs, want 8147", total)
	}
}

func BenchmarkXORRowAppend(b *testing.B) {
	rng := rand.New(rand.NewSource(53))
	rowA := randomValidRow(rng, 4096)
	rowB := randomValidRow(rng, 4096)
	for _, e := range []Engine{Lockstep{}, Sparse{}, Sequential{}} {
		b.Run(e.Name(), func(b *testing.B) {
			var dst rle.Row
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := XORRowAppend(e, dst[:0], rowA, rowB)
				if err != nil {
					b.Fatal(err)
				}
				dst = res.Row
			}
		})
	}
}
