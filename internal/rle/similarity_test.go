package rle

import (
	"math/rand"
	"testing"
)

func TestRunCountDiff(t *testing.T) {
	if got := RunCountDiff(fig1Img1(), fig1Img2()); got != 1 {
		t.Errorf("RunCountDiff = %d, want 1", got)
	}
	if got := RunCountDiff(fig1Img2(), fig1Img1()); got != 1 {
		t.Errorf("RunCountDiff not symmetric: %d", got)
	}
	if RunCountDiff(nil, nil) != 0 {
		t.Error("RunCountDiff of empties should be 0")
	}
}

func TestXORRunsFigure1(t *testing.T) {
	if got := XORRuns(fig1Img1(), fig1Img2()); got != 5 {
		t.Errorf("XORRuns = %d, want 5 (Figure 1 difference has 5 runs)", got)
	}
	if XORRuns(fig1Img1(), fig1Img1()) != 0 {
		t.Error("self XORRuns should be 0")
	}
}

func TestHamming(t *testing.T) {
	// Figure 1 difference: (3,4)(8,2)(15,1)(18,2)(30,1) = 10 pixels.
	if got := Hamming(fig1Img1(), fig1Img2()); got != 10 {
		t.Errorf("Hamming = %d, want 10", got)
	}
	if Hamming(fig1Img1(), fig1Img1()) != 0 {
		t.Error("self Hamming should be 0")
	}
}

func TestSimilarityRelations(t *testing.T) {
	// Hamming ≥ XORRuns (every run has ≥1 pixel), and Hamming is 0
	// exactly when the rows hold the same bits.
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 200; trial++ {
		width := 1 + rng.Intn(200)
		a, b := randomRow(rng, width), randomRow(rng, width)
		h, k3 := Hamming(a, b), XORRuns(a, b)
		if h < k3 {
			t.Fatalf("Hamming %d < XORRuns %d for %v %v", h, k3, a, b)
		}
		if (h == 0) != a.EqualBits(b) {
			t.Fatalf("Hamming %d inconsistent with bit equality for %v %v", h, a, b)
		}
	}
}

func TestXORAreaShiftedAgainstMaterialized(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 300; trial++ {
		width := 8 + rng.Intn(200)
		a := randomRow(rng, width)
		b := randomRow(rng, width)
		dx := rng.Intn(2*width+1) - width // shifts past both edges
		got := XORAreaShifted(a, b, dx, width)
		want := Hamming(a, b.Shift(dx).Clip(width))
		if got != want {
			t.Fatalf("XORAreaShifted(dx=%d) = %d, want %d\na=%v\nb=%v", dx, got, want, a, b)
		}
	}
}

// TestXORAreaShiftedWindowSemantics is the oracle-style property
// test: over a corpus that includes operands extending past the
// window (the documented precondition an earlier version silently
// depended on), the allocation-free scan must agree with the
// materialized reference — both operands clipped to [0, width).
func TestXORAreaShiftedWindowSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	randWide := func(span int) Row {
		var row Row
		x := rng.Intn(4)
		for len(row) < 6 && x < span {
			l := 1 + rng.Intn(5)
			row = append(row, Run{Start: x, Length: l})
			x += l + 1 + rng.Intn(5)
		}
		return row
	}
	for trial := 0; trial < 5000; trial++ {
		width := 1 + rng.Intn(40)
		// Operands may extend well past the window on the right.
		a := randWide(width + 16)
		b := randWide(width + 16)
		dx := rng.Intn(2*width+33) - width - 16
		got := XORAreaShifted(a, b, dx, width)
		want := Hamming(a.Clip(width), b.Shift(dx).Clip(width))
		if got != want {
			t.Fatalf("XORAreaShifted(dx=%d, width=%d) = %d, want %d\na=%v\nb=%v",
				dx, width, got, want, a, b)
		}
	}
}

// TestXORAreaShiftedClipsFirstOperand is the minimized regression for
// the window-clipping bug: a run of a straddling the window edge used
// to contribute its full (out-of-window) length.
func TestXORAreaShiftedClipsFirstOperand(t *testing.T) {
	a := Row{{Start: 3, Length: 2}} // pixels 3..4, window is [0,4)
	if got := XORAreaShifted(a, nil, 0, 4); got != 1 {
		t.Errorf("straddling a vs empty b: got %d, want 1 (only pixel 3 is in the window)", got)
	}
	// A run entirely past the window contributes nothing.
	far := Row{{Start: 10, Length: 3}}
	if got := XORAreaShifted(far, nil, 0, 4); got != 0 {
		t.Errorf("out-of-window a: got %d, want 0", got)
	}
	// And the overlap accounting still cancels in-window pixels: b
	// covers the in-window part of a exactly.
	b := Row{{Start: 3, Length: 1}}
	if got := XORAreaShifted(a, b, 0, 4); got != 0 {
		t.Errorf("clipped a vs covering b: got %d, want 0", got)
	}
}

func TestXORAreaShiftedEdges(t *testing.T) {
	a := Row{{Start: 0, Length: 4}}
	if got := XORAreaShifted(a, nil, 0, 8); got != 4 {
		t.Errorf("empty b: %d", got)
	}
	if got := XORAreaShifted(nil, a, 2, 8); got != 4 {
		t.Errorf("empty a: %d", got)
	}
	if got := XORAreaShifted(a, a, 0, 8); got != 0 {
		t.Errorf("identical: %d", got)
	}
	// b shifted fully out of the window.
	if got := XORAreaShifted(a, a, 100, 8); got != 4 {
		t.Errorf("b out of window: %d", got)
	}
}
