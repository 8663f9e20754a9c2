package core

import (
	"math/rand"
	"testing"

	"sysrle/internal/rle"
)

func TestSequentialXORFigure1(t *testing.T) {
	row, steps := AppendSequentialXOR(nil, fig1Img1(), fig1Img2())
	if !row.EqualBits(fig1XOR()) {
		t.Fatalf("SequentialXOR = %v, want %v", row, fig1XOR())
	}
	// The §2 accounting of Figure 1's rows: seven merge steps for
	// k1+k2 = 9 runs. Pinned, so a rewrite of the merge loop cannot
	// shift Table 1's sequential column.
	if steps != 7 {
		t.Errorf("steps = %d, want 7", steps)
	}
}

func TestSequentialMatchesSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	total := 0
	for trial := 0; trial < 400; trial++ {
		width := 8 + rng.Intn(500)
		a := randomValidRow(rng, width)
		b := randomValidRow(rng, width)
		row, steps := AppendSequentialXOR(nil, a, b)
		if !row.EqualBits(rle.XOR(a, b)) {
			t.Fatalf("AppendSequentialXOR(nil, %v, %v) = %v, want %v", a, b, row, rle.XOR(a, b))
		}
		if err := row.Validate(-1); err != nil {
			t.Fatalf("invalid output: %v", err)
		}
		if steps > len(a)+len(b) {
			t.Fatalf("steps %d > k1+k2 %d", steps, len(a)+len(b))
		}
		// The merge must look at every input run at least once:
		// steps ≥ max(ceil(k1/1)...): each step consumes at most two
		// runs, so steps ≥ (k1+k2)/2.
		if 2*steps < len(a)+len(b) {
			t.Fatalf("steps %d implausibly small for %d runs", steps, len(a)+len(b))
		}
		total += steps
	}
	// The merge-step total over these seeded pairs, as the §2 merge
	// counted it before it became one closure-free loop.
	if total != 18488 {
		t.Errorf("%d merge steps over the 400 pairs, want 18488", total)
	}
}

func TestSequentialStepCountIsTotalRunBound(t *testing.T) {
	// The paper's contrast: sequential cost tracks k1+k2 even when
	// the images are identical (maximal similarity), while the
	// systolic engine finishes in one iteration.
	row := randomValidRow(rand.New(rand.NewSource(5)), 2000)
	_, seqSteps := AppendSequentialXOR(nil, row, row)
	if 2*seqSteps < len(row) {
		t.Fatalf("sequential steps %d do not scale with runs %d", seqSteps, len(row))
	}
	res, err := Lockstep{}.XORRow(row, row)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 1 {
		t.Errorf("systolic iterations on identical inputs = %d, want 1", res.Iterations)
	}
	if len(res.Row) != 0 {
		t.Errorf("difference of identical rows = %v", res.Row)
	}
}

func TestSequentialEmptyOperands(t *testing.T) {
	if row, steps := AppendSequentialXOR(nil, nil, nil); len(row) != 0 || steps != 0 {
		t.Errorf("empty ^ empty = %v in %d steps", row, steps)
	}
	a := fig1Img1()
	row, steps := AppendSequentialXOR(nil, a, nil)
	if !row.EqualBits(a) {
		t.Errorf("a ^ empty = %v", row)
	}
	if steps != len(a) {
		t.Errorf("steps = %d, want %d (one per remaining run)", steps, len(a))
	}
}

func TestSequentialAdjacentHeads(t *testing.T) {
	// Exercises the disjoint-but-adjacent head case explicitly.
	a := rle.Row{{Start: 0, Length: 5}}
	b := rle.Row{{Start: 5, Length: 5}}
	row, _ := AppendSequentialXOR(nil, a, b)
	if !row.EqualBits(rle.Row{{Start: 0, Length: 10}}) {
		t.Errorf("adjacent merge = %v", row)
	}
}
