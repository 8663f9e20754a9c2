package rle

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// bitOp applies a pixelwise reference operation over expanded rows.
func bitOp(a, b Row, width int, op func(x, y bool) bool) Row {
	ab, bb := a.Bits(width), b.Bits(width)
	out := make([]bool, width)
	for i := range out {
		out[i] = op(ab[i], bb[i])
	}
	return FromBits(out)
}

func TestXORFigure1(t *testing.T) {
	// The paper's Figure 1: difference of the two example rows.
	want := Row{{3, 4}, {8, 2}, {15, 1}, {18, 2}, {30, 1}}
	got := XOR(fig1Img1(), fig1Img2())
	if !got.Equal(want) {
		t.Fatalf("XOR = %v, want %v", got, want)
	}
	// XOR is symmetric.
	if !XOR(fig1Img2(), fig1Img1()).Equal(want) {
		t.Fatal("XOR not symmetric on Figure 1 inputs")
	}
}

func TestOpsAgainstBitReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ops := []struct {
		name string
		rle  func(a, b Row) Row
		bit  func(x, y bool) bool
	}{
		{"XOR", XOR, func(x, y bool) bool { return x != y }},
		{"AND", AND, func(x, y bool) bool { return x && y }},
		{"OR", OR, func(x, y bool) bool { return x || y }},
		{"AndNot", AndNot, func(x, y bool) bool { return x && !y }},
	}
	for trial := 0; trial < 300; trial++ {
		width := 1 + rng.Intn(256)
		a, b := randomRow(rng, width), randomRow(rng, width)
		for _, op := range ops {
			got := op.rle(a, b)
			want := bitOp(a, b, width, op.bit)
			if !got.Equal(want) {
				t.Fatalf("%s(%v, %v) = %v, want %v", op.name, a, b, got, want)
			}
			if !got.Canonical() {
				t.Fatalf("%s output %v not canonical", op.name, got)
			}
		}
	}
}

func TestAppendXORMatchesXOR(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var scratch Row
	for trial := 0; trial < 500; trial++ {
		width := 1 + rng.Intn(512)
		a, b := randomRow(rng, width), randomRow(rng, width)
		want := XOR(a, b)
		scratch = AppendXOR(scratch[:0], a, b)
		if !scratch.Equal(want) {
			t.Fatalf("AppendXOR(%v, %v) = %v, want %v", a, b, scratch, want)
		}
		if !scratch.Canonical() && len(scratch) > 0 {
			t.Fatalf("AppendXOR output %v not canonical", scratch)
		}
	}
}

func TestAppendAndNotMatchesAndNot(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for i := 0; i < 200; i++ {
		a, b := randomRow(rng, 90), randomRow(rng, 90)
		prefix := Row{{0, 1}}
		got := AppendAndNot(prefix, a, b)
		if !got[:1].Equal(prefix) || !got[1:].Equal(AndNot(a, b)) {
			t.Fatalf("AppendAndNot(%v, %v) = %v, want %v after the prefix", a, b, got, AndNot(a, b))
		}
	}
}

func TestAppendXORPreservesPrefix(t *testing.T) {
	prefix := Row{{0, 2}, {4, 1}}
	dst := append(Row{}, prefix...)
	a, b := Row{{10, 4}}, Row{{12, 4}}
	got := AppendXOR(dst, a, b)
	want := append(append(Row{}, prefix...), XOR(a, b)...)
	if !got.Equal(want) {
		t.Fatalf("AppendXOR = %v, want %v", got, want)
	}
}

func TestAppendXORReusesCapacity(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	a, b := randomRow(rng, 2048), randomRow(rng, 2048)
	scratch := AppendXOR(nil, a, b) // size the scratch once
	allocs := testing.AllocsPerRun(100, func() {
		scratch = AppendXOR(scratch[:0], a, b)
	})
	if allocs != 0 {
		t.Fatalf("AppendXOR with warm scratch allocated %.1f times per run, want 0", allocs)
	}
}

func TestAppendCanonicalMatchesCanonicalize(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 300; trial++ {
		// Build a sorted but possibly adjacent/overlapping run list,
		// the shape engine gathers produce.
		var w Row
		pos := 0
		for len(w) < 1+rng.Intn(10) {
			pos += rng.Intn(4) // 0 → overlapping/adjacent starts
			w = append(w, Run{Start: pos, Length: 1 + rng.Intn(5)})
			pos += rng.Intn(3)
		}
		want := w.Canonicalize()
		got := AppendCanonical(nil, w)
		if !got.Equal(want) {
			t.Fatalf("AppendCanonical(%v) = %v, want %v", w, got, want)
		}
		// A pre-existing prefix must come through untouched, never
		// merged with, even when w starts adjacent to it.
		prefix := Row{{Start: 0, Length: w[0].Start + 1}}
		if w[0].Start == 0 {
			prefix = Row{{Start: 0, Length: 1}}
		}
		got = AppendCanonical(append(Row{}, prefix...), w)
		if len(got) < 1 || got[0] != prefix[0] {
			t.Fatalf("AppendCanonical modified the prefix: %v", got)
		}
		if !got[len(prefix):].Equal(want) {
			t.Fatalf("AppendCanonical after prefix = %v, want %v", got[len(prefix):], want)
		}
	}
}

// FuzzAppendXOR cross-checks the append-path XOR against the
// allocating sweep and the bit-level reference on fuzz-chosen rows.
func FuzzAppendXOR(f *testing.F) {
	f.Add(int64(1), 64)
	f.Add(int64(99), 1)
	f.Add(int64(7), 4096)
	f.Fuzz(func(t *testing.T, seed int64, width int) {
		if width < 1 || width > 1<<16 {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		a, b := randomRow(rng, width), randomRow(rng, width)
		want := XOR(a, b)
		got := AppendXOR(make(Row, 0, 4), a, b)
		if !got.Equal(want) {
			t.Fatalf("AppendXOR = %v, want %v", got, want)
		}
		if !got.Equal(bitOp(a, b, width, func(x, y bool) bool { return x != y })) {
			t.Fatalf("AppendXOR disagrees with bit reference on %v ^ %v", a, b)
		}
	})
}

func TestOpsOnNonCanonicalInputs(t *testing.T) {
	// Inputs with adjacent runs are valid per the paper; ops must
	// still be correct.
	a := Row{{0, 3}, {3, 3}, {10, 2}} // = {0..5, 10..11}
	b := Row{{2, 2}, {4, 4}}          // = {2..7}
	width := 16
	for name, pair := range map[string][2]Row{
		"XOR": {XOR(a, b), bitOp(a, b, width, func(x, y bool) bool { return x != y })},
		"AND": {AND(a, b), bitOp(a, b, width, func(x, y bool) bool { return x && y })},
		"OR":  {OR(a, b), bitOp(a, b, width, func(x, y bool) bool { return x || y })},
	} {
		if !pair[0].Equal(pair[1]) {
			t.Errorf("%s on non-canonical inputs: got %v want %v", name, pair[0], pair[1])
		}
	}
}

func TestXOREdgeCases(t *testing.T) {
	a := fig1Img1()
	if got := XOR(a, nil); !got.Equal(a.Canonicalize()) {
		t.Errorf("XOR(a, empty) = %v, want %v", got, a)
	}
	if got := XOR(nil, a); !got.Equal(a.Canonicalize()) {
		t.Errorf("XOR(empty, a) = %v, want %v", got, a)
	}
	if got := XOR(a, a); len(got) != 0 {
		t.Errorf("XOR(a, a) = %v, want empty", got)
	}
	if got := XOR(nil, nil); len(got) != 0 {
		t.Errorf("XOR(empty, empty) = %v", got)
	}
}

func TestXORProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		width := 1 + rng.Intn(200)
		a, b, c := randomRow(rng, width), randomRow(rng, width), randomRow(rng, width)
		// Commutativity.
		if !XOR(a, b).Equal(XOR(b, a)) {
			t.Fatalf("XOR not commutative: %v %v", a, b)
		}
		// Associativity.
		if !XOR(XOR(a, b), c).Equal(XOR(a, XOR(b, c))) {
			t.Fatalf("XOR not associative: %v %v %v", a, b, c)
		}
		// Self-inverse: (a ⊕ b) ⊕ b = a.
		if !XOR(XOR(a, b), b).EqualBits(a) {
			t.Fatalf("XOR not self-inverse: %v %v", a, b)
		}
		// De Morgan via AndNot: a\b ∪ b\a = a ⊕ b.
		if !OR(AndNot(a, b), AndNot(b, a)).Equal(XOR(a, b)) {
			t.Fatalf("symmetric difference identity failed: %v %v", a, b)
		}
	}
}

func TestNot(t *testing.T) {
	cases := []struct {
		in    Row
		width int
		want  Row
	}{
		{nil, 8, Row{{0, 8}}},
		{Row{{0, 8}}, 8, nil},
		{Row{{2, 3}}, 8, Row{{0, 2}, {5, 3}}},
		{Row{{0, 2}, {5, 3}}, 8, Row{{2, 3}}},
		{Row{{0, 1}, {7, 1}}, 8, Row{{1, 6}}},
	}
	for _, c := range cases {
		got := Not(c.in, c.width)
		if !got.Equal(c.want) {
			t.Errorf("Not(%v, %d) = %v, want %v", c.in, c.width, got, c.want)
		}
	}
}

func TestNotInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		width := 1 + rng.Intn(128)
		row := randomRow(rng, width)
		return Not(Not(row, width), width).EqualBits(row)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestNotTruncatesOutOfRangeRuns(t *testing.T) {
	// A run ending beyond width: complement must stay within bounds.
	got := Not(Row{{2, 100}}, 8)
	want := Row{{0, 2}}
	if !got.Equal(want) {
		t.Errorf("Not = %v, want %v", got, want)
	}
}

func TestORManyAndANDMany(t *testing.T) {
	rows := []Row{
		{{0, 4}},          // 0..3
		{{2, 4}},          // 2..5
		{{3, 1}, {10, 2}}, // 3, 10..11
	}
	if got, want := ORMany(rows), (Row{{0, 6}, {10, 2}}); !got.Equal(want) {
		t.Errorf("ORMany = %v, want %v", got, want)
	}
	var sweep SweepScratch
	if got, want := sweep.AppendAND(nil, rows), (Row{{3, 1}}); !got.Equal(want) {
		t.Errorf("AppendAND = %v, want %v", got, want)
	}
	if ORMany(nil) != nil {
		t.Error("ORMany(nil) should be empty")
	}
	if sweep.AppendAND(nil, nil) != nil {
		t.Error("AppendAND of no rows should be empty")
	}
}

func TestManyAgainstPairwise(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var sweep SweepScratch
	for trial := 0; trial < 100; trial++ {
		width := 1 + rng.Intn(128)
		n := 1 + rng.Intn(6)
		rows := make([]Row, n)
		for i := range rows {
			rows[i] = randomRow(rng, width)
		}
		orRef, andRef := rows[0], rows[0]
		for _, w := range rows[1:] {
			orRef = OR(orRef, w)
			andRef = AND(andRef, w)
		}
		if !ORMany(rows).Equal(orRef) {
			t.Fatalf("ORMany disagrees with pairwise OR on %v", rows)
		}
		if !sweep.AppendAND(nil, rows).Equal(andRef) {
			t.Fatalf("AppendAND disagrees with pairwise AND on %v", rows)
		}
	}
}

func BenchmarkXORSweep(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	a1 := randomRow(rng, 4096)
	a2 := randomRow(rng, 4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		XOR(a1, a2)
	}
}
