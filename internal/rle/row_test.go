package rle

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// fig1Img1 and fig1Img2 are the paper's Figure 1 inputs.
func fig1Img1() Row {
	return Row{{10, 3}, {16, 2}, {23, 2}, {27, 3}}
}

func fig1Img2() Row {
	return Row{{3, 4}, {8, 5}, {15, 5}, {23, 2}, {27, 4}}
}

// randomRow produces a valid (canonical) row of the given width using
// the supplied RNG; exported within the package for other test files.
func randomRow(rng *rand.Rand, width int) Row {
	var row Row
	pos := rng.Intn(4)
	for pos < width {
		length := 1 + rng.Intn(8)
		if pos+length > width {
			length = width - pos
		}
		if length <= 0 {
			break
		}
		row = append(row, Run{Start: pos, Length: length})
		pos += length + 1 + rng.Intn(10) // +1 gap keeps it canonical
	}
	return row
}

func TestValidateAcceptsFigure1(t *testing.T) {
	if err := fig1Img1().Validate(32); err != nil {
		t.Errorf("img1: %v", err)
	}
	if err := fig1Img2().Validate(32); err != nil {
		t.Errorf("img2: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		row  Row
	}{
		{"zero length", Row{{5, 0}}},
		{"negative start", Row{{-1, 3}}},
		{"non increasing", Row{{5, 2}, {5, 3}}},
		{"decreasing", Row{{9, 2}, {3, 3}}},
		{"overlap", Row{{0, 5}, {4, 2}}},
		{"beyond width", Row{{30, 5}}},
	}
	for _, c := range cases {
		if err := c.row.Validate(32); err == nil {
			t.Errorf("%s: Validate accepted %v", c.name, c.row)
		}
	}
}

func TestValidateSkipsBoundsWhenNegativeWidth(t *testing.T) {
	if err := (Row{{1000, 1000}}).Validate(-1); err != nil {
		t.Errorf("unbounded validate rejected in-variant row: %v", err)
	}
}

// validateLoop is Validate as a plain run-by-run loop, kept as the
// oracle for the one-pass fast path: every verdict and every error
// string must match it.
func validateLoop(w Row, width int) error {
	for i, r := range w {
		if !r.Valid() {
			return fmt.Errorf("rle: run %d %v is malformed", i, r)
		}
		if width >= 0 && r.End() >= width {
			return fmt.Errorf("rle: run %d %v exceeds width %d", i, r, width)
		}
		if i > 0 {
			prev := w[i-1]
			if r.Start <= prev.Start {
				return fmt.Errorf("rle: run %d %v does not increase after %v", i, r, prev)
			}
			if prev.End() >= r.Start {
				return fmt.Errorf("rle: run %d %v overlaps %v", i, r, prev)
			}
		}
	}
	return nil
}

func TestValidateMatchesLoop(t *testing.T) {
	check := func(row Row, width int) {
		t.Helper()
		got, want := row.Validate(width), validateLoop(row, width)
		if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
			t.Errorf("Validate(%v, %d) = %v, loop says %v", row, width, got, want)
		}
	}
	const maxInt = int(^uint(0) >> 1)
	cases := []Row{
		nil,
		{{-1, 3}},                         // negative start
		{{5, 0}},                          // zero length
		{{2, 3}, {5, -1}},                 // negative length after a valid run
		{{5, 2}, {5, 3}},                  // equal starts
		{{0, 5}, {4, 2}},                  // overlap
		{{0, 5}, {5, 2}},                  // adjacent: valid, not canonical
		{{9, 2}, {3, 3}},                  // decreasing
		{{0, 31}, {31, 1}},                // ends at width-1: valid
		{{30, 2}},                         // end == width
		{{30, 5}},                         // beyond width
		{{2, maxInt}},                     // Start+Length overflows
		{{2, maxInt}, {1, 1}},             // overflowed run, then a lower start
		{{2, maxInt}, {2, 1}},             // overflowed run, then an equal start
		{{2, maxInt}, {10, 1}},            // overflowed run, then a higher start
		{{1, maxInt}, {maxInt, 1}},        // End() == MaxInt exactly
		{{0, 3}, {maxInt - 1, 2}, {4, 1}}, // overflow mid-row
	}
	for _, row := range cases {
		for _, width := range []int{-1, 0, 1, 32, maxInt} {
			check(row, width)
		}
	}
	rng := rand.New(rand.NewSource(1999))
	for i := 0; i < 2000; i++ {
		width := 1 + rng.Intn(200)
		row := randomRow(rng, width)
		check(row, width)
		check(row, -1)
		if len(row) == 0 {
			continue
		}
		// Perturb one run so it breaks (or, by chance, keeps) an
		// invariant anywhere in the row.
		bad := row.Clone()
		j := rng.Intn(len(bad))
		bad[j].Start += rng.Intn(21) - 10
		bad[j].Length += rng.Intn(11) - 5
		check(bad, width)
		check(bad, -1)
	}
}

func TestCanonicalize(t *testing.T) {
	cases := []struct {
		name string
		in   Row
		want Row
	}{
		{"empty", nil, nil},
		{"single", Row{{3, 4}}, Row{{3, 4}}},
		{"adjacent pair merges", Row{{0, 3}, {3, 2}}, Row{{0, 5}}},
		{"chain merges", Row{{0, 1}, {1, 1}, {2, 1}}, Row{{0, 3}}},
		{"gap preserved", Row{{0, 3}, {4, 2}}, Row{{0, 3}, {4, 2}}},
		{"overlap absorbed", Row{{0, 5}, {2, 2}}, Row{{0, 5}}},
		{"overlap extends", Row{{0, 5}, {3, 10}}, Row{{0, 13}}},
	}
	for _, c := range cases {
		got := c.in.Canonicalize()
		if !got.Equal(c.want) {
			t.Errorf("%s: Canonicalize(%v) = %v, want %v", c.name, c.in, got, c.want)
		}
		if !got.Canonical() {
			t.Errorf("%s: result %v not canonical", c.name, got)
		}
	}
}

func TestCanonicalPredicate(t *testing.T) {
	if !(Row{{0, 3}, {4, 2}}).Canonical() {
		t.Error("gapped row reported non-canonical")
	}
	if (Row{{0, 3}, {3, 2}}).Canonical() {
		t.Error("adjacent row reported canonical")
	}
	if (Row{{4, 2}, {0, 3}}).Canonical() {
		t.Error("invalid row reported canonical")
	}
}

func TestNormalizeSortsAndMerges(t *testing.T) {
	in := []Run{{8, 2}, {0, 3}, {3, 5}, {20, 1}, {15, 2}, {0, 0}, {-3, 2}}
	got := Normalize(in)
	want := Row{{0, 10}, {15, 2}, {20, 1}}
	if !got.Equal(want) {
		t.Errorf("Normalize = %v, want %v", got, want)
	}
}

func TestBitsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		width := 1 + rng.Intn(300)
		row := randomRow(rng, width)
		back := FromBits(row.Bits(width))
		if !back.Equal(row) {
			t.Fatalf("round trip: %v -> %v (width %d)", row, back, width)
		}
	}
}

func TestFromBitsProperty(t *testing.T) {
	// FromBits always yields a canonical row whose Bits reproduce the
	// input.
	f := func(bits []bool) bool {
		row := FromBits(bits)
		if !row.Canonical() {
			return false
		}
		got := row.Bits(len(bits))
		for i := range bits {
			if got[i] != bits[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestGetMatchesBits(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		width := 1 + rng.Intn(200)
		row := randomRow(rng, width)
		bits := row.Bits(width)
		for i := 0; i < width; i++ {
			if row.Get(i) != bits[i] {
				t.Fatalf("Get(%d) = %v disagrees with bits for %v", i, row.Get(i), row)
			}
		}
		if row.Get(-1) || row.Get(width+5) {
			t.Fatal("out-of-range Get returned foreground")
		}
	}
}

func TestAreaAndRunCount(t *testing.T) {
	row := fig1Img2()
	if got := row.Area(); got != 4+5+5+2+4 {
		t.Errorf("Area = %d, want 20", got)
	}
	if got := row.RunCount(); got != 5 {
		t.Errorf("RunCount = %d, want 5", got)
	}
	if (Row)(nil).Area() != 0 || (Row)(nil).RunCount() != 0 {
		t.Error("empty row has nonzero area or count")
	}
}

func TestCloneIndependence(t *testing.T) {
	row := fig1Img1()
	cp := row.Clone()
	cp[0].Start = 99
	if row[0].Start == 99 {
		t.Error("Clone aliases the original")
	}
	if (Row)(nil).Clone() != nil {
		t.Error("nil Clone should stay nil")
	}
}

func TestEqualBits(t *testing.T) {
	a := Row{{0, 3}, {3, 2}} // non-canonical encoding of 0..4
	b := Row{{0, 5}}
	if a.Equal(b) {
		t.Error("Equal should compare encodings, not bitstrings")
	}
	if !a.EqualBits(b) {
		t.Error("EqualBits should identify equivalent encodings")
	}
	if a.EqualBits(Row{{0, 4}}) {
		t.Error("EqualBits conflated different bitstrings")
	}
}

func TestClip(t *testing.T) {
	row := Row{{-5, 3}, {-2, 4}, {10, 5}, {28, 10}, {50, 3}}
	got := row.Clip(32)
	want := Row{{0, 2}, {10, 5}, {28, 4}}
	if !got.Equal(want) {
		t.Errorf("Clip = %v, want %v", got, want)
	}
	if err := got.Validate(32); err != nil {
		t.Errorf("clipped row invalid: %v", err)
	}
}

func TestShift(t *testing.T) {
	row := fig1Img1()
	right := row.Shift(3)
	for i := range row {
		if right[i].Start != row[i].Start+3 || right[i].Length != row[i].Length {
			t.Fatalf("Shift(3)[%d] = %v", i, right[i])
		}
	}
	if !row.Shift(5).Shift(-5).Equal(row) {
		t.Error("Shift is not invertible")
	}
}

func TestRowString(t *testing.T) {
	if got := (Row{{3, 4}, {8, 2}}).String(); got != "[(3,4) (8,2)]" {
		t.Errorf("String = %q", got)
	}
	if got := (Row)(nil).String(); got != "[]" {
		t.Errorf("nil String = %q", got)
	}
}
