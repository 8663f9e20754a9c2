package bitmap

import (
	"math/rand"
	"testing"
	"testing/quick"

	"sysrle/internal/rle"
)

func TestRowRunsAgainstScan(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 100; trial++ {
		width := 1 + rng.Intn(400)
		b := Random(rng, width, 1, rng.Float64())
		got := b.RowRuns(0)
		bits := make([]bool, width)
		for x := 0; x < width; x++ {
			bits[x] = b.Get(x, 0)
		}
		want := rle.FromBits(bits)
		if !got.Equal(want) {
			t.Fatalf("RowRuns = %v, want %v (width %d)", got, want, width)
		}
		if !got.Canonical() {
			t.Fatalf("RowRuns not canonical: %v", got)
		}
	}
}

func TestRowRunsWordBoundaries(t *testing.T) {
	b := New(192, 1)
	b.SetRange(0, 60, 70, true)   // spans word 0→1
	b.SetRange(0, 127, 128, true) // spans word 1→2
	b.SetRange(0, 190, 191, true) // ends at width
	got := b.RowRuns(0)
	want := rle.Row{{Start: 60, Length: 11}, {Start: 127, Length: 2}, {Start: 190, Length: 2}}
	if !got.Equal(want) {
		t.Errorf("RowRuns = %v, want %v", got, want)
	}
}

func TestRowRunsFullRow(t *testing.T) {
	b := New(130, 1)
	b.Fill(true)
	got := b.RowRuns(0)
	if !got.Equal(rle.Row{{Start: 0, Length: 130}}) {
		t.Errorf("full row = %v", got)
	}
}

func TestRowRunsOutOfRange(t *testing.T) {
	b := New(8, 2)
	if b.RowRuns(-1) != nil || b.RowRuns(2) != nil {
		t.Error("out-of-range RowRuns should be nil")
	}
}

func TestRLERoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := Random(rng, 1+rng.Intn(200), 1+rng.Intn(10), rng.Float64())
		return FromRLE(b.ToRLE()).Equal(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestFromRLEClipsWideRuns(t *testing.T) {
	img := rle.NewImage(16, 1)
	img.Rows[0] = rle.Row{{Start: 10, Length: 100}} // extends past width; FromRLE must clip
	b := FromRLE(img)
	if got := b.RowRuns(0); !got.Equal(rle.Row{{Start: 10, Length: 6}}) {
		t.Errorf("clipped row = %v", got)
	}
}

// randomFragmentedRow draws a valid-but-possibly-non-canonical row:
// canonical random runs, some of which are split into adjacent
// fragments (the encodings the paper explicitly permits as inputs).
func randomFragmentedRow(rng *rand.Rand, width int) rle.Row {
	var row rle.Row
	x := rng.Intn(4)
	for x < width {
		l := 1 + rng.Intn(9)
		if x+l > width {
			l = width - x
		}
		if l >= 2 && rng.Intn(3) == 0 {
			// Split into two adjacent fragments.
			cut := 1 + rng.Intn(l-1)
			row = append(row, rle.Run{Start: x, Length: cut},
				rle.Run{Start: x + cut, Length: l - cut})
		} else {
			row = append(row, rle.Run{Start: x, Length: l})
		}
		x += l + 1 + rng.Intn(6)
	}
	return row
}

// TestRLERoundTripAdversarial covers the shapes the quick round trip
// rarely draws: zero-width and zero-height images, full rows, runs
// straddling word boundaries, exact multi-word widths, and
// non-canonical adjacent fragments (ToRLE must canonicalize).
func TestRLERoundTripAdversarial(t *testing.T) {
	t.Run("zero-size", func(t *testing.T) {
		for _, dims := range [][2]int{{0, 0}, {0, 5}, {5, 0}} {
			img := rle.NewImage(dims[0], dims[1])
			b := FromRLE(img)
			if b.Width() != dims[0] || b.Height() != dims[1] {
				t.Fatalf("dims %v: got %dx%d", dims, b.Width(), b.Height())
			}
			if !b.ToRLE().Equal(img) {
				t.Fatalf("dims %v: round trip changed the image", dims)
			}
		}
	})
	t.Run("full-and-boundary-rows", func(t *testing.T) {
		for _, width := range []int{1, 63, 64, 65, 127, 128, 129, 192} {
			img := rle.NewImage(width, 4)
			img.Rows[0] = rle.Row{{Start: 0, Length: width}} // full row
			if width > 2 {
				// Adjacent fragments across the whole row (non-canonical).
				img.Rows[1] = rle.Row{{Start: 0, Length: width / 2}, {Start: width / 2, Length: width - width/2}}
				// Single pixel at each end.
				img.Rows[2] = rle.Row{{Start: 0, Length: 1}, {Start: width - 1, Length: 1}}
			}
			if width > 64 {
				// Straddles the first word boundary, staying in range.
				l := 4
				if 62+l > width {
					l = width - 62
				}
				img.Rows[3] = rle.Row{{Start: 62, Length: l}}
			}
			back := FromRLE(img).ToRLE()
			if back.Width != width || back.Height != 4 {
				t.Fatalf("width %d: wrong dims %dx%d", width, back.Width, back.Height)
			}
			for y := 0; y < 4; y++ {
				if !back.Rows[y].Equal(img.Rows[y].Canonicalize()) {
					t.Fatalf("width %d row %d: %v, want %v", width, y, back.Rows[y], img.Rows[y].Canonicalize())
				}
				if !back.Rows[y].Canonical() {
					t.Fatalf("width %d row %d: ToRLE emitted non-canonical %v", width, y, back.Rows[y])
				}
			}
		}
	})
	t.Run("fragmented-random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(59))
		for trial := 0; trial < 120; trial++ {
			width, height := 1+rng.Intn(200), 1+rng.Intn(6)
			img := rle.NewImage(width, height)
			for y := 0; y < height; y++ {
				img.Rows[y] = randomFragmentedRow(rng, width)
			}
			back := FromRLE(img).ToRLE()
			for y := 0; y < height; y++ {
				if !back.Rows[y].Equal(img.Rows[y].Canonicalize()) {
					t.Fatalf("%dx%d row %d: %v, want %v", width, height, y, back.Rows[y], img.Rows[y].Canonicalize())
				}
			}
		}
	})
}
