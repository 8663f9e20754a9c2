package runmorph

import (
	"math/rand"
	"testing"

	"sysrle/internal/rle"
)

// bruteMorph is the naive pixel reference: O(W·H·w·h), no interval
// algebra at all. Foreground outside the frame is background.
func bruteMorph(img *rle.Image, se SE, dilate bool) *rle.Image {
	out := rle.NewImage(img.Width, img.Height)
	for y := 0; y < img.Height; y++ {
		bits := make([]bool, img.Width)
		for x := 0; x < img.Width; x++ {
			if dilate {
				// x set iff some offset (dx,dy) of the SE has (x-dx, y-dy) set.
				for dy := -se.OY; dy <= se.H-1-se.OY && !bits[x]; dy++ {
					for dx := -se.OX; dx <= se.W-1-se.OX && !bits[x]; dx++ {
						if img.Get(x-dx, y-dy) {
							bits[x] = true
						}
					}
				}
			} else {
				all := true
				for dy := -se.OY; dy <= se.H-1-se.OY && all; dy++ {
					for dx := -se.OX; dx <= se.W-1-se.OX && all; dx++ {
						if !img.Get(x+dx, y+dy) {
							all = false
						}
					}
				}
				bits[x] = all
			}
		}
		out.Rows[y] = rle.FromBits(bits)
	}
	return out
}

func randomImage(rng *rand.Rand, w, h int, density float64) *rle.Image {
	img := rle.NewImage(w, h)
	for y := 0; y < h; y++ {
		bits := make([]bool, w)
		for x := range bits {
			bits[x] = rng.Float64() < density
		}
		img.Rows[y] = rle.FromBits(bits)
	}
	return img
}

var testSEs = []SE{
	Box(0),
	Box(1),
	Box(2),
	Rect(4, 2),
	Rect(2, 4),
	Rect(5, 1),
	Rect(1, 5),
	Rect(3, 3).At(0, 0),
	Rect(3, 3).At(2, 2),
	Rect(4, 3).At(3, 0),
	Rect(2, 2),
	Rect(7, 2).At(1, 1),
}

func TestDilateErodeAgainstBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(1999))
	for trial := 0; trial < 4; trial++ {
		img := randomImage(rng, 48, 20, []float64{0.05, 0.3, 0.6, 0.9}[trial])
		for _, se := range testSEs {
			got, err := Dilate(img, se)
			if err != nil {
				t.Fatalf("Dilate %v: %v", se, err)
			}
			if want := bruteMorph(img, se, true); !got.Equal(want) {
				t.Errorf("trial %d SE %v: dilation disagrees with pixel reference", trial, se)
			}
			got, err = Erode(img, se)
			if err != nil {
				t.Fatalf("Erode %v: %v", se, err)
			}
			if want := bruteMorph(img, se, false); !got.Equal(want) {
				t.Errorf("trial %d SE %v: erosion disagrees with pixel reference", trial, se)
			}
		}
	}
}

func TestAppendContract(t *testing.T) {
	row := rle.Row{rle.Span(3, 5), rle.Span(9, 9), rle.Span(12, 20)}
	prefix := rle.Row{rle.Span(100, 101)}
	got := AppendDilateRow(prefix, row, 1, 2, 64)
	if got[0] != rle.Span(100, 101) {
		t.Fatalf("AppendDilateRow touched the prefix: %v", got)
	}
	if want := (rle.Row{rle.Span(2, 7), rle.Span(8, 11), rle.Span(11, 22)}); false {
		_ = want
	}
	// Appended suffix must be canonical and equal the allocating path.
	suffix := got[1:]
	if err := suffix.Validate(64); err != nil || !suffix.Canonical() {
		t.Errorf("appended dilation not canonical: %v (%v)", suffix, err)
	}
	if want := AppendDilateRow(nil, row, 1, 2, 64); !suffix.Equal(want) {
		t.Errorf("prefix changed the suffix: %v vs %v", suffix, want)
	}

	got = AppendErodeRow(prefix, row, 1, 2)
	if got[0] != rle.Span(100, 101) {
		t.Fatalf("AppendErodeRow touched the prefix: %v", got)
	}
	suffix = got[1:]
	if err := suffix.Validate(-1); err != nil || !suffix.Canonical() {
		t.Errorf("appended erosion not canonical: %v (%v)", suffix, err)
	}
}

// TestRowPrimitivesMergeFragments pins the distributivity trap the
// oracle once caught in the old engine: erosion must merge adjacent
// valid-but-fragmented runs before shrinking, and dilation must merge
// overlapping grown translates.
func TestRowPrimitivesMergeFragments(t *testing.T) {
	frag := rle.Row{{Start: 24, Length: 4}, {Start: 28, Length: 4}, {Start: 32, Length: 2}}
	got := AppendErodeRow(nil, frag, 2, 2)
	if want := (rle.Row{rle.Span(26, 31)}); !got.Equal(want) {
		t.Errorf("fragmented erosion = %v, want %v", got, want)
	}
	dil := AppendDilateRow(nil, frag, 2, 2, 64)
	if want := (rle.Row{rle.Span(22, 35)}); !dil.Equal(want) {
		t.Errorf("fragmented dilation = %v, want %v", dil, want)
	}
}

// Regression, found by the cross-engine oracle's non-canonical
// corpus: erosion used to erode each run independently, so a
// contiguous stretch encoded as adjacent fragments (a valid row per
// the paper) vanished entirely — each fragment is shorter than the
// SE — instead of eroding as one maximal stretch.
func TestErodeRowMergesAdjacentFragments(t *testing.T) {
	// [24,33] as three adjacent fragments; erosion by 2 must give
	// [26,31], exactly as for the canonical encoding.
	fragments := rle.Row{{Start: 24, Length: 4}, {Start: 28, Length: 4}, {Start: 32, Length: 2}}
	want := rle.Row{{Start: 26, Length: 6}}
	if got := AppendErodeRow(nil, fragments, 2, 2); !got.Equal(want) {
		t.Fatalf("erode(fragments, 2) = %v, want %v", got, want)
	}
	if got := AppendErodeRow(nil, fragments.Canonicalize(), 2, 2); !got.Equal(want) {
		t.Fatalf("erode(canonical, 2) = %v, want %v", got, want)
	}
	// The minimized oracle finding: two adjacent single-pixel runs
	// survive erosion by 0 untouched but must not be double-eroded or
	// dropped at 1.
	pairRow := rle.Row{{Start: 105, Length: 1}, {Start: 106, Length: 1}}
	if got := AppendErodeRow(nil, pairRow, 0, 0); got.Area() != 2 {
		t.Fatalf("erode(adjacent pair, 0) = %v, want area 2", got)
	}
	if got := AppendErodeRow(nil, pairRow, 1, 1); len(got) != 0 {
		t.Fatalf("erode(adjacent pair, 1) = %v, want empty", got)
	}
}

// TestDilateRowMergesAndClips: touching grown runs merge, an empty row
// stays empty, and growth clips at both borders.
func TestDilateRowMergesAndClips(t *testing.T) {
	row := rle.Row{{Start: 5, Length: 2}, {Start: 10, Length: 2}}
	// (3..8) and (8..13) merge into (3..13).
	if got, want := AppendDilateRow(nil, row, 2, 2, 20), (rle.Row{{Start: 3, Length: 11}}); !got.Equal(want) {
		t.Errorf("dilate = %v, want %v", got, want)
	}
	if got := AppendDilateRow(nil, nil, 3, 3, 20); len(got) != 0 {
		t.Errorf("empty row dilated to %v", got)
	}
	got := AppendDilateRow(nil, rle.Row{{Start: 0, Length: 1}, {Start: 19, Length: 1}}, 2, 2, 20)
	if want := (rle.Row{{Start: 0, Length: 3}, {Start: 17, Length: 3}}); !got.Equal(want) {
		t.Errorf("border dilate = %v, want %v", got, want)
	}
}

// TestErodeRowShrinks: every stretch shrinks by the extents, short ones
// vanish, and zero extents are the identity.
func TestErodeRowShrinks(t *testing.T) {
	row := rle.Row{{Start: 5, Length: 7}, {Start: 20, Length: 4}, {Start: 30, Length: 5}}
	// len 7 → (7,3); len 4 vanishes; len 5 → (32,1).
	if got, want := AppendErodeRow(nil, row, 2, 2), (rle.Row{{Start: 7, Length: 3}, {Start: 32, Length: 1}}); !got.Equal(want) {
		t.Errorf("erode = %v, want %v", got, want)
	}
	if got := AppendErodeRow(nil, row, 0, 0); !got.Equal(row) {
		t.Errorf("zero-extent erode changed the row: %v", got)
	}
}

func TestRowPrimitiveClipping(t *testing.T) {
	row := rle.Row{rle.Span(0, 1), rle.Span(30, 31)}
	got := AppendDilateRow(nil, row, 3, 3, 32)
	if want := (rle.Row{rle.Span(0, 4), rle.Span(27, 31)}); !got.Equal(want) {
		t.Errorf("clipped dilation = %v, want %v", got, want)
	}
	// A run entirely outside after asymmetric growth is dropped, not
	// emitted empty.
	edge := rle.Row{rle.Span(0, 0)}
	if got := AppendDilateRow(nil, edge, 0, 2, 32); !got.Equal(rle.Row{rle.Span(0, 2)}) {
		t.Errorf("asymmetric edge dilation = %v", got)
	}
	if got := AppendDilateRow(nil, edge, 2, 0, -1); !got.Equal(rle.Row{rle.Span(-2, 0)}) {
		t.Errorf("unclipped dilation = %v", got)
	}
}

func TestRowPrimitivesPanicOnNegativeExtents(t *testing.T) {
	for _, f := range []func(){
		func() { AppendDilateRow(nil, rle.Row{rle.Span(0, 3)}, -1, 0, 8) },
		func() { AppendErodeRow(nil, rle.Row{rle.Span(0, 3)}, 0, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("negative extent accepted")
				}
			}()
			f()
		}()
	}
}

// TestDilateRowPanicsOnNegativeRadius: a symmetric negative radius is
// rejected even when the row is empty and no run would be grown.
func TestDilateRowPanicsOnNegativeRadius(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	AppendDilateRow(nil, nil, -1, -1, 10)
}

func TestSEValidation(t *testing.T) {
	bad := []SE{
		{W: 0, H: 1},
		{W: 1, H: 0},
		{W: -3, H: 3, OX: 1, OY: 1},
		Rect(3, 3).At(3, 0),
		Rect(3, 3).At(0, -1),
	}
	for _, se := range bad {
		if se.Validate() == nil {
			t.Errorf("SE %v accepted", se)
		}
		if _, err := Dilate(rle.NewImage(8, 8), se); err == nil {
			t.Errorf("Dilate accepted %v", se)
		}
		if _, err := Erode(rle.NewImage(8, 8), se); err == nil {
			t.Errorf("Erode accepted %v", se)
		}
		if _, err := Close(rle.NewImage(8, 8), se); err == nil {
			t.Errorf("Close accepted %v", se)
		}
	}
	if err := Rect(4, 2).At(3, 1).Validate(); err != nil {
		t.Errorf("corner origin rejected: %v", err)
	}
}

func TestComposeDecompose(t *testing.T) {
	a, b := Rect(4, 2).At(0, 1), Rect(3, 5).At(2, 0)
	c := Compose(a, b)
	if c.W != 6 || c.H != 6 || c.OX != 2 || c.OY != 1 {
		t.Fatalf("Compose = %v", c)
	}
	rng := rand.New(rand.NewSource(7))
	img := randomImage(rng, 40, 18, 0.25)
	direct, err := Dilate(img, c)
	if err != nil {
		t.Fatal(err)
	}
	chained, err := DilateSeq(img, []SE{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if !direct.Equal(chained) {
		t.Error("dilation by composed SE differs from chained dilations")
	}
	eDirect, err := Erode(img, c)
	if err != nil {
		t.Fatal(err)
	}
	eChained, err := ErodeSeq(img, []SE{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if !eDirect.Equal(eChained) {
		t.Error("erosion by composed SE differs from chained erosions")
	}
	for _, se := range testSEs {
		if got := Compose(se.Decompose()[0], last(se.Decompose())); len(se.Decompose()) == 2 && got != se {
			t.Errorf("Decompose(%v) does not recompose: %v", se, got)
		}
		dec, err := DilateSeq(img, se.Decompose())
		if err != nil {
			t.Fatal(err)
		}
		dir, err := Dilate(img, se)
		if err != nil {
			t.Fatal(err)
		}
		if !dec.Equal(dir) {
			t.Errorf("decomposed dilation differs for %v", se)
		}
	}
}

func last(ses []SE) SE { return ses[len(ses)-1] }

func TestReflect(t *testing.T) {
	se := Rect(4, 3).At(0, 2)
	r := se.Reflect()
	if r.OX != 3 || r.OY != 0 || r.W != 4 || r.H != 3 {
		t.Fatalf("Reflect = %v", r)
	}
	if se.Reflect().Reflect() != se {
		t.Error("Reflect not involutive")
	}
}

func TestDerivedOps(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	img := randomImage(rng, 60, 24, 0.35)
	for _, se := range []SE{Box(1), Rect(4, 2), Rect(3, 3).At(0, 2), Rect(2, 5).At(1, 1)} {
		opened, err := Open(img, se)
		if err != nil {
			t.Fatal(err)
		}
		closed, err := Close(img, se)
		if err != nil {
			t.Fatal(err)
		}
		// Anti-extensivity / extensivity.
		for y := range img.Rows {
			if len(rle.AndNot(opened.Rows[y], img.Rows[y])) != 0 {
				t.Fatalf("%v: opening not anti-extensive at row %d", se, y)
			}
			if len(rle.AndNot(img.Rows[y], closed.Rows[y])) != 0 {
				t.Fatalf("%v: closing not extensive at row %d", se, y)
			}
		}
		// Idempotence.
		opened2, err := Open(opened, se)
		if err != nil {
			t.Fatal(err)
		}
		if !opened2.Equal(opened) {
			t.Errorf("%v: opening not idempotent", se)
		}
		closed2, err := Close(closed, se)
		if err != nil {
			t.Fatal(err)
		}
		if !closed2.Equal(closed) {
			t.Errorf("%v: closing not idempotent", se)
		}
		// Gradient = dilation minus erosion, and contains the morphological
		// boundary of the foreground.
		grad, err := Gradient(img, se)
		if err != nil {
			t.Fatal(err)
		}
		dil, _ := Dilate(img, se)
		ero, _ := Erode(img, se)
		for y := range grad.Rows {
			if !grad.Rows[y].EqualBits(rle.AndNot(dil.Rows[y], ero.Rows[y])) {
				t.Fatalf("%v: gradient row %d mismatch", se, y)
			}
		}
		// Top-hat/black-hat definitions.
		th, err := TopHat(img, se)
		if err != nil {
			t.Fatal(err)
		}
		bh, err := BlackHat(img, se)
		if err != nil {
			t.Fatal(err)
		}
		for y := range img.Rows {
			if !th.Rows[y].EqualBits(rle.AndNot(img.Rows[y], opened.Rows[y])) {
				t.Fatalf("%v: top-hat row %d mismatch", se, y)
			}
			if !bh.Rows[y].EqualBits(rle.AndNot(closed.Rows[y], img.Rows[y])) {
				t.Fatalf("%v: black-hat row %d mismatch", se, y)
			}
		}
	}
}

// TestCloseMatchesPaddedBrute pins the border convention of Close: it
// must behave as if computed on an infinitely padded canvas.
func TestCloseMatchesPaddedBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	img := randomImage(rng, 32, 14, 0.4)
	for _, se := range []SE{Box(1), Rect(4, 2), Rect(5, 3).At(4, 0)} {
		got, err := Close(img, se)
		if err != nil {
			t.Fatal(err)
		}
		// Brute reference on a canvas padded well beyond the SE.
		pad := se.W + se.H
		padded := rle.NewImage(img.Width+2*pad, img.Height+2*pad)
		rle.Paste(padded, img, pad, pad)
		dil := bruteMorph(padded, se, true)
		ero := bruteMorph(dil, se, false)
		want, err := rle.Crop(ero, pad, pad, img.Width, img.Height)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Errorf("%v: Close differs from padded brute force", se)
		}
	}
}

func TestHitOrMiss(t *testing.T) {
	// Isolated-pixel detector: centre set, 4-neighbourhood clear.
	pat, err := ParsePattern([]string{
		".0.",
		"010",
		".0.",
	}, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	img := rle.NewImage(8, 5)
	img.Rows[1] = rle.Row{rle.Span(2, 2)} // isolated
	img.Rows[3] = rle.Row{rle.Span(4, 5)} // pair: neither isolated
	img.Rows[0] = rle.Row{rle.Span(7, 7)} // corner, isolated
	got, err := HitOrMiss(img, pat)
	if err != nil {
		t.Fatal(err)
	}
	want := rle.NewImage(8, 5)
	want.Rows[1] = rle.Row{rle.Span(2, 2)}
	want.Rows[0] = rle.Row{rle.Span(7, 7)}
	if !got.Equal(want) {
		t.Errorf("hit-or-miss = %+v, want %+v", got.Rows, want.Rows)
	}

	// Brute check on random images: right-edge detector (fg at origin,
	// bg to its right).
	edge := Pattern{Fg: []Offset{{0, 0}}, Bg: []Offset{{1, 0}}}
	rng := rand.New(rand.NewSource(5))
	rimg := randomImage(rng, 24, 10, 0.5)
	res, err := HitOrMiss(rimg, edge)
	if err != nil {
		t.Fatal(err)
	}
	for y := 0; y < rimg.Height; y++ {
		for x := 0; x < rimg.Width; x++ {
			want := rimg.Get(x, y) && !rimg.Get(x+1, y)
			if res.Get(x, y) != want {
				t.Fatalf("edge HMT wrong at (%d,%d)", x, y)
			}
		}
	}

	if _, err := ParsePattern([]string{"1?0"}, 0, 0); err == nil {
		t.Error("bad pattern cell accepted")
	}
}

// TestOpReuse pins buffer hygiene: an Op reused across differently
// sized images and ops must keep producing outputs that don't alias
// its scratch.
func TestOpReuse(t *testing.T) {
	var o Op
	rng := rand.New(rand.NewSource(3))
	imgs := []*rle.Image{
		randomImage(rng, 50, 20, 0.3),
		randomImage(rng, 17, 33, 0.6),
		randomImage(rng, 50, 20, 0.1),
	}
	se := Rect(3, 4).At(2, 1)
	for _, img := range imgs {
		got, err := o.Dilate(img, se)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteMorph(img, se, true)
		snapshot := got.Clone()
		// A second operation on the same Op must not corrupt the first
		// result.
		if _, err := o.Erode(imgs[0], se); err != nil {
			t.Fatal(err)
		}
		if !got.Equal(snapshot) || !got.Equal(want) {
			t.Error("Op reuse corrupted an earlier output")
		}
	}
}

// TestDilateIntoMatchesDilate: DilateInto into one reused image, warm
// from earlier and differently sized results, gives exactly Dilate's
// rows, and allocates nothing once that image is large enough.
func TestDilateIntoMatchesDilate(t *testing.T) {
	var o Op
	var dst rle.Image
	rng := rand.New(rand.NewSource(25))
	for i := 0; i < 40; i++ {
		img := randomImage(rng, 1+rng.Intn(40), 1+rng.Intn(30), 0.2+0.5*rng.Float64())
		se := testSEs[i%len(testSEs)]
		want, err := o.Dilate(img, se)
		if err != nil {
			t.Fatal(err)
		}
		if err := o.DilateInto(&dst, img, se); err != nil {
			t.Fatal(err)
		}
		if dst.Width != want.Width || dst.Height != want.Height {
			t.Fatalf("DilateInto frame %dx%d, want %dx%d", dst.Width, dst.Height, want.Width, want.Height)
		}
		for y := range want.Rows {
			if !dst.Rows[y].Equal(want.Rows[y]) {
				t.Fatalf("case %d row %d: DilateInto %v, Dilate %v", i, y, dst.Rows[y], want.Rows[y])
			}
		}
	}
	img := randomImage(rng, 30, 20, 0.4)
	if n := testing.AllocsPerRun(10, func() { o.DilateInto(&dst, img, Box(1)) }); n != 0 {
		t.Errorf("warm DilateInto: %v allocs, want 0", n)
	}
	if err := o.DilateInto(&dst, img, Rect(0, 1)); err == nil {
		t.Error("DilateInto accepted an invalid SE")
	}
}

func TestEmptyAndIdentity(t *testing.T) {
	img := rle.NewImage(16, 6)
	img.Rows[2] = rle.Row{rle.Span(4, 9)}
	id, err := Dilate(img, Box(0))
	if err != nil {
		t.Fatal(err)
	}
	if !id.Equal(img) {
		t.Error("Box(0) dilation is not the identity")
	}
	id, err = Erode(img, Box(0))
	if err != nil {
		t.Fatal(err)
	}
	if !id.Equal(img) {
		t.Error("Box(0) erosion is not the identity")
	}
	empty := rle.NewImage(0, 0)
	if _, err := Dilate(empty, Box(2)); err != nil {
		t.Errorf("empty image: %v", err)
	}
	if _, err := Close(empty, Box(2)); err != nil {
		t.Errorf("empty close: %v", err)
	}
}
