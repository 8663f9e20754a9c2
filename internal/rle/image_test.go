package rle

import (
	"math/rand"
	"testing"
)

func randomImage(rng *rand.Rand, width, height int) *Image {
	img := NewImage(width, height)
	for y := range img.Rows {
		img.Rows[y] = randomRow(rng, width)
	}
	return img
}

func TestNewImage(t *testing.T) {
	img := NewImage(10, 5)
	if img.Width != 10 || img.Height != 5 || len(img.Rows) != 5 {
		t.Fatalf("NewImage = %+v", img)
	}
	if err := img.Validate(); err != nil {
		t.Errorf("fresh image invalid: %v", err)
	}
	if img.Area() != 0 || img.Density() != 0 {
		t.Error("fresh image should be empty")
	}
}

func TestImageResetReusesRows(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	img := randomImage(rng, 64, 8)
	img.Reset(10, 3)
	if img.Width != 10 || img.Height != 3 || len(img.Rows) != 3 || img.Area() != 0 {
		t.Fatalf("Reset(10, 3) = %dx%d, %d rows, area %d", img.Width, img.Height, len(img.Rows), img.Area())
	}
	img.Reset(64, 12)
	if len(img.Rows) != 12 || img.Area() != 0 || img.Validate() != nil {
		t.Fatalf("Reset(64, 12): %d rows, area %d", len(img.Rows), img.Area())
	}
	if n := testing.AllocsPerRun(10, func() {
		img.Reset(64, 12)
		for y := range img.Rows {
			img.Rows[y] = append(img.Rows[y], Run{Start: y, Length: 1})
		}
	}); n != 0 {
		t.Errorf("warm Reset and refill: %v allocs, want 0", n)
	}
}

func TestNewImagePanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for negative dimensions")
		}
	}()
	NewImage(-1, 5)
}

func TestImageValidate(t *testing.T) {
	img := NewImage(8, 2)
	img.Rows[1] = Row{{6, 5}} // exceeds width
	if err := img.Validate(); err == nil {
		t.Error("Validate accepted out-of-bounds row")
	}
	img.Rows[1] = nil
	img.Rows = img.Rows[:1]
	if err := img.Validate(); err == nil {
		t.Error("Validate accepted row/height mismatch")
	}
}

func TestImageRowAccess(t *testing.T) {
	img := NewImage(16, 3)
	img.SetRow(1, Row{{2, 3}})
	if !img.Get(2, 1) || !img.Get(4, 1) || img.Get(5, 1) {
		t.Error("Get disagrees with SetRow")
	}
	if img.Row(-1) != nil || img.Row(3) != nil {
		t.Error("out-of-range Row should be nil")
	}
	if img.Get(2, -5) || img.Get(2, 99) {
		t.Error("out-of-range Get should be background")
	}
}

func TestSetRowPanicsOutOfRange(t *testing.T) {
	img := NewImage(4, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("SetRow out of range did not panic")
		}
	}()
	img.SetRow(2, nil)
}

func TestImageAggregates(t *testing.T) {
	img := NewImage(32, 2)
	img.SetRow(0, fig1Img1()) // area 10, 4 runs
	img.SetRow(1, fig1Img2()) // area 20, 5 runs
	if got := img.Area(); got != 30 {
		t.Errorf("Area = %d, want 30", got)
	}
	if got := img.RunCount(); got != 9 {
		t.Errorf("RunCount = %d, want 9", got)
	}
	if got, want := img.Density(), 30.0/64.0; got != want {
		t.Errorf("Density = %v, want %v", got, want)
	}
}

func TestImageCloneAndEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	img := randomImage(rng, 64, 16)
	cp := img.Clone()
	if !img.Equal(cp) {
		t.Fatal("clone not equal")
	}
	if len(cp.Rows[0]) > 0 {
		cp.Rows[0][0].Start++
		if img.Equal(cp) {
			t.Fatal("mutation of clone affected equality — aliasing?")
		}
		if img.Rows[0][0] == cp.Rows[0][0] {
			t.Fatal("clone aliases original rows")
		}
	}
	other := NewImage(64, 15)
	if img.Equal(other) {
		t.Error("images of different heights reported equal")
	}
}

func TestImageEqualIsCanonical(t *testing.T) {
	a := NewImage(16, 1)
	b := NewImage(16, 1)
	a.SetRow(0, Row{{0, 3}, {3, 3}})
	b.SetRow(0, Row{{0, 6}})
	if !a.Equal(b) {
		t.Error("Equal should compare canonically")
	}
}

func TestImageCanonicalize(t *testing.T) {
	img := NewImage(16, 1)
	img.SetRow(0, Row{{0, 3}, {3, 3}})
	img.Canonicalize()
	if !img.Rows[0].Equal(Row{{0, 6}}) {
		t.Errorf("Canonicalize left %v", img.Rows[0])
	}
}

func TestXORImage(t *testing.T) {
	a := NewImage(32, 2)
	b := NewImage(32, 2)
	a.SetRow(0, fig1Img1())
	b.SetRow(0, fig1Img2())
	a.SetRow(1, Row{{0, 4}})
	b.SetRow(1, Row{{0, 4}})
	diff, err := XORImage(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !diff.Rows[0].Equal(Row{{3, 4}, {8, 2}, {15, 1}, {18, 2}, {30, 1}}) {
		t.Errorf("row 0 diff = %v", diff.Rows[0])
	}
	if len(diff.Rows[1]) != 0 {
		t.Errorf("row 1 diff = %v, want empty", diff.Rows[1])
	}
}

func TestXORImageSizeMismatch(t *testing.T) {
	if _, err := XORImage(NewImage(4, 4), NewImage(4, 5)); err == nil {
		t.Error("size mismatch not reported")
	}
}
