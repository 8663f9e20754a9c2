package sysrle

import (
	"math/rand"
	"testing"

	"sysrle/internal/bitmap"
	"sysrle/internal/rle"
)

// The centred-box API (SE{Rx, Ry}) against pixel references: the
// facade's conversion to the (2Rx+1)×(2Ry+1) rectangle, the
// open/close algebra, and its input checks.

// boxRef is the pixel-level box morphology: dilation ORs the window,
// erosion ANDs it, with background outside the frame.
func boxRef(b *bitmap.Bitmap, se SE, dilate bool) *bitmap.Bitmap {
	out := bitmap.New(b.Width(), b.Height())
	for y := 0; y < b.Height(); y++ {
		for x := 0; x < b.Width(); x++ {
			v := !dilate
			for dy := -se.Ry; dy <= se.Ry; dy++ {
				for dx := -se.Rx; dx <= se.Rx; dx++ {
					if dilate {
						v = v || b.Get(x+dx, y+dy)
					} else {
						v = v && b.Get(x+dx, y+dy)
					}
				}
			}
			out.Set(x, y, v)
		}
	}
	return out
}

func TestBoxAgainstBitmapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(401))
	for trial := 0; trial < 40; trial++ {
		w, h := 10+rng.Intn(60), 5+rng.Intn(20)
		b := bitmap.Random(rng, w, h, 0.35)
		img := b.ToRLE()
		se := SE{Rx: rng.Intn(3), Ry: rng.Intn(3)}

		d, err := Dilate(img, se)
		if err != nil {
			t.Fatal(err)
		}
		if !bitmap.FromRLE(d).Equal(boxRef(b, se, true)) {
			t.Fatalf("Dilate(%+v) mismatch on %dx%d", se, w, h)
		}
		e, err := Erode(img, se)
		if err != nil {
			t.Fatal(err)
		}
		if !bitmap.FromRLE(e).Equal(boxRef(b, se, false)) {
			t.Fatalf("Erode(%+v) mismatch on %dx%d", se, w, h)
		}
	}
}

func TestBoxOpenCloseProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(409))
	for trial := 0; trial < 20; trial++ {
		w, h := 20+rng.Intn(50), 10+rng.Intn(20)
		img := bitmap.Random(rng, w, h, 0.4).ToRLE()
		se := Box(1)

		opened, err := Open(img, se)
		if err != nil {
			t.Fatal(err)
		}
		closed, err := Close(img, se)
		if err != nil {
			t.Fatal(err)
		}
		// Anti-extensivity / extensivity: open ⊆ img ⊆ close.
		for y := 0; y < h; y++ {
			if rle.AndNot(opened.Rows[y], img.Rows[y]) != nil {
				t.Fatalf("opening added pixels at row %d", y)
			}
			if rle.AndNot(img.Rows[y], closed.Rows[y]) != nil {
				t.Fatalf("closing removed pixels at row %d", y)
			}
		}
		// Idempotence.
		if opened2, err := Open(opened, se); err != nil || !opened2.Equal(opened) {
			t.Fatalf("opening not idempotent (err %v)", err)
		}
		if closed2, err := Close(closed, se); err != nil || !closed2.Equal(closed) {
			t.Fatalf("closing not idempotent (err %v)", err)
		}
	}
}

func TestBoxGradientIsBoundary(t *testing.T) {
	// A solid rectangle's gradient with a 3×3 box is a 3-pixel-wide
	// band straddling the boundary; its interior must be hollow.
	img := rle.NewImage(30, 30)
	for y := 5; y <= 24; y++ {
		img.Rows[y] = rle.Row{{Start: 5, Length: 20}}
	}
	g, err := Gradient(img, Box(1))
	if err != nil {
		t.Fatal(err)
	}
	if g.Get(15, 15) {
		t.Error("gradient kept deep interior pixel")
	}
	if !g.Get(5, 5) || !g.Get(24, 24) {
		t.Error("gradient missing corner boundary")
	}
	if !g.Get(15, 4) { // one above the top edge: dilation reaches it
		t.Error("gradient missing outer boundary")
	}
}

func TestBoxZeroSE(t *testing.T) {
	rng := rand.New(rand.NewSource(419))
	img := bitmap.Random(rng, 40, 10, 0.3).ToRLE()
	d, err := Dilate(img, SE{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := Erode(img, SE{})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Equal(img) || !e.Equal(img) {
		t.Error("zero SE is not identity")
	}
}

func TestBoxNegativeSERejected(t *testing.T) {
	img := rle.NewImage(4, 4)
	ops := map[string]func(*Image, SE) (*Image, error){
		"Dilate": Dilate, "Erode": Erode, "Open": Open, "Close": Close, "Gradient": Gradient,
	}
	for _, se := range []SE{{Rx: -1}, {Ry: -2}} {
		for name, op := range ops {
			if _, err := op(img, se); err == nil {
				t.Errorf("%s accepted %+v", name, se)
			}
		}
	}
}

// Whole-image erosion of a valid-but-non-canonical encoding (adjacent
// fragments, which the paper permits as inputs) must match the
// canonical encoding's result: erosion does not distribute over a
// union of fragments.
func TestBoxErodeNonCanonicalImage(t *testing.T) {
	img := rle.NewImage(16, 3)
	for y := 0; y < 3; y++ {
		img.Rows[y] = rle.Row{{Start: 2, Length: 3}, {Start: 5, Length: 3}, {Start: 8, Length: 4}}
	}
	canonical := img.Clone().Canonicalize()
	se := SE{Rx: 2, Ry: 1}
	got, err := Erode(img, se)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Erode(canonical, se)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("Erode(non-canonical) = %v, want %v", got.Rows, want.Rows)
	}
	if got.Area() == 0 {
		t.Fatal("erosion of a 10-pixel stretch by Rx=2 must not vanish")
	}
}
