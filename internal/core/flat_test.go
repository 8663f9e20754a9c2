package core

import (
	"math/rand"
	"testing"

	"sysrle/internal/rle"
)

func randomTestImage(rng *rand.Rand, w, h int) *rle.Image {
	img := rle.NewImage(w, h)
	for y := 0; y < h; y++ {
		img.Rows[y] = randomValidRow(rng, w)
	}
	return img
}

func TestXORImageFlatMatchesPerRow(t *testing.T) {
	rng := rand.New(rand.NewSource(917))
	for trial := 0; trial < 30; trial++ {
		w, h := 20+rng.Intn(60), 3+rng.Intn(10)
		a := randomTestImage(rng, w, h)
		b := randomTestImage(rng, w, h)
		img, res, err := XORImageFlat(a, b, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := rle.XORImage(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if !img.Equal(want) {
			t.Fatal("flat diff wrong")
		}
		if res.Cells == 0 && (a.RunCount() > 0 || b.RunCount() > 0) {
			t.Error("flat result missing array size")
		}
	}
}

func TestXORImageFlatSimilarImagesCheap(t *testing.T) {
	// The single-array deployment inherits the paper's property at
	// image scale: iterations bounded by the flat output run count,
	// tiny for similar images regardless of total content.
	rng := rand.New(rand.NewSource(919))
	a := randomTestImage(rng, 500, 50) // thousands of runs
	b := a.Clone()
	// Flip a handful of localized pixels.
	for i := 0; i < 4; i++ {
		y := 10 * i
		b.Rows[y] = rle.XOR(b.Rows[y], rle.Row{{Start: 50 + i, Length: 3}})
	}
	img, res, err := XORImageFlat(a, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if img.Area() != 12 {
		t.Fatalf("diff area = %d, want 12", img.Area())
	}
	if res.Iterations > 12 {
		t.Errorf("flat iterations %d not bounded by diff size", res.Iterations)
	}
	if a.RunCount() < 100*res.Iterations {
		t.Errorf("test premise broken: content runs %d not ≫ iterations %d", a.RunCount(), res.Iterations)
	}
}

func TestXORImageFlatErrors(t *testing.T) {
	if _, _, err := XORImageFlat(rle.NewImage(4, 4), rle.NewImage(5, 4), nil); err == nil {
		t.Error("size mismatch accepted")
	}
}
