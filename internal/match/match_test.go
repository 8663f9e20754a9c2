package match

import (
	"math/rand"
	"testing"

	"sysrle/internal/bitmap"
	"sysrle/internal/rle"
)

// mismatchRef is a brute-force pixel comparison.
func mismatchRef(img, tpl *rle.Image, x0, y0 int) int {
	n := 0
	for ty := 0; ty < tpl.Height; ty++ {
		for tx := 0; tx < tpl.Width; tx++ {
			if tpl.Get(tx, ty) != img.Get(x0+tx, y0+ty) {
				n++
			}
		}
	}
	return n
}

func TestMismatchAtAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(701))
	for trial := 0; trial < 60; trial++ {
		img := bitmap.Random(rng, 20+rng.Intn(40), 10+rng.Intn(20), 0.4).ToRLE()
		tpl := bitmap.Random(rng, 3+rng.Intn(8), 3+rng.Intn(6), 0.4).ToRLE()
		x0, y0 := rng.Intn(img.Width+6)-3, rng.Intn(img.Height+6)-3
		got := MismatchAt(img, tpl, x0, y0, -1)
		want := mismatchRef(img, tpl, x0, y0)
		if got != want {
			t.Fatalf("MismatchAt(%d,%d) = %d, want %d", x0, y0, got, want)
		}
	}
}

func TestMismatchAtEarlyExit(t *testing.T) {
	img := rle.NewImage(10, 10) // empty
	tpl := rle.NewImage(10, 10)
	for y := range tpl.Rows {
		tpl.Rows[y] = rle.Row{{Start: 0, Length: 10}} // all set: mismatch 100
	}
	if got := MismatchAt(img, tpl, 0, 0, 15); got <= 15 {
		t.Errorf("early exit returned %d, should exceed limit", got)
	}
	if got := MismatchAt(img, tpl, 0, 0, -1); got != 100 {
		t.Errorf("exact count = %d, want 100", got)
	}
}

func TestSearchFindsPlantedTemplate(t *testing.T) {
	rng := rand.New(rand.NewSource(707))
	font := Font()
	tpl := font["8"]
	scene := rle.NewImage(60, 20)
	// Plant the glyph at two known spots.
	rle.Paste(scene, tpl, 7, 3)
	rle.Paste(scene, tpl, 40, 11)
	// Sprinkle noise away from the glyphs.
	for i := 0; i < 15; i++ {
		x, y := rng.Intn(60), rng.Intn(20)
		if (x >= 5 && x < 14 && y >= 1 && y < 12) || (x >= 38 && x < 47 && y >= 9 && y < 19) {
			continue
		}
		scene.SetRow(y, rle.OR(scene.Rows[y], rle.Row{{Start: x, Length: 1}}))
	}
	matches, err := Search(scene, tpl, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 2 {
		t.Fatalf("exact matches = %+v, want 2", matches)
	}
	got := map[[2]int]bool{}
	for _, m := range matches {
		if m.Mismatch != 0 {
			t.Errorf("non-zero mismatch %d", m.Mismatch)
		}
		got[[2]int{m.X, m.Y}] = true
	}
	if !got[[2]int{7, 3}] || !got[[2]int{40, 11}] {
		t.Errorf("matches at wrong positions: %+v", matches)
	}
}

func TestSearchErrorsAndBounds(t *testing.T) {
	img := rle.NewImage(10, 10)
	if _, err := Search(img, rle.NewImage(0, 4), 0); err == nil {
		t.Error("empty template accepted")
	}
	// Template bigger than the image: no placements, no error.
	big := rle.NewImage(20, 20)
	matches, err := Search(img, big, 1000)
	if err != nil || len(matches) != 0 {
		t.Errorf("oversized template: %v %v", matches, err)
	}
}

func TestBest(t *testing.T) {
	tpl := Font()["7"]
	scene := rle.NewImage(30, 12)
	rle.Paste(scene, tpl, 12, 2)
	// Corrupt one pixel so the best is 1, not 0.
	scene.SetRow(2, rle.XOR(scene.Rows[2], rle.Row{{Start: 12, Length: 1}}))
	m, ok := Best(scene, tpl)
	if !ok {
		t.Fatal("no placement found")
	}
	if m.X != 12 || m.Y != 2 || m.Mismatch != 1 {
		t.Errorf("Best = %+v, want (12,2) mismatch 1", m)
	}
	if _, ok := Best(rle.NewImage(3, 3), tpl); ok {
		t.Error("Best found placement for oversized template")
	}
}

func TestClassifyCleanGlyphs(t *testing.T) {
	font := Font()
	for name, glyph := range font {
		got, score, ok := Classify(glyph, font)
		if !ok {
			t.Fatal("no classification")
		}
		if got != name || score != 0 {
			t.Errorf("Classify(%q) = %q score %d", name, got, score)
		}
	}
}

func TestClassifyNoisyGlyphs(t *testing.T) {
	rng := rand.New(rand.NewSource(709))
	font := Font()
	correct, total := 0, 0
	for name, glyph := range font {
		for trial := 0; trial < 10; trial++ {
			noisy := glyph.Clone()
			// Flip 3 random pixels.
			for i := 0; i < 3; i++ {
				x, y := rng.Intn(GlyphWidth), rng.Intn(GlyphHeight)
				noisy.SetRow(y, rle.XOR(noisy.Rows[y], rle.Row{{Start: x, Length: 1}}))
			}
			got, _, _ := Classify(noisy, font)
			total++
			if got == name {
				correct++
			}
		}
	}
	// 3 flipped pixels out of 35 should still classify correctly
	// most of the time.
	if correct*10 < total*8 {
		t.Errorf("noisy classification accuracy %d/%d below 80%%", correct, total)
	}
}

func TestClassifyEmptyTemplateSet(t *testing.T) {
	if _, _, ok := Classify(rle.NewImage(5, 7), nil); ok {
		t.Error("empty template set classified")
	}
}

func TestParseArt(t *testing.T) {
	img, err := ParseArt([]string{"#.#", ".#."})
	if err != nil {
		t.Fatal(err)
	}
	if img.Width != 3 || img.Height != 2 || img.Area() != 3 {
		t.Errorf("parsed %dx%d area %d", img.Width, img.Height, img.Area())
	}
	if _, err := ParseArt(nil); err == nil {
		t.Error("empty art accepted")
	}
	if _, err := ParseArt([]string{"##", "#"}); err == nil {
		t.Error("ragged art accepted")
	}
}

func TestFontGlyphsDistinct(t *testing.T) {
	font := Font()
	if len(font) < 10 {
		t.Fatalf("font has %d glyphs", len(font))
	}
	names := make([]string, 0, len(font))
	for n := range font {
		names = append(names, n)
	}
	for i, a := range names {
		for _, b := range names[i+1:] {
			d := 0
			for y := 0; y < GlyphHeight; y++ {
				d += rle.Hamming(font[a].Rows[y], font[b].Rows[y])
			}
			if d < 3 {
				t.Errorf("glyphs %q and %q differ by only %d pixels", a, b, d)
			}
		}
	}
}
