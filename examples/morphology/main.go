// Compressed-domain morphology — the class of binary image
// operations the paper's introduction motivates, implemented here
// directly on RLE data (internal/runmorph, the run-native interval
// engine) so nothing is ever decompressed.
//
// A clean structure is polluted with salt-and-pepper noise; opening
// removes the salt, closing heals the pepper, top-hat isolates what
// the opening threw away, and the result is compared against the
// original with the systolic difference engine.
//
// Run with: go run ./examples/morphology
package main

import (
	"fmt"
	"log"
	"math/rand"

	"sysrle"
	"sysrle/internal/bitmap"
)

func main() {
	rng := rand.New(rand.NewSource(13))

	// Clean structure: bars and pads, PCB-like.
	clean := bitmap.New(240, 120)
	for y := 20; y < 110; y += 20 {
		clean.HLine(10, 230, y, 5, true)
	}
	for x := 30; x < 240; x += 45 {
		clean.Disk(x, 60, 8, true)
	}

	// Pollute with salt (isolated foreground specks) and pepper
	// (pinholes in the structure).
	noisy := clean.Clone()
	for i := 0; i < 260; i++ {
		x, y := rng.Intn(240), rng.Intn(120)
		noisy.Set(x, y, !noisy.Get(x, y))
	}

	img := noisy.ToRLE()
	fmt.Printf("noisy image: %d runs, %d foreground pixels\n", img.RunCount(), img.Area())

	// Top-hat first: the foreground detail thinner than the 3×3 box —
	// i.e. the salt we are about to remove.
	salt, err := sysrle.MorphTopHat(img, sysrle.WithRectSE(sysrle.Rect(3, 3)))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("top-hat (salt to be removed): %d pixels\n", salt.Area())

	// Open to kill the salt, then close to heal the pepper — all on
	// runs. The tall factor of a decomposed SE would be the fast path
	// for big elements; for the 3×3 box the direct pass is fine.
	opened, err := sysrle.MorphOpen(img, sysrle.WithRectSE(sysrle.Rect(3, 3)))
	if err != nil {
		log.Fatal(err)
	}
	restored, err := sysrle.MorphClose(opened, sysrle.WithRectSE(sysrle.Rect(3, 3)))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after open∘close: %d runs, %d foreground pixels\n",
		restored.RunCount(), restored.Area())

	// How close did we get to the original? Diff in the compressed
	// domain with the systolic engine.
	diff, stats, err := sysrle.DiffImage(clean.ToRLE(), restored, sysrle.WithEngine(sysrle.NewLockstep()))
	if err != nil {
		log.Fatal(err)
	}
	noisePixels := sysrleImageArea(noisy.ToRLE(), clean.ToRLE())
	fmt.Printf("residual difference vs. clean original: %d pixels (noise had flipped %d)\n",
		diff.Area(), noisePixels)
	fmt.Printf("systolic iterations for the comparison: total=%d max/row=%d\n",
		stats.TotalIterations, stats.MaxRowIterations)

	// Morphological gradient: the outline of the restored structure.
	grad, err := sysrle.MorphGradient(restored, sysrle.WithRectSE(sysrle.Rect(3, 3)))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("gradient (outline): %d runs, %d pixels\n", grad.RunCount(), grad.Area())

	// Hit-or-miss: find isolated single pixels still left anywhere —
	// exactly the pattern a lone speck matches.
	lone, err := sysrle.ParsePattern([]string{
		"000",
		"010",
		"000",
	}, 1, 1)
	if err != nil {
		log.Fatal(err)
	}
	specks, err := sysrle.MorphHitOrMiss(restored, lone)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("isolated pixels surviving cleanup: %d\n", specks.Area())
}

// sysrleImageArea counts differing pixels between two images.
func sysrleImageArea(a, b *sysrle.Image) int {
	diff, _, err := sysrle.DiffImage(a, b)
	if err != nil {
		log.Fatal(err)
	}
	return diff.Area()
}
