// Character recognition by compressed-domain template matching — the
// paper's introduction lists character recognition among the binary
// image applications the systolic difference operation serves.
//
// A message is typeset with a 5×7 bitmap font into a scene image,
// scan noise is added, the page is despeckled with the run-native
// document-cleanup pipeline, and each character cell is classified by
// minimum Hamming distance against the font templates. Every
// distance is an RLE image difference: the same primitive the
// systolic array computes.
//
// Run with: go run ./examples/ocr
package main

import (
	"fmt"
	"log"
	"math/rand"
	"strings"

	"sysrle"
	"sysrle/internal/docclean"
	"sysrle/internal/match"
	"sysrle/internal/rle"
)

const (
	message = "38AXE71905TH24"
	pitch   = match.GlyphWidth + 2 // glyph cell plus spacing
)

func main() {
	rng := rand.New(rand.NewSource(17))
	font := match.Font()

	// Typeset the message.
	scene := rle.NewImage(4+len(message)*pitch, match.GlyphHeight+4)
	for i, ch := range strings.Split(message, "") {
		glyph, ok := font[ch]
		if !ok {
			log.Fatalf("no glyph for %q", ch)
		}
		rle.Paste(scene, glyph, 2+i*pitch, 2)
	}

	// Add scan noise: flip ~1.5% of the pixels.
	noisy := scene.Clone()
	flips := scene.Width * scene.Height * 15 / 1000
	for i := 0; i < flips; i++ {
		x, y := rng.Intn(scene.Width), rng.Intn(scene.Height)
		noisy.SetRow(y, rle.XOR(noisy.Rows[y], rle.Row{{Start: x, Length: 1}}))
	}
	fmt.Printf("scene %dx%d, %d noise pixels flipped\n\n", scene.Width, scene.Height, flips)
	printImage(noisy)

	// The noise itself, found by systolic differencing clean vs
	// noisy (what an inspection system would do).
	diff, stats, err := sysrle.DiffImage(scene, noisy, sysrle.WithEngine(sysrle.NewLockstep()))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsystolic diff vs clean original: %d differing pixels, iterations total=%d max/row=%d\n",
		diff.Area(), stats.TotalIterations, stats.MaxRowIterations)

	// Despeckle before classifying: isolated salt specks (connected
	// components of area 1) vanish, while glyph strokes — always
	// larger connected blobs — survive untouched. This is the first
	// stage of the document-cleanup pipeline behind /v1/docclean.
	cleaned, removed := docclean.Despeckle(noisy, 1)
	fmt.Printf("despeckle removed %d isolated noise pixels\n", removed)

	// Classify each character cell of the cleaned page.
	var decoded strings.Builder
	correct := 0
	for i := range message {
		cell, err := rle.Crop(cleaned, 2+i*pitch, 2, match.GlyphWidth, match.GlyphHeight)
		if err != nil {
			log.Fatal(err)
		}
		name, score, ok := match.Classify(cell, font)
		if !ok {
			log.Fatal("classification failed")
		}
		decoded.WriteString(name)
		if name == string(message[i]) {
			correct++
		}
		_ = score
	}
	fmt.Printf("\nexpected: %s\ndecoded : %s  (%d/%d correct)\n",
		message, decoded.String(), correct, len(message))
}

func printImage(img *rle.Image) {
	for _, row := range img.Rows {
		line := make([]byte, img.Width)
		for i, bit := range row.Bits(img.Width) {
			if bit {
				line[i] = '#'
			} else {
				line[i] = '.'
			}
		}
		fmt.Println(string(line))
	}
}
