// Package match implements binary template matching in the
// compressed domain — one of the operations the paper's introduction
// cites systolic hardware for ("binary template matching", Djunatan &
// Mengko [9]) — built on the same RLE difference primitive as the
// systolic engine: the mismatch score of a window is exactly the area
// of the image difference between template and window.
//
// Costs scale with run counts: sliding a k-run template across a
// K-run image row costs O(k+K) per offset, never O(pixels).
package match

import (
	"fmt"
	"sort"

	"sysrle/internal/rle"
)

// Match is one template placement: the window's top-left corner and
// its Hamming mismatch against the template.
type Match struct {
	X, Y     int
	Mismatch int
}

// MismatchAt returns the Hamming distance between the template and
// the image window whose top-left corner is (x0, y0). Pixels outside
// the image read as background. The limit parameter allows early
// exit: as soon as the running mismatch exceeds limit the scan stops
// and returns a value > limit (pass a negative limit for an exact
// count).
func MismatchAt(img, tpl *rle.Image, x0, y0, limit int) int {
	total := 0
	for ty := 0; ty < tpl.Height; ty++ {
		window := img.Row(y0 + ty).Shift(-x0).Clip(tpl.Width)
		total += rle.Hamming(tpl.Rows[ty], window)
		if limit >= 0 && total > limit {
			return total
		}
	}
	return total
}

// Search slides the template over every position where it fits
// entirely inside the image and returns all placements with mismatch
// ≤ maxMismatch, sorted by (mismatch, Y, X). An empty template or one
// larger than the image yields no matches.
func Search(img, tpl *rle.Image, maxMismatch int) ([]Match, error) {
	if tpl.Width <= 0 || tpl.Height <= 0 {
		return nil, fmt.Errorf("match: empty template %dx%d", tpl.Width, tpl.Height)
	}
	var out []Match
	for y := 0; y+tpl.Height <= img.Height; y++ {
		for x := 0; x+tpl.Width <= img.Width; x++ {
			m := MismatchAt(img, tpl, x, y, maxMismatch)
			if m <= maxMismatch {
				out = append(out, Match{X: x, Y: y, Mismatch: m})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Mismatch != out[j].Mismatch {
			return out[i].Mismatch < out[j].Mismatch
		}
		if out[i].Y != out[j].Y {
			return out[i].Y < out[j].Y
		}
		return out[i].X < out[j].X
	})
	return out, nil
}

// Best returns the minimum-mismatch placement (earliest in scan order
// on ties); ok is false when the template does not fit anywhere.
func Best(img, tpl *rle.Image) (Match, bool) {
	best := Match{Mismatch: -1}
	for y := 0; y+tpl.Height <= img.Height; y++ {
		for x := 0; x+tpl.Width <= img.Width; x++ {
			limit := best.Mismatch
			if limit >= 0 {
				limit-- // strict improvement required
			}
			m := MismatchAt(img, tpl, x, y, limit)
			if best.Mismatch < 0 || m < best.Mismatch {
				best = Match{X: x, Y: y, Mismatch: m}
			}
		}
	}
	return best, best.Mismatch >= 0
}

// Classify picks the template with the smallest mismatch against the
// glyph image (same size comparison at offset (0,0), per character
// recognition practice). Keys are compared deterministically; ok is
// false for an empty template set.
func Classify(glyph *rle.Image, templates map[string]*rle.Image) (string, int, bool) {
	names := make([]string, 0, len(templates))
	for name := range templates {
		names = append(names, name)
	}
	sort.Strings(names)
	bestName, bestScore := "", -1
	for _, name := range names {
		m := MismatchAt(glyph, templates[name], 0, 0, -1)
		if bestScore < 0 || m < bestScore {
			bestName, bestScore = name, m
		}
	}
	return bestName, bestScore, bestScore >= 0
}
