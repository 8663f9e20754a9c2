// Package runmorph implements binary morphology directly on run-length
// encoded rows as interval algebra, after Breuel ("Efficient Binary and
// Run Length Morphology and its Application to Document Image
// Processing") and Ehrensperger et al. ("Fast algorithms for
// morphological operations using RLE binary images"): dilation is a
// union of translated run intervals, erosion a boundary shrink /
// interval intersection. No pixel is ever materialised — cost scales
// with the number of runs, not the number of pixels, which is the
// compressed-domain regime the source paper targets.
//
// runmorph supports arbitrary rectangular structuring elements: any
// width×height with an arbitrary origin inside the rectangle, plus
// composition and horizontal/vertical decomposition of SEs, and the
// derived operators open, close, gradient, top-hat, black-hat and
// hit-or-miss. The sysrle facade's centred-box SE{Rx, Ry} is the
// (2Rx+1)×(2Ry+1) Rect.
//
// Border convention: images live on a canvas padded with background.
// Dilation is clipped to the frame; erosion near the border vanishes
// wherever the translated SE leaves the frame (the infinite-background
// semantics). Close pads the canvas by the SE extents before dilating
// so it stays extensive at the borders, then crops back.
package runmorph

import "fmt"

// SE is a rectangular structuring element: a W×H rectangle of
// foreground cells anchored at origin (OX, OY), which must lie inside
// the rectangle (0 ≤ OX < W, 0 ≤ OY < H — that keeps dilation
// extensive and erosion anti-extensive, and makes chained decomposed
// dilation equal to direct dilation even with frame clipping).
//
// The pixel offsets covered by the SE are dx ∈ [-OX, W-1-OX] and
// dy ∈ [-OY, H-1-OY]; Left/Right/Up/Down name those four extents.
type SE struct {
	W, H   int
	OX, OY int
}

// Rect returns a w×h SE with a centred origin ((w-1)/2, (h-1)/2) —
// exactly centred for odd sizes, rounded toward the top-left for even
// ones.
func Rect(w, h int) SE { return SE{W: w, H: h, OX: (w - 1) / 2, OY: (h - 1) / 2} }

// Box returns the centred square of radius r: (2r+1)×(2r+1). Box(0) is
// the identity SE.
func Box(r int) SE { return Rect(2*r+1, 2*r+1) }

// HLine returns a horizontal line SE of width w (height 1), centred.
func HLine(w int) SE { return Rect(w, 1) }

// VLine returns a vertical line SE of height h (width 1), centred.
func VLine(h int) SE { return Rect(1, h) }

// At returns a copy of the SE with its origin moved to (ox, oy).
func (se SE) At(ox, oy int) SE { se.OX, se.OY = ox, oy; return se }

// Validate rejects degenerate rectangles and origins outside them.
func (se SE) Validate() error {
	if se.W < 1 || se.H < 1 {
		return fmt.Errorf("runmorph: SE %v has empty rectangle", se)
	}
	if se.OX < 0 || se.OX >= se.W || se.OY < 0 || se.OY >= se.H {
		return fmt.Errorf("runmorph: SE %v origin outside rectangle", se)
	}
	return nil
}

// Left returns how far the SE reaches left of its origin.
func (se SE) Left() int { return se.OX }

// Right returns how far the SE reaches right of its origin.
func (se SE) Right() int { return se.W - 1 - se.OX }

// Up returns how far the SE reaches above its origin.
func (se SE) Up() int { return se.OY }

// Down returns how far the SE reaches below its origin.
func (se SE) Down() int { return se.H - 1 - se.OY }

// Reflect returns the SE reflected through its origin — the B̌ of the
// erosion/dilation duality A ⊖ B = ¬(¬A ⊕ B̌).
func (se SE) Reflect() SE {
	return SE{W: se.W, H: se.H, OX: se.W - 1 - se.OX, OY: se.H - 1 - se.OY}
}

// Compose returns the Minkowski sum of two rectangular SEs: widths and
// heights add (minus the shared origin cell), origins add. Dilating by
// Compose(a, b) equals dilating by a then by b; the oracle pins that
// identity.
func Compose(a, b SE) SE {
	return SE{W: a.W + b.W - 1, H: a.H + b.H - 1, OX: a.OX + b.OX, OY: a.OY + b.OY}
}

// Decompose factors the SE into a horizontal and a vertical line whose
// composition reproduces it: w×h = (w×1) ⊕ (1×h), origins preserved.
// One-dimensional SEs decompose into themselves.
func (se SE) Decompose() []SE {
	if se.W == 1 || se.H == 1 {
		return []SE{se}
	}
	return []SE{
		{W: se.W, H: 1, OX: se.OX, OY: 0},
		{W: 1, H: se.H, OX: 0, OY: se.OY},
	}
}

func (se SE) String() string {
	return fmt.Sprintf("%dx%d@(%d,%d)", se.W, se.H, se.OX, se.OY)
}
