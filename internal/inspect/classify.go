package inspect

import (
	"sysrle/internal/rle"
	"sysrle/internal/runmorph"
)

// Detailed defect classification. Polarity (missing vs. extra
// copper) comes from a majority vote against the reference; the
// specific label is then decided by local connectivity analysis in a
// window around the blob:
//
//	added copper   → bridges ≥2 reference components: "short"
//	               → touches exactly 1:               "spur"
//	               → touches none:                    "extra-copper"
//	removed copper → consumes a whole component:      "missing-feature"
//	               → splits a component:              "open"
//	               → strictly interior to copper:     "pinhole"
//	               → nibbles an edge:                 "mousebite"
//
// These are the defect categories reference-based PCB inspection
// systems report (the application domain of the paper's §1).

const classifyMargin = 3

// blobWindow crops the reference around the blob's bounding box
// (with margin) and renders the blob itself into the same window
// coordinates.
func blobWindow(ref *rle.Image, comp Component) (win, blob *rle.Image) {
	x0 := comp.X0 - classifyMargin
	y0 := comp.Y0 - classifyMargin
	w := comp.X1 - comp.X0 + 1 + 2*classifyMargin
	h := comp.Y1 - comp.Y0 + 1 + 2*classifyMargin
	win, err := rle.Crop(ref, x0, y0, w, h)
	if err != nil {
		panic(err) // dimensions are positive by construction
	}
	blob = rle.NewImage(w, h)
	for _, lr := range comp.Runs {
		y := lr.Y - y0
		shifted := rle.Row{lr.Run}.Shift(-x0).Clip(w)
		blob.Rows[y] = rle.OR(blob.Rows[y], shifted)
	}
	return win, blob
}

// overlapsImage reports whether component c (in window coordinates)
// shares a pixel with img.
func overlapsImage(c Component, img *rle.Image) bool {
	for _, lr := range c.Runs {
		if rle.AND(img.Row(lr.Y), rle.Row{lr.Run}).Area() > 0 {
			return true
		}
	}
	return false
}

// componentImage renders one component into an empty image of the
// given size.
func componentImage(c Component, w, h int) *rle.Image {
	img := rle.NewImage(w, h)
	for _, lr := range c.Runs {
		img.Rows[lr.Y] = rle.OR(img.Rows[lr.Y], rle.Row{lr.Run})
	}
	return img
}

// classifyDetailed returns the specific defect label for a
// difference blob.
func classifyDetailed(ref *rle.Image, comp Component) string {
	win, blob := blobWindow(ref, comp)

	// Polarity: differing pixels that are reference-foreground were
	// removed by the scan.
	missing := 0
	for y := range blob.Rows {
		missing += rle.AND(win.Rows[y], blob.Rows[y]).Area()
	}
	removed := 2*missing >= comp.Area

	grown, err := runmorph.Dilate(blob, runmorph.Box(1))
	if err != nil {
		panic(err)
	}

	if !removed {
		// Added copper: how many distinct reference components does
		// the (slightly grown) blob touch?
		touched := 0
		for _, c := range Components(win) {
			if overlapsImage(c, grown) {
				touched++
			}
		}
		switch {
		case touched >= 2:
			return "short"
		case touched == 1:
			return "spur"
		default:
			return "extra-copper"
		}
	}

	// Removed copper: inspect each reference component the blob
	// overlaps.
	consumed, split, interior := false, false, false
	overlappedAny := false
	for _, c := range Components(win) {
		if !overlapsImage(c, blob) {
			continue
		}
		overlappedAny = true
		cImg := componentImage(c, win.Width, win.Height)
		remainder := rle.NewImage(win.Width, win.Height)
		for y := range cImg.Rows {
			remainder.Rows[y] = rle.AndNot(cImg.Rows[y], blob.Rows[y])
		}
		switch pieces := len(Components(remainder)); {
		case pieces == 0:
			consumed = true
		case pieces >= 2:
			split = true
		default:
			// One piece: interior hole or edge bite? Interior iff
			// even the grown blob stays inside the component.
			inside := true
			for y := range grown.Rows {
				if rle.AndNot(grown.Rows[y], cImg.Rows[y]).Area() > 0 {
					inside = false
					break
				}
			}
			if inside {
				interior = true
			}
		}
	}
	switch {
	case !overlappedAny:
		return "missing-copper" // defensive: polarity said removed
	case consumed:
		return "missing-feature"
	case split:
		return "open"
	case interior:
		return "pinhole"
	default:
		return "mousebite"
	}
}
