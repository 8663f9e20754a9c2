package inspect

import (
	"fmt"
	"math/rand"

	"sysrle/internal/bitmap"
)

// DefectType enumerates the classic PCB fabrication flaws the
// injector can produce (the taxonomy used by reference-based
// inspection systems).
type DefectType int

const (
	// OpenCircuit cuts a trace.
	OpenCircuit DefectType = iota
	// ShortCircuit bridges two copper features across background.
	ShortCircuit
	// MouseBite nibbles a notch out of a copper edge.
	MouseBite
	// Spur adds a protrusion onto a copper edge.
	Spur
	// Pinhole drills a small hole inside copper.
	Pinhole
	// ExtraCopper splashes an isolated blob onto background.
	ExtraCopper
	// MissingPad erases an entire pad.
	MissingPad
	numDefectTypes
)

var defectNames = [...]string{
	OpenCircuit:  "open",
	ShortCircuit: "short",
	MouseBite:    "mousebite",
	Spur:         "spur",
	Pinhole:      "pinhole",
	ExtraCopper:  "extra-copper",
	MissingPad:   "missing-pad",
}

func (d DefectType) String() string {
	if d >= 0 && int(d) < len(defectNames) {
		return defectNames[d]
	}
	return fmt.Sprintf("DefectType(%d)", int(d))
}

// Injected records one defect's ground truth: its type and bounding
// box on the scan.
type Injected struct {
	Type           DefectType
	X0, Y0, X1, Y1 int // inclusive bbox
}

// overlaps reports bbox intersection with another box.
func (d Injected) overlaps(x0, y0, x1, y1 int) bool {
	return d.X0 <= x1 && x0 <= d.X1 && d.Y0 <= y1 && y0 <= d.Y1
}

const placementAttempts = 400

// InjectDefects clones the layout's artwork, applies count randomly
// chosen and randomly placed defects, and returns the defective scan
// plus the ground-truth list. Defects whose placement cannot be
// found (e.g. a short on a nearly empty board) are skipped, so the
// returned list may be shorter than count.
func InjectDefects(rng *rand.Rand, layout *Layout, count int) (*bitmap.Bitmap, []Injected) {
	scan := layout.Art.Clone()
	var out []Injected
	for i := 0; i < count; i++ {
		typ := DefectType(rng.Intn(int(numDefectTypes)))
		if inj, ok := applyDefect(rng, layout, scan, typ); ok {
			out = append(out, inj)
		}
	}
	return scan, out
}

// InjectOne applies a single defect of a specific type; the bool
// reports whether a placement was found.
func InjectOne(rng *rand.Rand, layout *Layout, scan *bitmap.Bitmap, typ DefectType) (Injected, bool) {
	return applyDefect(rng, layout, scan, typ)
}

func applyDefect(rng *rand.Rand, layout *Layout, scan *bitmap.Bitmap, typ DefectType) (Injected, bool) {
	w, h := scan.Width(), scan.Height()
	sample := func() (int, int) { return rng.Intn(w), rng.Intn(h) }
	fgAround := func(x, y, r int) bool {
		for dy := -r; dy <= r; dy++ {
			for dx := -r; dx <= r; dx++ {
				if scan.Get(x+dx, y+dy) {
					return true
				}
			}
		}
		return false
	}
	allFG := func(x, y, r int) bool {
		for dy := -r; dy <= r; dy++ {
			for dx := -r; dx <= r; dx++ {
				if !scan.Get(x+dx, y+dy) {
					return false
				}
			}
		}
		return true
	}
	box := func(x0, y0, x1, y1 int) Injected {
		return Injected{Type: typ, X0: max(0, x0), Y0: max(0, y0), X1: min(w-1, x1), Y1: min(h-1, y1)}
	}
	for attempt := 0; attempt < placementAttempts; attempt++ {
		x, y := sample()
		switch typ {
		case OpenCircuit:
			// Cut across a trace: a fully-foreground neighbourhood
			// that is not pad-sized.
			tw := layout.TraceWidth
			if !allFG(x, y, tw/2) || allFG(x, y, layout.PadRadius) {
				continue
			}
			gap := tw + 2
			scan.FillRect(x-gap/2, y-gap/2, x+gap/2, y+gap/2, false)
			return box(x-gap/2, y-gap/2, x+gap/2, y+gap/2), true
		case ShortCircuit:
			// A background pixel with copper on both sides within
			// reach: bridge horizontally or vertically.
			if scan.Get(x, y) {
				continue
			}
			if x0, x1, ok := spanToCopper(scan, x, y, true); ok {
				scan.HLine(x0, x1, y, 2, true)
				return box(x0, y-1, x1, y+1), true
			}
			if y0, y1, ok := spanToCopper(scan, x, y, false); ok {
				scan.VLine(x, y0, y1, 2, true)
				return box(x-1, y0, x+1, y1), true
			}
		case MouseBite:
			// Foreground pixel with background next to it: notch.
			if !scan.Get(x, y) || allFG(x, y, 1) {
				continue
			}
			scan.Disk(x, y, 2, false)
			return box(x-2, y-2, x+2, y+2), true
		case Spur:
			// Background pixel adjacent to foreground: protrusion.
			if scan.Get(x, y) || !fgAround(x, y, 1) {
				continue
			}
			scan.Disk(x, y, 2, true)
			return box(x-2, y-2, x+2, y+2), true
		case Pinhole:
			if !allFG(x, y, 2) {
				continue
			}
			scan.Disk(x, y, 1, false)
			return box(x-1, y-1, x+1, y+1), true
		case ExtraCopper:
			// Isolated blob: no copper within 4 pixels.
			if fgAround(x, y, 4) {
				continue
			}
			r := 2 + rng.Intn(2)
			scan.Disk(x, y, r, true)
			return box(x-r, y-r, x+r, y+r), true
		case MissingPad:
			if len(layout.Pads) == 0 {
				return Injected{}, false
			}
			p := layout.Pads[rng.Intn(len(layout.Pads))]
			r := layout.PadRadius
			if !scan.Get(p.X, p.Y) {
				continue // already erased by a previous defect
			}
			scan.Disk(p.X, p.Y, r, false)
			return box(p.X-r, p.Y-r, p.X+r, p.Y+r), true
		}
	}
	return Injected{}, false
}

// spanToCopper looks for copper within reach on both sides of a
// background pixel along one axis and returns the bridging span.
func spanToCopper(b *bitmap.Bitmap, x, y int, horizontal bool) (int, int, bool) {
	const reach = 8
	probe := func(d int) (int, bool) {
		for step := 1; step <= reach; step++ {
			if horizontal {
				if b.Get(x+d*step, y) {
					return x + d*step, true
				}
			} else {
				if b.Get(x, y+d*step) {
					return y + d*step, true
				}
			}
		}
		return 0, false
	}
	lo, okLo := probe(-1)
	hi, okHi := probe(+1)
	if okLo && okHi && hi-lo >= 3 {
		return lo, hi, true
	}
	return 0, 0, false
}
