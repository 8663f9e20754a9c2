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

// classifier is one comparison's classification scratch: window-sized
// images and labelling state reused from one defect to the next, so a
// defect costs work in proportion to its window and allocates only
// when its window needs more room than every earlier one.
type classifier struct {
	ref *rle.Image
	op  runmorph.Op
	// win is the reference around the blob, blob the blob itself and
	// grown the blob dilated by a 3×3 box, all in window coordinates;
	// part is one reference component and rest what the blob leaves of
	// it.
	win, blob, grown, part, rest rle.Image
	hasGrown                     bool
	winCCL, restCCL              labeler
	hit                          []bool
	scratch                      rle.Row
}

// classify returns a difference blob's polarity (Defect.Kind) and its
// specific label (Defect.Type).
func (c *classifier) classify(comp Component) (kind, label string) {
	// Polarity: differing pixels that are reference-foreground were
	// removed by the scan.
	missing := 0
	for _, lr := range comp.Runs {
		missing += overlap(c.ref.Row(lr.Y), lr.Run)
	}
	c.window(comp)
	if 2*missing >= comp.Area {
		return "missing-copper", c.removed()
	}
	return "extra-copper", c.added()
}

// window crops the reference around the blob's bounding box (with
// margin), copying only the runs that reach into it, and renders the
// blob into the same window coordinates.
func (c *classifier) window(comp Component) {
	x0 := comp.X0 - classifyMargin
	y0 := comp.Y0 - classifyMargin
	w := comp.X1 - comp.X0 + 1 + 2*classifyMargin
	h := comp.Y1 - comp.Y0 + 1 + 2*classifyMargin
	c.win.Reset(w, h)
	c.blob.Reset(w, h)
	c.hasGrown = false
	for y := range c.win.Rows {
		for _, r := range c.ref.Row(y0 + y) {
			if r.Start-x0 >= w {
				break
			}
			if s, e := max(r.Start-x0, 0), min(r.End()-x0, w-1); s <= e {
				c.win.Rows[y] = append(c.win.Rows[y], rle.Span(s, e))
			}
		}
	}
	for _, lr := range comp.Runs {
		y := lr.Y - y0
		c.blob.Rows[y] = append(c.blob.Rows[y], rle.Run{Start: lr.Run.Start - x0, Length: lr.Run.Length})
	}
}

// grow returns the blob dilated by a 3×3 box, computed once per blob.
func (c *classifier) grow() *rle.Image {
	if !c.hasGrown {
		if err := c.op.DilateInto(&c.grown, &c.blob, runmorph.Box(1)); err != nil {
			panic(err)
		}
		c.hasGrown = true
	}
	return &c.grown
}

// touching labels the window's reference components and reports,
// per component, whether one of its runs shares a pixel with img.
func (c *classifier) touching(img *rle.Image) []bool {
	c.hit = append(c.hit[:0], make([]bool, c.winCCL.run(&c.win))...)
	for y, row := range c.win.Rows {
		for i, r := range row {
			if overlap(img.Rows[y], r) > 0 {
				c.hit[c.winCCL.label[c.winCCL.first[y]+i]] = true
			}
		}
	}
	return c.hit
}

// added labels a blob of added copper by how many distinct reference
// components the (slightly grown) blob touches.
func (c *classifier) added() string {
	touched := 0
	for _, t := range c.touching(c.grow()) {
		if t {
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

// removed labels a blob of removed copper by what it leaves of each
// reference component it overlaps.
func (c *classifier) removed() string {
	consumed, split, interior := false, false, false
	overlappedAny := false
	w, h := c.win.Width, c.win.Height
	for k, hit := range c.touching(&c.blob) {
		if !hit {
			continue
		}
		overlappedAny = true
		c.part.Reset(w, h)
		c.rest.Reset(w, h)
		for y, row := range c.win.Rows {
			for i, r := range row {
				if c.winCCL.label[c.winCCL.first[y]+i] == k {
					c.part.Rows[y] = append(c.part.Rows[y], r)
				}
			}
			c.rest.Rows[y] = rle.AppendAndNot(c.rest.Rows[y], c.part.Rows[y], c.blob.Rows[y])
		}
		switch pieces := c.restCCL.run(&c.rest); {
		case pieces == 0:
			consumed = true
		case pieces >= 2:
			split = true
		default:
			// One piece: interior hole or edge bite? Interior iff
			// even the grown blob stays inside the component.
			inside := true
			for y, row := range c.grow().Rows {
				if c.scratch = rle.AppendAndNot(c.scratch[:0], row, c.part.Rows[y]); len(c.scratch) > 0 {
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

// overlap returns the number of pixels run r shares with row.
func overlap(row rle.Row, r rle.Run) int {
	n := 0
	for _, q := range row {
		if q.Start > r.End() {
			break
		}
		n += max(0, min(q.End(), r.End())-max(q.Start, r.Start)+1)
	}
	return n
}
