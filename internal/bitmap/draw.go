package bitmap

// Drawing primitives used by the synthetic PCB rasterizer
// (internal/inspect) and by examples. Everything clips to the image,
// so callers can draw partially off-canvas geometry freely.

// FillRect sets the axis-aligned rectangle [x0,x1]×[y0,y1] (inclusive)
// to v. Coordinates may be given in either order.
func (b *Bitmap) FillRect(x0, y0, x1, y1 int, v bool) {
	if x1 < x0 {
		x0, x1 = x1, x0
	}
	if y1 < y0 {
		y0, y1 = y1, y0
	}
	for y := y0; y <= y1; y++ {
		b.SetRange(y, x0, x1, v)
	}
}

// HLine draws a horizontal trace of the given thickness centred on
// row y, spanning [x0, x1].
func (b *Bitmap) HLine(x0, x1, y, thickness int, v bool) {
	if thickness < 1 {
		return
	}
	half := (thickness - 1) / 2
	b.FillRect(x0, y-half, x1, y-half+thickness-1, v)
}

// VLine draws a vertical trace of the given thickness centred on
// column x, spanning [y0, y1].
func (b *Bitmap) VLine(x, y0, y1, thickness int, v bool) {
	if thickness < 1 {
		return
	}
	half := (thickness - 1) / 2
	b.FillRect(x-half, y0, x-half+thickness-1, y1, v)
}

// Disk draws a filled disk of the given radius centred at (cx, cy):
// pads and vias in the PCB generator.
func (b *Bitmap) Disk(cx, cy, radius int, v bool) {
	if radius < 0 {
		return
	}
	r2 := radius * radius
	for dy := -radius; dy <= radius; dy++ {
		dx2 := r2 - dy*dy
		// Horizontal extent at this scanline: floor(sqrt(dx2)).
		dx := 0
		for (dx+1)*(dx+1) <= dx2 {
			dx++
		}
		b.SetRange(cy+dy, cx-dx, cx+dx, v)
	}
}

// Line draws a 1-pixel Bresenham line between two points; it is used
// for diagonal defects (shorts across traces).
func (b *Bitmap) Line(x0, y0, x1, y1 int, v bool) {
	dx := x1 - x0
	if dx < 0 {
		dx = -dx
	}
	dy := y1 - y0
	if dy < 0 {
		dy = -dy
	}
	sx, sy := 1, 1
	if x0 > x1 {
		sx = -1
	}
	if y0 > y1 {
		sy = -1
	}
	err := dx - dy
	for {
		b.Set(x0, y0, v)
		if x0 == x1 && y0 == y1 {
			return
		}
		e2 := 2 * err
		if e2 > -dy {
			err -= dy
			x0 += sx
		}
		if e2 < dx {
			err += dx
			y0 += sy
		}
	}
}
