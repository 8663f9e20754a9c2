package rle

import "fmt"

// Flattening. A 2D binary image is, bit for bit, one long bitstring
// (row-major). The systolic machine operates on bitstrings, so an
// entire image can be pushed through a single array by translating
// every run to global coordinates — an alternative deployment to the
// paper's one-array-per-row arrangement, traded off in the
// experiments.
//
// Runs never cross row boundaries in a valid Image, so flattening is
// exact; unflattening splits any run that spans rows (the systolic
// output may merge runs across a boundary when the last pixel of one
// row and the first of the next are both set).

// Flatten converts an image to a single row over the bitstring
// 0..Width*Height-1.
func Flatten(img *Image) Row {
	out := make(Row, 0, img.RunCount())
	for y, row := range img.Rows {
		base := y * img.Width
		for _, r := range row {
			out = append(out, Run{Start: base + r.Start, Length: r.Length})
		}
	}
	return out
}

// Unflatten converts a flat row back to an image of the given
// dimensions, splitting runs at row boundaries. Runs outside the
// bitstring are an error.
func Unflatten(flat Row, width, height int) (*Image, error) {
	img := NewImage(width, height)
	if width == 0 {
		if len(flat) > 0 {
			return nil, fmt.Errorf("rle: runs in zero-width image")
		}
		return img, nil
	}
	for _, r := range flat {
		if r.Start < 0 || r.End() >= width*height {
			return nil, fmt.Errorf("rle: flat run %v outside %dx%d", r, width, height)
		}
		start := r.Start
		remaining := r.Length
		for remaining > 0 {
			y := start / width
			x := start % width
			span := width - x
			if span > remaining {
				span = remaining
			}
			img.Rows[y] = append(img.Rows[y], Run{Start: x, Length: span})
			start += span
			remaining -= span
		}
	}
	for y := range img.Rows {
		img.Rows[y] = img.Rows[y].Canonicalize()
	}
	if err := img.Validate(); err != nil {
		return nil, err
	}
	return img, nil
}

// CompressionStats summarizes how well an image compresses under RLE
// — the quantity that decides whether the paper's approach pays off
// for a given workload.
type CompressionStats struct {
	Width, Height int
	// Pixels is Width*Height; Foreground the set pixel count.
	Pixels     int
	Foreground int
	// Runs is the total run count; MeanRunLen the average foreground
	// run length.
	Runs       int
	MeanRunLen float64
	// BitmapBytes is the packed 1-bpp size; RLEBytes the binary RLE
	// encoding size (varint-coded, as WriteBinary emits).
	BitmapBytes int
	RLEBytes    int
	// Ratio is BitmapBytes/RLEBytes (>1 means RLE wins).
	Ratio float64
}

// Stats computes compression statistics for an image.
func Stats(img *Image) CompressionStats {
	s := CompressionStats{
		Width:  img.Width,
		Height: img.Height,
		Pixels: img.Width * img.Height,
	}
	s.Foreground = img.Area()
	s.Runs = img.RunCount()
	if s.Runs > 0 {
		s.MeanRunLen = float64(s.Foreground) / float64(s.Runs)
	}
	s.BitmapBytes = ((img.Width + 7) / 8) * img.Height
	s.RLEBytes = len(AppendBinary(nil, img))
	if s.RLEBytes > 0 {
		s.Ratio = float64(s.BitmapBytes) / float64(s.RLEBytes)
	}
	return s
}
