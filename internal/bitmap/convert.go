package bitmap

import (
	"math/bits"

	"sysrle/internal/rle"
)

// Conversions between the packed and run-length encoded
// representations. RowRuns scans a packed row a word at a time with
// trailing-zero counts, so encoding cost is proportional to the run
// count, not the width.

// RowRuns extracts the canonical RLE encoding of row y.
func (b *Bitmap) RowRuns(y int) rle.Row {
	if y < 0 || y >= b.height {
		return nil
	}
	var row rle.Row
	words := b.rowWords(y)
	inRun := false
	start := 0
	for wi, w := range words {
		base := wi * 64
		x := 0
		for x < 64 {
			if inRun {
				// Find the next 0 bit at or after x.
				rest := ^w >> uint(x)
				if rest == 0 {
					break // run continues into the next word
				}
				zero := x + bits.TrailingZeros64(rest)
				row = append(row, rle.Span(start, base+zero-1))
				inRun = false
				x = zero
			} else {
				rest := w >> uint(x)
				if rest == 0 {
					break
				}
				one := x + bits.TrailingZeros64(rest)
				start = base + one
				inRun = true
				x = one
			}
		}
	}
	if inRun {
		row = append(row, rle.Span(start, b.width-1))
	}
	return row
}

// ToRLE encodes the whole bitmap as a canonical RLE image.
func (b *Bitmap) ToRLE() *rle.Image {
	img := rle.NewImage(b.width, b.height)
	for y := 0; y < b.height; y++ {
		img.Rows[y] = b.RowRuns(y)
	}
	return img
}

// FromRLE rasterizes an RLE image to a packed bitmap.
func FromRLE(img *rle.Image) *Bitmap {
	b := New(img.Width, img.Height)
	for y, row := range img.Rows {
		for _, r := range row {
			b.SetRange(y, r.Start, r.End(), true)
		}
	}
	return b
}
