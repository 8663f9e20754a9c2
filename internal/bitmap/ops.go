package bitmap

import "fmt"

// Word-parallel boolean operations: the uncompressed baseline the
// paper contrasts with ("a parallel solution ... can easily be
// performed on uncompressed data"). These are used as ground truth and
// as the bitmap comparator in the wall-clock benchmarks.

func checkSameSize(a, b *Bitmap) error {
	if a.width != b.width || a.height != b.height {
		return fmt.Errorf("bitmap: size mismatch %dx%d vs %dx%d", a.width, a.height, b.width, b.height)
	}
	return nil
}

func wordOp(a, b *Bitmap, op func(x, y uint64) uint64) (*Bitmap, error) {
	if err := checkSameSize(a, b); err != nil {
		return nil, err
	}
	out := New(a.width, a.height)
	for i := range a.words {
		out.words[i] = op(a.words[i], b.words[i])
	}
	out.clearPadding()
	return out, nil
}

// clearPadding zeroes the unused bits past the row width so popcounts
// and comparisons stay exact after operations like NOT.
func (b *Bitmap) clearPadding() {
	if b.stride == 0 {
		return
	}
	mask := b.tailMask()
	for y := 0; y < b.height; y++ {
		b.words[y*b.stride+b.stride-1] &= mask
	}
}

// XOR returns the pixelwise exclusive-or of two equally sized bitmaps.
func XOR(a, b *Bitmap) (*Bitmap, error) {
	return wordOp(a, b, func(x, y uint64) uint64 { return x ^ y })
}

// AND returns the pixelwise conjunction.
func AND(a, b *Bitmap) (*Bitmap, error) {
	return wordOp(a, b, func(x, y uint64) uint64 { return x & y })
}

// OR returns the pixelwise disjunction.
func OR(a, b *Bitmap) (*Bitmap, error) {
	return wordOp(a, b, func(x, y uint64) uint64 { return x | y })
}

// AndNot returns a &^ b.
func AndNot(a, b *Bitmap) (*Bitmap, error) {
	return wordOp(a, b, func(x, y uint64) uint64 { return x &^ y })
}

// Not returns the complement of the bitmap.
func Not(a *Bitmap) *Bitmap {
	out := New(a.width, a.height)
	for i := range a.words {
		out.words[i] = ^a.words[i]
	}
	out.clearPadding()
	return out
}
