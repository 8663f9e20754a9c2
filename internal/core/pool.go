package core

import (
	"context"
	"fmt"

	"sysrle/internal/rle"
)

// ArrayPool is the deployed-hardware shape of whole-image
// differencing: a bank of fixed-capacity systolic arrays
// (ChannelArray), each the engine of one XORRows worker, which claims
// bands of scanline pairs for it. It contrasts with the
// single-array alternative (XORImageFlat), which pushes the whole
// image through one much longer array; the experiments package
// tabulates the trade-off.
type ArrayPool struct {
	arrays []*ChannelArray
}

// NewArrayPool builds n arrays of the given cell capacity each.
func NewArrayPool(n, cellsPerArray int) *ArrayPool {
	if n < 1 {
		n = 1
	}
	p := &ArrayPool{arrays: make([]*ChannelArray, n)}
	for i := range p.arrays {
		p.arrays[i] = NewChannelArray(cellsPerArray)
	}
	return p
}

// Size returns the number of arrays.
func (p *ArrayPool) Size() int { return len(p.arrays) }

// XORImage diffs two equally sized images on XORRows, worker w
// driving array w, so the bank's arrays work on scanlines in
// parallel. A row pair exceeding an array's capacity fails with
// ErrTooWide, and the first failing row stops the whole image.
func (p *ArrayPool) XORImage(a, b *rle.Image) (*rle.Image, *ImageStats, error) {
	res, err := XORRows(context.Background(), a, b, len(p.arrays), func(w int) Engine { return p.arrays[w] })
	if err != nil {
		return nil, nil, fmt.Errorf("core: %w", err)
	}
	return res.Image, res.Stats(), nil
}

// Close shuts down every array in the bank.
func (p *ArrayPool) Close() {
	for _, arr := range p.arrays {
		arr.Close()
	}
}

// XORImageFlat diffs two equally sized images by flattening them
// into single bitstrings and pushing the pair through one engine —
// the one-big-array deployment. The returned Result carries the
// flat-run output statistics; the image is the reshaped difference.
func XORImageFlat(a, b *rle.Image, engine Engine) (*rle.Image, Result, error) {
	if a.Width != b.Width || a.Height != b.Height {
		return nil, Result{}, fmt.Errorf("core: size mismatch %dx%d vs %dx%d", a.Width, a.Height, b.Width, b.Height)
	}
	if engine == nil {
		engine = Lockstep{}
	}
	// The append dispatcher reaches the engine's pooled scratch path
	// when it has one, and hands Unflatten an already canonical row.
	res, err := XORRowAppend(engine, nil, rle.Flatten(a), rle.Flatten(b))
	if err != nil {
		return nil, Result{}, err
	}
	img, err := rle.Unflatten(res.Row, a.Width, a.Height)
	if err != nil {
		return nil, Result{}, err
	}
	return img, res, nil
}
