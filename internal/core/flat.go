package core

import (
	"fmt"

	"sysrle/internal/rle"
)

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
