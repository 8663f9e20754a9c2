package oracle

import (
	"fmt"

	"sysrle/internal/bitmap"
	"sysrle/internal/rle"
	"sysrle/internal/runmorph"
)

// Metamorphic identities on whole images, engine-independent: each
// one relates two compressed-domain computation paths that must
// agree bit for bit (or a compressed-domain path against a
// brute-force pixel reference). A failure here is a geometry,
// morphology or boolean-sweep bug, not an engine bug.

// Identity check names.
const (
	idXORBitmap        = "meta-xorimage-bitmap"
	idXORTranslate     = "meta-xor-translate-commute"
	idXORFlipH         = "meta-xor-fliph-commute"
	idXORFlipV         = "meta-xor-flipv-commute"
	idTransposeInvol   = "meta-transpose-involution"
	idRotateCycle      = "meta-rotate90-cycle"
	idRotateCompose    = "meta-rotate90-squared-is-180"
	idDownsample       = "meta-downsample-orpool-bitmap"
	idDilateBitmap     = "meta-dilate-bitmap"
	idErodeBitmap      = "meta-erode-bitmap"
	idDuality          = "meta-dilate-erode-duality"
	idOpenIdempotent   = "meta-open-idempotent"
	idCloseIdempotent  = "meta-close-idempotent"
	idPasteCrop        = "meta-paste-crop-roundtrip"
	idPasteEmptySource = "meta-paste-empty-source"
)

// identities runs the whole-image identity library over one corpus
// pair (most identities use A; the XOR commutation ones use both).
func (r *run) identities(p pair, at location) {
	at.row = -1
	a, b := p.A, p.B

	// rle.XORImage against the word-parallel bitmap XOR: the
	// compressed-domain boolean sweep vs the uncompressed ground
	// truth.
	r.imageCheck(idXORBitmap, at, func() string {
		got, err := rle.XORImage(a, b)
		if err != nil {
			return err.Error()
		}
		ba, bb := bitmap.FromRLE(a), bitmap.FromRLE(b)
		bx, err := bitmap.XOR(ba, bb)
		if err != nil {
			return err.Error()
		}
		return diffImages(got, bx.ToRLE())
	})

	// XOR commutes with every in-plane geometric transform: clipping
	// regions coincide, and pointwise ⊕ commutes with relabelling
	// pixel coordinates.
	dx, dy := 3, -2
	r.imageCheck(idXORTranslate, at, func() string {
		lhs, err := rle.XORImage(rle.Translate(a, dx, dy), rle.Translate(b, dx, dy))
		if err != nil {
			return err.Error()
		}
		x, err := rle.XORImage(a, b)
		if err != nil {
			return err.Error()
		}
		return diffImages(lhs, rle.Translate(x, dx, dy))
	})
	r.imageCheck(idXORFlipH, at, func() string {
		lhs, err := rle.XORImage(rle.FlipH(a), rle.FlipH(b))
		if err != nil {
			return err.Error()
		}
		x, err := rle.XORImage(a, b)
		if err != nil {
			return err.Error()
		}
		return diffImages(lhs, rle.FlipH(x))
	})
	r.imageCheck(idXORFlipV, at, func() string {
		lhs, err := rle.XORImage(rle.FlipV(a), rle.FlipV(b))
		if err != nil {
			return err.Error()
		}
		x, err := rle.XORImage(a, b)
		if err != nil {
			return err.Error()
		}
		return diffImages(lhs, rle.FlipV(x))
	})

	// Transpose² = id, Rotate90⁴ = id, Rotate90² = Rotate180.
	r.imageCheck(idTransposeInvol, at, func() string {
		return diffImages(rle.Transpose(rle.Transpose(a)), a)
	})
	r.imageCheck(idRotateCycle, at, func() string {
		got := a
		for i := 0; i < 4; i++ {
			got = rle.Rotate90(got)
		}
		return diffImages(got, a)
	})
	r.imageCheck(idRotateCompose, at, func() string {
		return diffImages(rle.Rotate90(rle.Rotate90(a)), rle.Rotate180(a))
	})

	// OR-pooling downsample against the brute-force block scan.
	for _, f := range []int{2, 3} {
		f := f
		r.imageCheck(idDownsample, at, func() string {
			got, err := rle.Downsample(a, f)
			if err != nil {
				return err.Error()
			}
			return diffImages(got, downsampleReference(a, f))
		})
	}

	// Morphology: compressed-domain dilate/erode against the pixel
	// reference, the complement duality between them, and open/close
	// idempotence.
	se := runmorph.Rect(5, 3)
	r.imageCheck(idDilateBitmap, at, func() string {
		got, err := runmorph.Dilate(a, se)
		if err != nil {
			return err.Error()
		}
		return diffImages(got, rectReference(a, se, true))
	})
	r.imageCheck(idErodeBitmap, at, func() string {
		got, err := runmorph.Erode(a, se)
		if err != nil {
			return err.Error()
		}
		return diffImages(got, rectReference(a, se, false))
	})
	r.imageCheck(idDuality, at, func() string { return checkReflectDuality(a, se) })
	r.imageCheck(idOpenIdempotent, at, func() string {
		once, err := runmorph.Open(a, se)
		if err != nil {
			return err.Error()
		}
		twice, err := runmorph.Open(once, se)
		if err != nil {
			return err.Error()
		}
		return diffImages(twice, once)
	})
	r.imageCheck(idCloseIdempotent, at, func() string {
		once, err := runmorph.Close(a, se)
		if err != nil {
			return err.Error()
		}
		twice, err := runmorph.Close(once, se)
		if err != nil {
			return err.Error()
		}
		return diffImages(twice, once)
	})

	// Paste/Crop round-trip: a source pasted fully inside the frame
	// crops back out bit-identical…
	r.imageCheck(idPasteCrop, at, func() string {
		if a.Width < 2 || a.Height < 2 {
			return "" // no interior placement exists; vacuous
		}
		src, err := rle.Crop(b, 0, 0, a.Width/2, a.Height/2)
		if err != nil {
			return err.Error()
		}
		canvas := a.Clone()
		rle.Paste(canvas, src, 1, 1)
		back, err := rle.Crop(canvas, 1, 1, src.Width, src.Height)
		if err != nil {
			return err.Error()
		}
		return diffImages(back, src)
	})
	// …and pasting a zero-width or zero-height source anywhere is a
	// no-op (the minimized form of the Paste panic this PR fixes).
	r.imageCheck(idPasteEmptySource, at, func() string {
		for _, src := range []*rle.Image{rle.NewImage(0, a.Height), rle.NewImage(a.Width, 0)} {
			for _, x0 := range []int{-1, 0, 1, a.Width} {
				canvas := a.Clone()
				rle.Paste(canvas, src, x0, 1)
				if msg := diffImages(canvas, a); msg != "" {
					return fmt.Sprintf("empty %dx%d source at x0=%d: %s", src.Width, src.Height, x0, msg)
				}
			}
		}
		return ""
	})
}

// imageCheck evaluates one whole-image identity; the closure returns
// "" on agreement. A panic inside the identity (the Paste bug was
// exactly that) is caught and counted as a discrepancy.
func (r *run) imageCheck(name string, at location, fails func() string) {
	detail := func() (msg string) {
		defer func() {
			if p := recover(); p != nil {
				msg = fmt.Sprintf("panic: %v", p)
			}
		}()
		return fails()
	}()
	r.check("", name, at, detail == "", "", "", detail)
}

// diffImages returns "" when the two images are pixel-identical and
// a located first-difference description otherwise.
func diffImages(got, want *rle.Image) string {
	if got.Width != want.Width || got.Height != want.Height {
		return fmt.Sprintf("dims %dx%d, want %dx%d", got.Width, got.Height, want.Width, want.Height)
	}
	if err := got.Validate(); err != nil {
		return fmt.Sprintf("invalid image: %v", err)
	}
	for y := 0; y < want.Height; y++ {
		if !got.Rows[y].EqualBits(want.Rows[y]) {
			return fmt.Sprintf("row %d: got %v, want %v", y, got.Rows[y], want.Rows[y])
		}
	}
	return ""
}

// downsampleReference is the brute-force OR-pooling: an output pixel
// is set when any pixel of its f×f source block is.
func downsampleReference(img *rle.Image, f int) *rle.Image {
	outW := (img.Width + f - 1) / f
	outH := (img.Height + f - 1) / f
	out := rle.NewImage(outW, outH)
	for oy := 0; oy < outH; oy++ {
		bits := make([]bool, outW)
		for dy := 0; dy < f; dy++ {
			for x := 0; x < img.Width; x++ {
				if img.Get(x, oy*f+dy) {
					bits[x/f] = true
				}
			}
		}
		out.Rows[oy] = rle.FromBits(bits)
	}
	return out
}

// complement flips every pixel inside the frame.
func complement(img *rle.Image) *rle.Image {
	out := rle.NewImage(img.Width, img.Height)
	for y, row := range img.Rows {
		out.Rows[y] = rle.Not(row, img.Width)
	}
	return out
}
