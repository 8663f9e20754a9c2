package runmorph

import "sysrle/internal/rle"

// Op is a reusable morphology context. It owns the horizontal-pass
// rows, the vertical sweep scratch and the window slice, so repeated
// operations on same-sized images reuse their buffers instead of
// reallocating per call. The zero value is ready to use; an Op must
// not be shared between goroutines. Output images are freshly
// allocated (arena-persisted) and do not alias the Op's scratch;
// DilateInto writes into the caller's image instead.
type Op struct {
	horiz   []rle.Row
	vpre    []rle.Row
	vsuf    []rle.Row
	window  []rle.Row
	scratch rle.Row
	sweep   rle.SweepScratch
}

// resize grows a row buffer to h rows, reusing per-row capacity from
// earlier calls.
func resize(buf []rle.Row, h int) []rle.Row {
	if cap(buf) < h {
		grown := make([]rle.Row, h)
		copy(grown, buf[:cap(buf)])
		return grown
	}
	return buf[:h]
}

// rows resizes the horizontal-pass buffer to h rows.
func (o *Op) rows(h int) []rle.Row {
	o.horiz = resize(o.horiz, h)
	return o.horiz
}

// Dilate returns img ⊕ se, clipped to the image frame. Separable:
// every row is dilated by the SE's horizontal extents (union of
// translates, merged on append), then each output row is the union of
// the SE-height window of horizontal results.
func (o *Op) Dilate(img *rle.Image, se SE) (*rle.Image, error) {
	out := rle.NewImage(img.Width, img.Height)
	arena := rle.NewArena(0)
	if err := o.dilate(img, se, func(y int, r rle.Row) { out.Rows[y] = arena.Persist(r) }); err != nil {
		return nil, err
	}
	return out, nil
}

// DilateInto is Dilate writing into dst, which it resets to img's
// frame: each output row is copied over dst's old row, reusing its
// capacity, so a warm dst allocates nothing. dst must not be img.
func (o *Op) DilateInto(dst, img *rle.Image, se SE) error {
	dst.Reset(img.Width, img.Height)
	return o.dilate(img, se, func(y int, r rle.Row) { dst.Rows[y] = append(dst.Rows[y], r...) })
}

// dilate computes img ⊕ se and hands output row y to put (a row put
// never sees stays empty); the row is the Op's scratch, valid only
// during the call.
func (o *Op) dilate(img *rle.Image, se SE, put func(y int, r rle.Row)) error {
	if err := se.Validate(); err != nil {
		return err
	}
	h := img.Height
	horiz := o.rows(h)
	for y := 0; y < h; y++ {
		horiz[y] = AppendDilateRow(horiz[y][:0], img.Rows[y], se.Left(), se.Right(), img.Width)
	}
	switch {
	case se.H == 1:
		for y := 0; y < h; y++ {
			put(y, horiz[y])
		}
	case se.H == 2 || h < se.H:
		// Tiny windows (or images shorter than the SE): the k-way merge
		// beats the prefix/suffix machinery's constant factor.
		for y := 0; y < h; y++ {
			lo, hi := clampWindow(y-se.Down(), y+se.Up(), h)
			o.scratch = o.unionRange(horiz, lo, hi)
			put(y, o.scratch)
		}
	default:
		// van Herk / Gil–Werman sliding-window union: rows partition
		// into blocks of H; prefix[i] unions from the block start to i,
		// suffix[i] from i to the block end. Any H-row window spans at
		// most two adjacent blocks, so each output row is one two-row
		// union — O(runs) total, independent of the SE height. That
		// independence is what keeps tall-SE page-scale dilation ahead
		// of the word-parallel bitmap baseline.
		o.vpre = resize(o.vpre, h)
		o.vsuf = resize(o.vsuf, h)
		for i := 0; i < h; i++ {
			if i%se.H == 0 {
				o.vpre[i] = rle.AppendCanonical(o.vpre[i][:0], horiz[i])
			} else {
				o.vpre[i] = rle.AppendUnion(o.vpre[i][:0], o.vpre[i-1], horiz[i])
			}
		}
		for i := h - 1; i >= 0; i-- {
			if i%se.H == se.H-1 || i == h-1 {
				o.vsuf[i] = rle.AppendCanonical(o.vsuf[i][:0], horiz[i])
			} else {
				o.vsuf[i] = rle.AppendUnion(o.vsuf[i][:0], horiz[i], o.vsuf[i+1])
			}
		}
		for y := 0; y < h; y++ {
			lo, hi := clampWindow(y-se.Down(), y+se.Up(), h)
			switch {
			case lo > hi:
				continue
			case lo/se.H != hi/se.H:
				// Window straddles two blocks: suffix of the first ∪
				// prefix of the second covers exactly [lo, hi].
				o.scratch = rle.AppendUnion(o.scratch[:0], o.vsuf[lo], o.vpre[hi])
			case hi%se.H == se.H-1 || hi == h-1:
				o.scratch = rle.AppendCanonical(o.scratch[:0], o.vsuf[lo])
			case lo%se.H == 0:
				o.scratch = rle.AppendCanonical(o.scratch[:0], o.vpre[hi])
			default:
				// A clamped border window strictly inside one block —
				// at most H-1 rows at each frame edge. Merge directly.
				o.scratch = o.unionRange(horiz, lo, hi)
			}
			put(y, o.scratch)
		}
	}
	return nil
}

// clampWindow clips the inclusive row window [lo, hi] to [0, h).
func clampWindow(lo, hi, h int) (int, int) {
	if lo < 0 {
		lo = 0
	}
	if hi > h-1 {
		hi = h - 1
	}
	return lo, hi
}

// unionRange unions rows[lo..hi] into o.scratch via the k-way merge.
func (o *Op) unionRange(rows []rle.Row, lo, hi int) rle.Row {
	o.window = o.window[:0]
	for yy := lo; yy <= hi; yy++ {
		if len(rows[yy]) > 0 {
			o.window = append(o.window, rows[yy])
		}
	}
	return o.sweep.AppendOR(o.scratch[:0], o.window)
}

// Erode returns img ⊖ se with infinite-background semantics: output
// pixels whose translated SE leaves the frame vanish. Separable:
// every maximal horizontal stretch shrinks by the SE's horizontal
// extents, then each output row is the intersection of the SE-height
// window of horizontal results (empty wherever the window leaves the
// frame).
func (o *Op) Erode(img *rle.Image, se SE) (*rle.Image, error) {
	if err := se.Validate(); err != nil {
		return nil, err
	}
	h := img.Height
	horiz := o.rows(h)
	for y := 0; y < h; y++ {
		horiz[y] = AppendErodeRow(horiz[y][:0], img.Rows[y], se.Left(), se.Right())
	}
	out := rle.NewImage(img.Width, h)
	arena := rle.NewArena(0)
	if se.H == 1 {
		for y := 0; y < h; y++ {
			out.Rows[y] = arena.Persist(horiz[y])
		}
		return out, nil
	}
	for y := 0; y < h; y++ {
		// Output row y requires input rows y+dy for dy ∈ [-Up, Down],
		// i.e. the window [y-Up, y+Down]; out of frame ⇒ background ⇒
		// the intersection is empty.
		lo, hi := y-se.Up(), y+se.Down()
		if lo < 0 || hi > h-1 {
			continue
		}
		o.window = o.window[:0]
		empty := false
		for yy := lo; yy <= hi; yy++ {
			if len(horiz[yy]) == 0 {
				empty = true
				break
			}
			o.window = append(o.window, horiz[yy])
		}
		if empty {
			continue
		}
		o.scratch = o.sweep.AppendAND(o.scratch[:0], o.window)
		out.Rows[y] = arena.Persist(o.scratch)
	}
	return out, nil
}

// DilateSeq chains dilations by each SE in order — with frame
// clipping this equals dilating by the composed SE (the origins-inside
// invariant makes intermediate clipping lossless; the oracle pins it).
func (o *Op) DilateSeq(img *rle.Image, ses []SE) (*rle.Image, error) {
	if len(ses) == 0 {
		return img.Clone(), nil
	}
	cur := img
	for _, se := range ses {
		next, err := o.Dilate(cur, se)
		if err != nil {
			return nil, err
		}
		cur = next
	}
	return cur, nil
}

// ErodeSeq chains erosions by each SE in order: A ⊖ (B1 ⊕ B2) =
// (A ⊖ B1) ⊖ B2.
func (o *Op) ErodeSeq(img *rle.Image, ses []SE) (*rle.Image, error) {
	if len(ses) == 0 {
		return img.Clone(), nil
	}
	cur := img
	for _, se := range ses {
		next, err := o.Erode(cur, se)
		if err != nil {
			return nil, err
		}
		cur = next
	}
	return cur, nil
}

// Open returns the opening (img ⊖ se) ⊕ se — erosion and dilation by
// the same SE form an adjunction, so this is anti-extensive,
// increasing and idempotent for any origin, no reflection needed.
func (o *Op) Open(img *rle.Image, se SE) (*rle.Image, error) {
	eroded, err := o.Erode(img, se)
	if err != nil {
		return nil, err
	}
	return o.Dilate(eroded, se)
}

// Close returns the closing (img ⊕ se) ⊖ se. The canvas is padded by
// the SE extents before dilating so foreground near the border closes
// exactly as it would on an infinite canvas (extensivity survives the
// frame), then cropped back.
func (o *Op) Close(img *rle.Image, se SE) (*rle.Image, error) {
	if err := se.Validate(); err != nil {
		return nil, err
	}
	padded := rle.NewImage(img.Width+se.W-1, img.Height+se.H-1)
	for y, row := range img.Rows {
		if len(row) > 0 {
			padded.Rows[y+se.Up()] = row.Shift(se.Left())
		}
	}
	dilated, err := o.Dilate(padded, se)
	if err != nil {
		return nil, err
	}
	eroded, err := o.Erode(dilated, se)
	if err != nil {
		return nil, err
	}
	return rle.Crop(eroded, se.Left(), se.Up(), img.Width, img.Height)
}

// Gradient returns the morphological gradient (img ⊕ se) \ (img ⊖ se):
// the boundary band of the foreground under the SE.
func (o *Op) Gradient(img *rle.Image, se SE) (*rle.Image, error) {
	dilated, err := o.Dilate(img, se)
	if err != nil {
		return nil, err
	}
	eroded, err := o.Erode(img, se)
	if err != nil {
		return nil, err
	}
	for y := range dilated.Rows {
		dilated.Rows[y] = rle.AndNot(dilated.Rows[y], eroded.Rows[y])
	}
	return dilated, nil
}

// TopHat returns the white top-hat img \ open(img, se): foreground
// detail too small to survive the opening (specks, thin strokes).
func (o *Op) TopHat(img *rle.Image, se SE) (*rle.Image, error) {
	opened, err := o.Open(img, se)
	if err != nil {
		return nil, err
	}
	out := rle.NewImage(img.Width, img.Height)
	for y := range img.Rows {
		out.Rows[y] = rle.AndNot(img.Rows[y], opened.Rows[y])
	}
	return out, nil
}

// BlackHat returns the black top-hat close(img, se) \ img: background
// detail too small to survive the closing (pinholes, thin gaps).
func (o *Op) BlackHat(img *rle.Image, se SE) (*rle.Image, error) {
	closed, err := o.Close(img, se)
	if err != nil {
		return nil, err
	}
	for y := range closed.Rows {
		closed.Rows[y] = rle.AndNot(closed.Rows[y], img.Rows[y])
	}
	return closed, nil
}

// Package-level conveniences over a throwaway Op.

// Dilate returns img ⊕ se. See Op.Dilate.
func Dilate(img *rle.Image, se SE) (*rle.Image, error) { return new(Op).Dilate(img, se) }

// Erode returns img ⊖ se. See Op.Erode.
func Erode(img *rle.Image, se SE) (*rle.Image, error) { return new(Op).Erode(img, se) }

// Open returns the opening of img by se. See Op.Open.
func Open(img *rle.Image, se SE) (*rle.Image, error) { return new(Op).Open(img, se) }

// Close returns the closing of img by se. See Op.Close.
func Close(img *rle.Image, se SE) (*rle.Image, error) { return new(Op).Close(img, se) }

// Gradient returns the morphological gradient of img under se.
func Gradient(img *rle.Image, se SE) (*rle.Image, error) { return new(Op).Gradient(img, se) }

// TopHat returns the white top-hat of img under se.
func TopHat(img *rle.Image, se SE) (*rle.Image, error) { return new(Op).TopHat(img, se) }

// BlackHat returns the black top-hat of img under se.
func BlackHat(img *rle.Image, se SE) (*rle.Image, error) { return new(Op).BlackHat(img, se) }

// DilateSeq chains dilations. See Op.DilateSeq.
func DilateSeq(img *rle.Image, ses []SE) (*rle.Image, error) { return new(Op).DilateSeq(img, ses) }

// ErodeSeq chains erosions. See Op.ErodeSeq.
func ErodeSeq(img *rle.Image, ses []SE) (*rle.Image, error) { return new(Op).ErodeSeq(img, ses) }
