package rle

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Row is one run-length encoded image row: foreground runs in strictly
// increasing start order, non-overlapping. A nil or empty Row is the
// all-background row.
type Row []Run

// Validate checks the row's structural invariants against an image
// width (pass width < 0 to skip the bounds check): every run is
// well-formed, starts strictly increase, runs do not overlap, and all
// pixels fall in [0, width).
func (w Row) Validate(width int) error {
	// One comparison chain per run. lim is the larger of the previous
	// run's Start and End (-1 at first), so Start > lim checks the sign,
	// increasing starts and overlap at once, and agrees with violation
	// even when End() overflows.
	maxEnd := width - 1
	if width < 0 {
		maxEnd = math.MaxInt
	}
	lim := -1
	for _, r := range w {
		end := r.End()
		if r.Start <= lim || r.Length <= 0 || end > maxEnd {
			return w.violation(width)
		}
		lim = max(r.Start, end)
	}
	return nil
}

// violation builds the error for the first run that breaks an
// invariant Validate checks; it runs only once Validate found one.
func (w Row) violation(width int) error {
	for i, r := range w {
		if !r.Valid() {
			return fmt.Errorf("rle: run %d %v is malformed", i, r)
		}
		if width >= 0 && r.End() >= width {
			return fmt.Errorf("rle: run %d %v exceeds width %d", i, r, width)
		}
		if i > 0 {
			prev := w[i-1]
			if r.Start <= prev.Start {
				return fmt.Errorf("rle: run %d %v does not increase after %v", i, r, prev)
			}
			if prev.End() >= r.Start {
				return fmt.Errorf("rle: run %d %v overlaps %v", i, r, prev)
			}
		}
	}
	return nil
}

// Canonical reports whether the row is maximally compressed: valid and
// with no pair of adjacent runs.
func (w Row) Canonical() bool {
	if w.Validate(-1) != nil {
		return false
	}
	for i := 1; i < len(w); i++ {
		if w[i-1].End()+1 == w[i].Start {
			return false
		}
	}
	return true
}

// Canonicalize merges adjacent (and, defensively, overlapping) runs,
// returning the maximally compressed encoding of the same bitstring.
// This is the "additional pass at the end" the paper describes for
// fully compressing an output. The input must be sorted by start.
func (w Row) Canonicalize() Row {
	if len(w) == 0 {
		return nil
	}
	out := make(Row, 0, len(w))
	cur := w[0]
	for _, r := range w[1:] {
		if r.Start <= cur.End()+1 { // overlapping or adjacent
			if e := r.End(); e > cur.End() {
				cur.Length = e - cur.Start + 1
			}
			continue
		}
		out = append(out, cur)
		cur = r
	}
	return append(out, cur)
}

// Normalize sorts arbitrary runs by start and canonicalizes them. It
// is the forgiving constructor for rows assembled out of order.
func Normalize(runs []Run) Row {
	w := make(Row, 0, len(runs))
	for _, r := range runs {
		if r.Valid() {
			w = append(w, r)
		}
	}
	sort.Slice(w, func(i, j int) bool { return w[i].Start < w[j].Start })
	return w.Canonicalize()
}

// Area returns the number of foreground pixels in the row.
func (w Row) Area() int {
	n := 0
	for _, r := range w {
		n += r.Length
	}
	return n
}

// RunCount returns the number of runs (k in the paper's analysis).
func (w Row) RunCount() int { return len(w) }

// Get reports the value of pixel i (true = foreground). Binary search.
func (w Row) Get(i int) bool {
	lo, hi := 0, len(w)
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case w[mid].End() < i:
			lo = mid + 1
		case w[mid].Start > i:
			hi = mid
		default:
			return true
		}
	}
	return false
}

// Bits expands the row to an uncompressed boolean bitstring of the
// given width. Runs beyond the width are truncated.
func (w Row) Bits(width int) []bool {
	bits := make([]bool, width)
	for _, r := range w {
		for i := r.Start; i <= r.End() && i < width; i++ {
			if i >= 0 {
				bits[i] = true
			}
		}
	}
	return bits
}

// FromBits encodes an uncompressed boolean bitstring as a canonical
// row.
func FromBits(bits []bool) Row {
	var w Row
	i := 0
	for i < len(bits) {
		if !bits[i] {
			i++
			continue
		}
		j := i
		for j < len(bits) && bits[j] {
			j++
		}
		w = append(w, Run{Start: i, Length: j - i})
		i = j
	}
	return w
}

// Clone returns a deep copy of the row.
func (w Row) Clone() Row {
	if w == nil {
		return nil
	}
	out := make(Row, len(w))
	copy(out, w)
	return out
}

// Equal reports whether two rows are identical encodings (same runs in
// the same order). Use EqualBits to compare the represented
// bitstrings regardless of encoding.
func (w Row) Equal(v Row) bool {
	if len(w) != len(v) {
		return false
	}
	for i := range w {
		if w[i] != v[i] {
			return false
		}
	}
	return true
}

// EqualBits reports whether two rows represent the same bitstring,
// i.e. their canonical forms are identical.
func (w Row) EqualBits(v Row) bool {
	return w.Canonicalize().Equal(v.Canonicalize())
}

// Clip restricts the row to [0, width), truncating or dropping runs
// that fall outside.
func (w Row) Clip(width int) Row {
	var out Row
	for _, r := range w {
		if r.End() < 0 || r.Start >= width {
			continue
		}
		s, e := r.Start, r.End()
		if s < 0 {
			s = 0
		}
		if e >= width {
			e = width - 1
		}
		out = append(out, Span(s, e))
	}
	return out
}

// Shift translates every run by delta pixels (negative = left). The
// result is not clipped; combine with Clip to stay inside an image.
func (w Row) Shift(delta int) Row {
	out := make(Row, len(w))
	for i, r := range w {
		out[i] = Run{Start: r.Start + delta, Length: r.Length}
	}
	return out
}

func (w Row) String() string {
	if len(w) == 0 {
		return "[]"
	}
	parts := make([]string, len(w))
	for i, r := range w {
		parts[i] = r.String()
	}
	return "[" + strings.Join(parts, " ") + "]"
}
