package rle

// Compressed-domain boolean operations. All operate directly on runs
// in a single boundary sweep, O(k1+k2) in the run counts, without
// expanding to pixels — the regime the paper targets ("process images
// in compressed mode without decompressing them").
//
// These are the library-grade implementations; the step-counted
// sequential merge used as the paper's baseline lives in
// internal/core (AppendSequentialXOR) because its iteration accounting is
// part of the evaluation, not of the data structure.

// combine sweeps the run boundaries of a and b from left to right,
// tracking membership in each operand, and emits maximal intervals
// where keep(inA, inB) holds. The result is canonical as long as keep
// is a function of the membership pair only (which all boolean ops
// are): output intervals on a shared boundary merge by construction.
func combine(a, b Row, keep func(inA, inB bool) bool) Row {
	return appendCombine(nil, a, b, keep)
}

// appendCombine is combine writing its output after dst's existing
// runs, reusing dst's capacity — the allocation-free form of the
// boundary sweep for callers that keep a scratch row across many
// calls. Existing runs in dst are never touched or merged with.
func appendCombine(dst Row, a, b Row, keep func(inA, inB bool) bool) Row {
	out := dst
	ia, ib := 0, 0
	inA, inB := false, false
	pos := 0 // next boundary position under consideration
	// Prime pos with the earliest boundary.
	const inf = int(^uint(0) >> 1)
	nextBoundary := func() int {
		nb := inf
		if ia < len(a) {
			if inA {
				if e := a[ia].End() + 1; e < nb {
					nb = e
				}
			} else if a[ia].Start < nb {
				nb = a[ia].Start
			}
		}
		if ib < len(b) {
			if inB {
				if e := b[ib].End() + 1; e < nb {
					nb = e
				}
			} else if b[ib].Start < nb {
				nb = b[ib].Start
			}
		}
		return nb
	}
	open := false
	var openAt int
	for {
		nb := nextBoundary()
		if nb == inf {
			break
		}
		pos = nb
		// Apply every membership transition that falls at pos before
		// evaluating keep: with adjacent runs (valid per the paper) an
		// operand both ends a run and starts the next at the same
		// boundary, and splitting those into two visits would emit
		// empty or fragmented intervals.
		for ia < len(a) && ((inA && a[ia].End()+1 == pos) || (!inA && a[ia].Start == pos)) {
			if inA {
				inA = false
				ia++
			} else {
				inA = true
			}
		}
		for ib < len(b) && ((inB && b[ib].End()+1 == pos) || (!inB && b[ib].Start == pos)) {
			if inB {
				inB = false
				ib++
			} else {
				inB = true
			}
		}
		want := keep(inA, inB)
		switch {
		case want && !open:
			open = true
			openAt = pos
		case !want && open:
			open = false
			out = append(out, Span(openAt, pos-1))
		}
	}
	if open {
		// keep() with both memberships false must be false for the
		// sweep to terminate every interval; all boolean ops used
		// here satisfy that (background op background = background).
		panic("rle: combine left an interval open; keep(false,false) must be false")
	}
	return out
}

// XOR returns the image difference of two rows (paper §2: for each
// pixel, difference[i] = a[i] ⊕ b[i]). The result is canonical.
func XOR(a, b Row) Row {
	return combine(a, b, func(x, y bool) bool { return x != y })
}

// AppendXOR appends the image difference of a and b to dst and
// returns the extended slice, reusing dst's capacity — the hot-path
// form of XOR for callers that sweep a scratch row over many row
// pairs. The appended runs are canonical among themselves; existing
// runs already in dst are left untouched and never merged with.
func AppendXOR(dst Row, a, b Row) Row {
	return appendCombine(dst, a, b, func(x, y bool) bool { return x != y })
}

// AppendCanonical appends w's runs to dst in canonical form — merging
// adjacent and overlapping runs as Canonicalize does — reusing dst's
// capacity. Runs already in dst are never modified or merged with
// (the shared contract of every append-path operation); only the runs
// of w are canonicalized among themselves. w must be sorted by start.
func AppendCanonical(dst Row, w Row) Row {
	base := len(dst)
	for _, r := range w {
		if n := len(dst); n > base && r.Start <= dst[n-1].End()+1 {
			if e := r.End(); e > dst[n-1].End() {
				dst[n-1].Length = e - dst[n-1].Start + 1
			}
			continue
		}
		dst = append(dst, r)
	}
	return dst
}

// AppendUnion appends a ∪ b to dst with a two-pointer merge over the
// sorted inputs, reusing dst's capacity. Existing runs in dst are
// never touched or merged with; the appended runs are canonical among
// themselves. This is the cheap associative building block of the
// prefix/suffix (van Herk) vertical sweeps in runmorph.
func AppendUnion(dst Row, a, b Row) Row {
	base := len(dst)
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		var r Run
		if j >= len(b) || (i < len(a) && a[i].Start <= b[j].Start) {
			r = a[i]
			i++
		} else {
			r = b[j]
			j++
		}
		if n := len(dst); n > base && r.Start <= dst[n-1].End()+1 {
			if e := r.End(); e > dst[n-1].End() {
				dst[n-1].Length = e - dst[n-1].Start + 1
			}
			continue
		}
		dst = append(dst, r)
	}
	return dst
}

// AND returns the pixelwise conjunction of two rows.
func AND(a, b Row) Row {
	return combine(a, b, func(x, y bool) bool { return x && y })
}

// OR returns the pixelwise disjunction of two rows.
func OR(a, b Row) Row {
	return combine(a, b, func(x, y bool) bool { return x || y })
}

// AndNot returns a minus b: pixels set in a and clear in b.
func AndNot(a, b Row) Row {
	return combine(a, b, func(x, y bool) bool { return x && !y })
}

// AppendAndNot appends a minus b to dst, reusing dst's capacity;
// existing runs in dst are never touched or merged with.
func AppendAndNot(dst Row, a, b Row) Row {
	return appendCombine(dst, a, b, func(x, y bool) bool { return x && !y })
}

// Not complements the row within [0, width).
func Not(a Row, width int) Row {
	var out Row
	pos := 0
	for _, r := range a {
		if r.Start > pos {
			end := r.Start - 1
			if end >= width {
				end = width - 1
			}
			if end >= pos {
				out = append(out, Span(pos, end))
			}
		}
		pos = r.End() + 1
		if pos >= width {
			break
		}
	}
	if pos < width {
		out = append(out, Span(pos, width-1))
	}
	return out
}

// ORMany returns the disjunction of many rows via a k-way interval
// merge over the already-sorted inputs — O(K·k) for K total runs over
// k rows. Used by the vertical pass of compressed-domain morphology.
func ORMany(rows []Row) Row {
	var s SweepScratch
	return s.AppendOR(nil, rows)
}

// SweepScratch owns the reusable buffers of the k-row combination
// sweeps. Callers that run many sweeps (the vertical pass of
// run-native morphology visits one window per output row) keep one
// scratch across calls so the steady state allocates nothing:
//
//	var s rle.SweepScratch
//	for y := range out {
//		acc = s.AppendOR(acc[:0], window(y))
//	}
//
// The zero value is ready to use. A SweepScratch must not be shared
// between goroutines.
type SweepScratch struct {
	idx  []int
	tmpA Row
	tmpB Row
}

// AppendOR appends the disjunction of rows to dst, reusing dst's
// capacity. Existing runs in dst are never touched or merged with; the
// appended runs are canonical among themselves. Because each input row
// is already sorted, the union is a k-way interval merge — O(K·k) int
// comparisons for K total runs over k rows, no boundary sort — which
// is what keeps page-scale morphology ahead of the word-parallel
// bitmap baseline.
func (s *SweepScratch) AppendOR(dst Row, rows []Row) Row {
	// Track read positions per row; skip empty rows up front.
	idx := s.idx[:0]
	live := 0
	for range rows {
		idx = append(idx, 0)
	}
	s.idx = idx
	for _, w := range rows {
		if len(w) > 0 {
			live++
		}
	}
	if live == 0 {
		return dst
	}
	base := len(dst)
	for {
		best := -1
		var bestStart int
		for i, w := range rows {
			if idx[i] < len(w) && (best < 0 || w[idx[i]].Start < bestStart) {
				best = i
				bestStart = w[idx[i]].Start
			}
		}
		if best < 0 {
			return dst
		}
		r := rows[best][idx[best]]
		idx[best]++
		if n := len(dst); n > base && r.Start <= dst[n-1].End()+1 {
			if e := r.End(); e > dst[n-1].End() {
				dst[n-1].Length = e - dst[n-1].Start + 1
			}
			continue
		}
		dst = append(dst, r)
	}
}

// AppendAND appends the conjunction of rows to dst under the same
// append contract as AppendOR: pairwise two-pointer intersections over
// ping-pong scratch rows, early-exiting the moment the accumulator
// empties. With zero rows the conjunction is vacuously empty here
// (callers gate the all-rows-present case).
func (s *SweepScratch) AppendAND(dst Row, rows []Row) Row {
	switch len(rows) {
	case 0:
		return dst
	case 1:
		return AppendCanonical(dst, rows[0])
	}
	acc := intersectAppend(s.tmpA[:0], rows[0], rows[1])
	s.tmpA = acc[:0]
	for i := 2; i < len(rows) && len(acc) > 0; i++ {
		next := intersectAppend(s.tmpB[:0], acc, rows[i])
		s.tmpB = acc[:0] // old accumulator becomes the next spare
		s.tmpA = next[:0]
		acc = next
	}
	return AppendCanonical(dst, acc)
}

// intersectAppend appends a ∩ b to dst with a two-pointer merge. The
// output is valid (sorted, non-overlapping) but may contain adjacent
// runs; AppendAND canonicalizes on its final copy.
func intersectAppend(dst Row, a, b Row) Row {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		s := a[i].Start
		if b[j].Start > s {
			s = b[j].Start
		}
		e := a[i].End()
		be := b[j].End()
		if be < e {
			e = be
		}
		if s <= e {
			dst = append(dst, Span(s, e))
		}
		if a[i].End() < b[j].End() {
			i++
		} else {
			j++
		}
	}
	return dst
}
