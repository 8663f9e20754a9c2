package core

import "sysrle/internal/rle"

// Sequential is the paper's §2 baseline: "a single pass through the
// two arrays simultaneously which merges them together ... for each
// iteration we determine the XOR of the top run of both bitstrings,
// take the smaller of the resulting runs, and leave the remainder in
// the array it came from." Its step count is Θ(k1+k2) in best, worst
// and average case — the property Table 1 contrasts with the systolic
// engine.
type Sequential struct{}

// Name implements Engine.
func (Sequential) Name() string { return "sequential" }

// XORRow implements Engine. Iterations in the Result is the number of
// merge steps executed.
func (s Sequential) XORRow(a, b rle.Row) (Result, error) { return s.XORRowAppend(nil, a, b) }

// XORRowAppend implements AppendEngine: the same merge writing its
// output, canonical, after dst's existing runs.
func (s Sequential) XORRowAppend(dst rle.Row, a, b rle.Row) (Result, error) {
	if err := ValidateRowPair(a, b); err != nil {
		return Result{}, err
	}
	return s.XORRowAppendValid(dst, a, b)
}

// XORRowAppendValid implements ValidAppendEngine.
func (Sequential) XORRowAppendValid(dst rle.Row, a, b rle.Row) (Result, error) {
	row, steps := AppendSequentialXOR(dst, a, b)
	return Result{Row: row, Iterations: steps}, nil
}

// AppendSequentialXOR merges two valid RLE rows into their XOR,
// appended to dst in canonical form (a fragment adjacent to the last
// one emitted extends it; runs already in dst are never merged with),
// and returns the number of merge steps taken: one per head consumed
// or split, so Θ(k1+k2). Pass a nil dst for a fresh row.
//
// It is one loop over both slices. The heads are runs a[ia] and b[ib]
// cut to start at as and bs: a merge step only ever removes a head's
// left part, so a head always ends where its run does.
func AppendSequentialXOR(dst rle.Row, a, b rle.Row) (rle.Row, int) {
	base, steps := len(dst), 0
	ia, as := advance(a, -1)
	ib, bs := advance(b, -1)
	for ia < len(a) || ib < len(b) {
		steps++
		var s, e int // the fragment to emit; none when e < s
		switch {
		case ib == len(b) || (ia < len(a) && a[ia].End() < bs):
			// A's head ends before B's starts: a finished XOR run.
			s, e = as, a[ia].End()
			ia, as = advance(a, ia)
		case ia == len(a) || b[ib].End() < as:
			s, e = bs, b[ib].End()
			ib, bs = advance(b, ib)
		default:
			// Overlap: emit the part before the later start; the part
			// after the earlier end stays at the head of its list.
			ae, be := a[ia].End(), b[ib].End()
			s, e = min(as, bs), max(as, bs)-1
			if ae <= be {
				ia, as = advance(a, ia)
			} else {
				as = be + 1
			}
			if be <= ae {
				ib, bs = advance(b, ib)
			} else {
				bs = ae + 1
			}
		}
		if s > e {
			continue
		}
		if n := len(dst); n > base && dst[n-1].Start+dst[n-1].Length >= s {
			dst[n-1].Length = e - dst[n-1].Start + 1
		} else {
			dst = append(dst, rle.Run{Start: s, Length: e - s + 1})
		}
	}
	return dst, steps
}

// advance moves a head past run i of r: it returns the next run's
// index and start, or len(r) and 0 past the last run.
func advance(r rle.Row, i int) (int, int) {
	if i++; i < len(r) {
		return i, r[i].Start
	}
	return i, 0
}
