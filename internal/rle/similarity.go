package rle

// Similarity measures between two encoded rows. The paper
// lets "the similarity of two images be measured by the number of runs
// in the final result" (§5); the other metrics here are the standard
// companions used to characterize workloads in the evaluation harness.

// RunCountDiff returns |k1 - k2|, the difference between the input run
// counts — the quantity the paper shows the systolic iteration count
// tracks for similar images.
func RunCountDiff(a, b Row) int {
	d := len(a) - len(b)
	if d < 0 {
		d = -d
	}
	return d
}

// XORRuns returns the number of runs in the canonical XOR of the two
// rows — the paper's similarity measure (smaller = more similar) and
// the conjectured k3 bound on systolic iterations.
func XORRuns(a, b Row) int { return len(XOR(a, b)) }

// Hamming returns the number of differing pixels (the area of the
// XOR).
func Hamming(a, b Row) int { return XOR(a, b).Area() }

// XORAreaShifted returns the number of differing pixels between a and
// b translated by dx, evaluated within the window [0, width) —
// equivalent to Hamming(a.Clip(width), b.Shift(dx).Clip(width)) for
// any operands, but allocation-free. It is the inner loop of scan
// registration, which evaluates hundreds of candidate offsets per row.
func XORAreaShifted(a, b Row, dx, width int) int {
	// Both operands are clipped to the window. An earlier version
	// counted a's full length here, so an operand extending past the
	// window silently contributed out-of-window pixels to the result
	// instead of being evaluated within [0, width).
	areaA := 0
	for _, r := range a {
		s, e := r.Start, r.End()
		if e < 0 || s >= width {
			continue
		}
		if s < 0 {
			s = 0
		}
		if e >= width {
			e = width - 1
		}
		areaA += e - s + 1
	}
	areaB := 0
	for _, r := range b {
		s, e := r.Start+dx, r.End()+dx
		if e < 0 || s >= width {
			continue
		}
		if s < 0 {
			s = 0
		}
		if e >= width {
			e = width - 1
		}
		areaB += e - s + 1
	}
	// Two-pointer overlap scan. a's runs need no clipping here: b's
	// runs are clipped into the window, so any overlap with them is
	// already inside [0, width).
	overlap := 0
	ia, ib := 0, 0
	for ia < len(a) && ib < len(b) {
		bs, be := b[ib].Start+dx, b[ib].End()+dx
		if be < 0 {
			ib++
			continue
		}
		if bs >= width {
			break
		}
		if bs < 0 {
			bs = 0
		}
		if be >= width {
			be = width - 1
		}
		as, ae := a[ia].Start, a[ia].End()
		lo, hi := as, ae
		if bs > lo {
			lo = bs
		}
		if be < hi {
			hi = be
		}
		if lo <= hi {
			overlap += hi - lo + 1
		}
		if ae < be {
			ia++
		} else {
			ib++
		}
	}
	return areaA + areaB - 2*overlap
}
