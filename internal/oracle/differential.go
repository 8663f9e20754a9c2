package oracle

import (
	"fmt"

	"sysrle"
	"sysrle/internal/core"
	"sysrle/internal/rle"
)

// Differential checks: every engine row result is compared against
// the pixel-level bitmap oracle (bitwise XOR of the decompressed
// rows), against the §2 sequential merge, and against the §4
// invariants (Theorem-2 ordering, area parity, support bounds — the
// same checkers the Verified engine runs in production). Both the
// allocating XORRow path and the append path are exercised; the
// append path must additionally leave the caller's prefix untouched
// and append a canonical segment.

// Differential check names.
const (
	checkPixelOracle   = "diff-pixel-oracle"
	checkSequential    = "diff-vs-sequential"
	checkInvariants    = "diff-sec4-invariants"
	checkAppendPath    = "diff-append-path"
	checkXORSymmetry   = "meta-xor-symmetry"
	checkSelfAnnihilat = "meta-xor-self-annihilation"
)

// pixelXOR is the ground truth: decompress both rows, XOR the bits,
// re-encode canonically.
func pixelXOR(a, b rle.Row, width int) rle.Row {
	bitsA := a.Bits(width)
	bitsB := b.Bits(width)
	for i := range bitsA {
		bitsA[i] = bitsA[i] != bitsB[i]
	}
	return rle.FromBits(bitsA)
}

// differential runs every row-level check of one engine over one
// corpus pair.
func (r *run) differential(name string, eng sysrle.Engine, p pair, at location) {
	width := p.A.Width
	for y := 0; y < p.A.Height; y++ {
		a, b := p.A.Rows[y], p.B.Rows[y]
		at := at
		at.row = y

		res, err := eng.XORRow(a, b)
		switch {
		case err != nil:
			r.rowFailure(name, checkPixelOracle, at, a, b, func(a, b rle.Row) string {
				if _, err := eng.XORRow(a, b); err != nil {
					return fmt.Sprintf("engine error: %v", err)
				}
				return ""
			})
		default:
			r.rowFailure(name, checkPixelOracle, at, a, b, func(a, b rle.Row) string {
				res, err := eng.XORRow(a, b)
				if err != nil {
					return fmt.Sprintf("engine error: %v", err)
				}
				if want := pixelXOR(a, b, width); !res.Row.EqualBits(want) {
					return fmt.Sprintf("got %v, want bits %v", res.Row, want)
				}
				return ""
			})

			// §4 invariants on the raw engine output (Theorem-2
			// ordering, area parity, support bounds).
			r.check(name, checkInvariants, at, core.CheckXORResult(a, b, res.Row) == nil,
				a.String(), b.String(), errString(core.CheckXORResult(a, b, res.Row)))

			// The §2 merge is the paper's reference semantics; bit
			// equality against it catches a wrong pixel oracle as much
			// as a wrong engine.
			seq, _ := core.AppendSequentialXOR(nil, a, b)
			r.check(name, checkSequential, at, res.Row.EqualBits(seq),
				a.String(), b.String(),
				fmt.Sprintf("engine %v, sequential %v", res.Row, seq))
		}

		// Append path: prefix preserved, appended segment canonical
		// and bit-equal to the oracle.
		r.rowFailure(name, checkAppendPath, at, a, b, func(a, b rle.Row) string {
			prefix := rle.Row{{Start: 0, Length: 1}}
			res, err := core.XORRowAppend(eng, prefix.Clone(), a, b)
			if err != nil {
				return fmt.Sprintf("append error: %v", err)
			}
			if len(res.Row) < 1 || res.Row[0] != prefix[0] {
				return fmt.Sprintf("prefix disturbed: %v", res.Row)
			}
			appended := res.Row[1:]
			if !appended.Canonical() {
				return fmt.Sprintf("appended segment not canonical: %v", appended)
			}
			if want := pixelXOR(a, b, width); !appended.EqualBits(want) {
				return fmt.Sprintf("appended %v, want bits %v", appended, want)
			}
			return ""
		})

		// Metamorphic, per engine: XOR is symmetric…
		r.rowFailure(name, checkXORSymmetry, at, a, b, func(a, b rle.Row) string {
			ab, errAB := eng.XORRow(a, b)
			ba, errBA := eng.XORRow(b, a)
			if (errAB == nil) != (errBA == nil) {
				return fmt.Sprintf("asymmetric errors: %v vs %v", errAB, errBA)
			}
			if errAB == nil && !ab.Row.EqualBits(ba.Row) {
				return fmt.Sprintf("E(a,b)=%v but E(b,a)=%v", ab.Row, ba.Row)
			}
			return ""
		})

		// …and self-annihilating: E(x, x) has no surviving runs.
		r.rowFailure(name, checkSelfAnnihilat, at, a, b, func(a, _ rle.Row) string {
			res, err := eng.XORRow(a, a)
			if err != nil {
				return fmt.Sprintf("engine error: %v", err)
			}
			if res.Row.Area() != 0 {
				return fmt.Sprintf("E(x,x) = %v, want empty", res.Row)
			}
			return ""
		})
	}
}

// rowFailure evaluates a row-level predicate (empty string = pass)
// and, on failure, minimizes the input pair before recording it.
func (r *run) rowFailure(engine, check string, at location, a, b rle.Row, fails func(a, b rle.Row) string) {
	detail := fails(a, b)
	if detail == "" {
		r.check(engine, check, at, true, "", "", "")
		return
	}
	ma, mb := minimizePair(a, b, func(a, b rle.Row) bool { return fails(a, b) != "" })
	r.check(engine, check, at, false, ma.String(), mb.String(), fails(ma, mb))
}

// minimizePair greedily shrinks a failing row pair while the
// predicate keeps failing: whole runs are dropped from either row,
// then surviving runs are halved in length. The result is a local
// minimum — small enough to eyeball and replay in a regression test.
func minimizePair(a, b rle.Row, fails func(a, b rle.Row) bool) (rle.Row, rle.Row) {
	a, b = a.Clone(), b.Clone()
	without := func(w rle.Row, i int) rle.Row {
		out := make(rle.Row, 0, len(w)-1)
		out = append(out, w[:i]...)
		return append(out, w[i+1:]...)
	}
	for shrunk := true; shrunk; {
		shrunk = false
		for i := 0; i < len(a); i++ {
			if cand := without(a, i); fails(cand, b) {
				a, shrunk = cand, true
				i--
			}
		}
		for i := 0; i < len(b); i++ {
			if cand := without(b, i); fails(a, cand) {
				b, shrunk = cand, true
				i--
			}
		}
		for i := range a {
			for a[i].Length > 1 {
				cand := a.Clone()
				cand[i].Length /= 2
				if !fails(cand, b) {
					break
				}
				a, shrunk = cand, true
			}
		}
		for i := range b {
			for b[i].Length > 1 {
				cand := b.Clone()
				cand[i].Length /= 2
				if !fails(a, cand) {
					break
				}
				b, shrunk = cand, true
			}
		}
	}
	return a, b
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
