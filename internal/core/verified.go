package core

import (
	"errors"
	"fmt"
	"sync/atomic"

	"sysrle/internal/rle"
)

// Verified is the detect-and-recover engine: it runs Primary, checks
// the result against the §4 invariants (and optionally against the
// sequential baseline), and on any violation — including a panic or
// error inside Primary — recomputes on a clean reference engine. This
// is the software form of classic systolic fault tolerance: the
// paper's wired-AND termination and Theorem-2 ordering give cheap,
// executable acceptance tests for a row result, so a faulty array can
// be detected per row and the row replayed on known-good hardware.
type Verified struct {
	// Primary computes every row first.
	Primary Engine
	// Reference recomputes rows Primary got wrong; nil means the
	// sequential merge baseline (§2), the natural known-good fallback.
	Reference Engine
	// CrossCheck additionally compares every Primary result against
	// the sequential baseline, catching value corruption that
	// preserves the structural invariants (a dropped run, a stuck
	// cell). It roughly doubles the row cost; NewVerified enables it.
	CrossCheck bool
	// OnFault, when non-nil, observes every detected fault before the
	// recovery recompute (telemetry hooks).
	OnFault func(err error)

	// recovered counts faults detected and recovered over the
	// engine's lifetime; see Recovered.
	recovered atomic.Int64
}

// NewVerified returns a Verified engine over primary with
// cross-checking enabled — full detection at the price of one extra
// sequential merge per row.
func NewVerified(primary Engine) *Verified {
	return &Verified{Primary: primary, CrossCheck: true}
}

// Name implements Engine.
func (v *Verified) Name() string { return "verified(" + v.Primary.Name() + ")" }

// Recovered returns the number of rows whose Primary result was
// rejected (invariant violation, cross-check mismatch, error or
// panic) and recomputed on the reference engine since the Verified
// was created. Safe to read concurrently; callers tracking one
// operation take a before/after difference.
func (v *Verified) Recovered() int64 { return v.recovered.Load() }

// Flush implements Flusher by flushing Primary, so an engine that
// tallies its telemetry still publishes it when verified.
func (v *Verified) Flush() {
	if f, ok := v.Primary.(Flusher); ok {
		f.Flush()
	}
}

// reference returns the recovery engine.
func (v *Verified) reference() Engine {
	if v.Reference != nil {
		return v.Reference
	}
	return Sequential{}
}

// XORRow implements Engine as XORRowAppend into a fresh row.
func (v *Verified) XORRow(a, b rle.Row) (Result, error) { return v.XORRowAppend(nil, a, b) }

// XORRowAppend implements AppendEngine: Primary runs through its own
// append path into dst, the appended segment is checked, and on any
// fault dst is rewound and the reference engine recomputes into it.
// Invalid inputs fail fast (both engines would reject them identically
// — that is not a fault), and so does a Primary error wrapping
// ErrTooWide: a fixed array refusing a row pair too wide for it keeps
// its contract, so the refusal is neither counted nor recomputed.
func (v *Verified) XORRowAppend(dst rle.Row, a, b rle.Row) (Result, error) {
	if err := ValidateRowPair(a, b); err != nil {
		return Result{}, err
	}
	base := len(dst)
	res, err := v.primaryRowAppend(dst, a, b)
	if err == nil {
		err = CheckXORResult(a, b, res.Row[base:])
	}
	if err == nil && v.CrossCheck {
		if want, _ := AppendSequentialXOR(nil, a, b); !res.Row[base:].EqualBits(want) {
			err = fmt.Errorf("core: %s result mismatch: got %v want %v", v.Primary.Name(), res.Row[base:], want)
		}
	}
	if err == nil {
		return res, nil
	}
	if errors.Is(err, ErrTooWide) {
		return Result{}, err
	}
	v.recovered.Add(1)
	if v.OnFault != nil {
		v.OnFault(err)
	}
	// A faulty Primary may have appended garbage (or grown dst);
	// recompute from the caller's original prefix.
	return XORRowAppend(v.reference(), dst[:base], a, b)
}

// primaryRowAppend runs Primary's append path, converting a panic
// into an error.
func (v *Verified) primaryRowAppend(dst rle.Row, a, b rle.Row) (res Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("core: %s panicked: %v", v.Primary.Name(), p)
		}
	}()
	return XORRowAppend(v.Primary, dst, a, b)
}

// CheckXORResult validates a claimed XOR result row against cheap
// necessary conditions derived from the paper:
//
//  1. the runs are strictly ordered and non-overlapping (Theorem 2 —
//     the order in which Gather reads the array);
//  2. the result's area has the parity of |A|+|B| (XOR removes pixels
//     in pairs: |A⊕B| = |A|+|B|−2|A∩B|);
//  3. the result's support lies inside the union of the input
//     supports (no cell can invent a span outside its operands).
//
// These conditions are necessary but not sufficient — a value error
// that preserves all three needs the cross-check to be caught.
func CheckXORResult(a, b, got rle.Row) error {
	if err := got.Validate(-1); err != nil {
		return fmt.Errorf("core: result violates Theorem 2 ordering: %w", err)
	}
	if (got.Area()+a.Area()+b.Area())%2 != 0 {
		return fmt.Errorf("core: result area %d has wrong parity for inputs of area %d and %d",
			got.Area(), a.Area(), b.Area())
	}
	if len(got) == 0 {
		return nil
	}
	if len(a) == 0 && len(b) == 0 {
		return fmt.Errorf("core: non-empty result %v from two empty rows", got)
	}
	lo, hi := supportBounds(a, b)
	if got[0].Start < lo || got[len(got)-1].End() > hi {
		return fmt.Errorf("core: result support [%d,%d] outside input support [%d,%d]",
			got[0].Start, got[len(got)-1].End(), lo, hi)
	}
	return nil
}

// supportBounds returns the smallest interval covering both rows; at
// least one row must be non-empty.
func supportBounds(a, b rle.Row) (lo, hi int) {
	switch {
	case len(a) == 0:
		return b[0].Start, b[len(b)-1].End()
	case len(b) == 0:
		return a[0].Start, a[len(a)-1].End()
	}
	lo = min(a[0].Start, b[0].Start)
	hi = max(a[len(a)-1].End(), b[len(b)-1].End())
	return lo, hi
}
