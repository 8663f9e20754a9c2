package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"sysrle/internal/rle"
)

// fakeEngine returns a canned result (or panics) regardless of input.
type fakeEngine struct {
	row     rle.Row
	err     error
	panicky bool
}

func (fakeEngine) Name() string { return "fake" }

func (f fakeEngine) XORRow(a, b rle.Row) (Result, error) {
	if f.panicky {
		panic("fake engine exploded")
	}
	return Result{Row: f.row, Iterations: 1, Cells: 1}, f.err
}

func TestVerifiedPassesThroughCorrectResults(t *testing.T) {
	v := NewVerified(Lockstep{})
	faults := 0
	v.OnFault = func(error) { faults++ }
	a := rle.Row{rle.Span(0, 4), rle.Span(10, 12)}
	b := rle.Row{rle.Span(3, 11)}
	want, _ := AppendSequentialXOR(nil, a, b)
	res, err := v.XORRow(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Row.EqualBits(want) {
		t.Fatalf("got %v want %v", res.Row, want)
	}
	if faults != 0 {
		t.Errorf("clean engine tripped %d faults", faults)
	}
	if name := v.Name(); name != "verified(systolic-lockstep)" {
		t.Errorf("name %q", name)
	}
}

func TestVerifiedRecoversFromPanic(t *testing.T) {
	v := NewVerified(fakeEngine{panicky: true})
	var got error
	v.OnFault = func(err error) { got = err }
	a, b := rle.Row{rle.Span(0, 4)}, rle.Row{rle.Span(2, 6)}
	want, _ := AppendSequentialXOR(nil, a, b)
	res, err := v.XORRow(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Row.EqualBits(want) {
		t.Fatalf("got %v want %v", res.Row, want)
	}
	if got == nil || !strings.Contains(got.Error(), "panicked") {
		t.Errorf("OnFault saw %v, want a panic error", got)
	}
}

func TestVerifiedRecoversFromError(t *testing.T) {
	v := NewVerified(fakeEngine{err: errors.New("transient")})
	faults := 0
	v.OnFault = func(error) { faults++ }
	a, b := rle.Row{rle.Span(0, 4)}, rle.Row{rle.Span(6, 8)}
	want, _ := AppendSequentialXOR(nil, a, b)
	res, err := v.XORRow(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Row.EqualBits(want) || faults != 1 {
		t.Fatalf("row %v (want %v), faults %d", res.Row, want, faults)
	}
}

func TestVerifiedCatchesValueMismatch(t *testing.T) {
	// A wrong answer that passes every structural check — ordered,
	// even area (matching |A|+|B| = 20 mod 2), inside the input
	// support — so only the sequential cross-check can catch it.
	claim := rle.Row{rle.Span(0, 8), rle.Span(20, 27), rle.Span(29, 29)}
	v := NewVerified(fakeEngine{row: claim})
	faults := 0
	v.OnFault = func(error) { faults++ }
	a, b := rle.Row{rle.Span(0, 9)}, rle.Row{rle.Span(20, 29)}
	res, err := v.XORRow(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := AppendSequentialXOR(nil, a, b)
	if !res.Row.EqualBits(want) || faults != 1 {
		t.Fatalf("row %v (want %v), faults %d", res.Row, want, faults)
	}
}

func TestVerifiedPropagatesInvalidInput(t *testing.T) {
	v := NewVerified(Lockstep{})
	faults := 0
	v.OnFault = func(error) { faults++ }
	bad := rle.Row{rle.Span(5, 9), rle.Span(0, 2)} // out of order
	if _, err := v.XORRow(bad, rle.Row{}); err == nil {
		t.Fatal("invalid input accepted")
	}
	if faults != 0 {
		t.Errorf("invalid input is not an engine fault, got %d", faults)
	}
}

// TestVerifiedPassesTooWideThrough: a fixed array refusing a row pair
// too wide for it is the array's contract, not a fault, so both entry
// points return the ErrTooWide error as is, with nothing counted or
// recomputed on the reference engine.
func TestVerifiedPassesTooWideThrough(t *testing.T) {
	tooWide := fmt.Errorf("%w: need 9 cells, have 4", ErrTooWide)
	v := NewVerified(fakeEngine{err: tooWide})
	faults := 0
	v.OnFault = func(error) { faults++ }
	a, b := rle.Row{rle.Span(0, 4), rle.Span(8, 9)}, rle.Row{rle.Span(2, 6)}
	if _, err := v.XORRow(a, b); !errors.Is(err, ErrTooWide) {
		t.Errorf("XORRow error %v, want ErrTooWide", err)
	}
	if res, err := v.XORRowAppend(rle.Row{rle.Span(100, 101)}, a, b); !errors.Is(err, ErrTooWide) || res.Row != nil {
		t.Errorf("XORRowAppend = %v, %v; want no row and ErrTooWide", res.Row, err)
	}
	if faults != 0 || v.Recovered() != 0 {
		t.Errorf("a too-wide refusal counted as %d faults, %d recovered", faults, v.Recovered())
	}
}

func TestCheckXORResult(t *testing.T) {
	a := rle.Row{rle.Span(0, 9)}
	b := rle.Row{rle.Span(20, 29)}
	cases := []struct {
		name string
		got  rle.Row
		ok   bool
	}{
		{"correct", rle.Row{rle.Span(0, 9), rle.Span(20, 29)}, true},
		{"empty ok parity", nil, true},
		{"unordered", rle.Row{rle.Span(20, 29), rle.Span(0, 9)}, false},
		{"overlap", rle.Row{rle.Span(0, 9), rle.Span(5, 24)}, false},
		{"bad parity", rle.Row{rle.Span(0, 9), rle.Span(20, 28)}, false},
		{"outside support", rle.Row{rle.Span(0, 9), rle.Span(40, 49)}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := CheckXORResult(a, b, c.got)
			if (err == nil) != c.ok {
				t.Errorf("CheckXORResult = %v, want ok=%v", err, c.ok)
			}
		})
	}
	if err := CheckXORResult(nil, nil, rle.Row{rle.Span(0, 1)}); err == nil {
		t.Error("non-empty result from empty inputs accepted")
	}
	if err := CheckXORResult(nil, nil, nil); err != nil {
		t.Errorf("empty result from empty inputs rejected: %v", err)
	}
}
