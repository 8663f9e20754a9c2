// Package rle implements run-length encoding of binary image rows and
// compressed-domain operations on them.
//
// A run-length encoded row is a sequence of foreground runs, each a
// (start, length) pair measured in pixels, with strictly increasing
// starts and no overlaps (paper §2). Only foreground (1) pixels are
// represented; everything between runs is background (0).
//
// Two encodings of the same bitstring are distinguished throughout the
// package: a *valid* row may contain adjacent runs (one ends exactly
// where the next begins), which the paper permits for inputs and
// produces in outputs; a *canonical* row has no adjacent runs and is
// the maximally compressed form. Canonicalize converts the former to
// the latter.
package rle

import "fmt"

// Run is a single foreground run: Length consecutive 1-pixels starting
// at pixel index Start. This mirrors the cell register contents in the
// paper ("the first element is the start of the run and the second
// element is the run's length").
type Run struct {
	Start  int
	Length int
}

// End returns the inclusive end coordinate of the run, Start+Length-1.
// The paper's notation manipulates runs by start and end; storage uses
// start and length.
func (r Run) End() int { return r.Start + r.Length - 1 }

// Contains reports whether pixel index i lies inside the run.
func (r Run) Contains(i int) bool { return i >= r.Start && i <= r.End() }

// Valid reports whether the run is well-formed: non-negative start and
// strictly positive length.
func (r Run) Valid() bool { return r.Start >= 0 && r.Length > 0 }

func (r Run) String() string { return fmt.Sprintf("(%d,%d)", r.Start, r.Length) }

// Span builds a run from inclusive interval endpoints. It panics if
// end < start; use it only for intervals known to be non-empty.
func Span(start, end int) Run {
	if end < start {
		panic(fmt.Sprintf("rle: empty span [%d,%d]", start, end))
	}
	return Run{Start: start, Length: end - start + 1}
}
