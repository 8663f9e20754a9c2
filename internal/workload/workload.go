// Package workload generates the paper's §5 evaluation inputs: rows
// whose foreground comes in runs of length 4–20 with density set by
// the average gap between runs, and second images derived by flipping
// "error" runs of length 2–6 in either direction. All generation is
// driven by a caller-supplied *rand.Rand so experiments are seeded
// and reproducible.
package workload

import (
	"fmt"
	"math/rand"

	"sysrle/internal/rle"
)

// RowParams describes the base-image row model.
type RowParams struct {
	// Width is the row length in pixels (the paper sweeps 128–2048
	// for Table 1 and uses 10,000 for Figure 5).
	Width int
	// MinRunLen and MaxRunLen bound the foreground run lengths
	// (inclusive); the paper uses 4 and 20.
	MinRunLen int
	MaxRunLen int
	// Density is the target fraction of foreground pixels, achieved
	// by choosing the mean gap between runs; the paper's Figure 5
	// uses ≈0.30.
	Density float64
}

// PaperRow returns the paper's row model at the given width and
// density: run lengths 4–20.
func PaperRow(width int, density float64) RowParams {
	return RowParams{Width: width, MinRunLen: 4, MaxRunLen: 20, Density: density}
}

// Validate reports parameter errors.
func (p RowParams) Validate() error {
	switch {
	case p.Width < 0:
		return fmt.Errorf("workload: negative width %d", p.Width)
	case p.MinRunLen < 1 || p.MaxRunLen < p.MinRunLen:
		return fmt.Errorf("workload: bad run length range [%d,%d]", p.MinRunLen, p.MaxRunLen)
	case p.Density <= 0 || p.Density >= 1:
		return fmt.Errorf("workload: density %v outside (0,1)", p.Density)
	}
	return nil
}

// meanGap derives the mean background gap that realizes the target
// density given the mean run length.
func (p RowParams) meanGap() float64 {
	meanRun := float64(p.MinRunLen+p.MaxRunLen) / 2
	return meanRun * (1 - p.Density) / p.Density
}

// GenerateRow produces one canonical row under the model. Gaps are
// uniform on [1, 2·meanGap−1] (mean meanGap, minimum 1 so the row is
// maximally compressed, as the paper's Observation requires of its
// inputs).
func GenerateRow(rng *rand.Rand, p RowParams) (rle.Row, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	gapMax := int(2*p.meanGap()) - 1
	if gapMax < 1 {
		gapMax = 1
	}
	var row rle.Row
	pos := 1 + rng.Intn(gapMax)
	for {
		length := p.MinRunLen + rng.Intn(p.MaxRunLen-p.MinRunLen+1)
		if pos+length > p.Width {
			break
		}
		row = append(row, rle.Run{Start: pos, Length: length})
		pos += length + 1 + rng.Intn(gapMax)
	}
	return row, nil
}

// ErrorParams describes the §5 error model: flipped runs ("errors ...
// created in runs of length 2 to 6", flipping 1→0 and 0→1 alike).
type ErrorParams struct {
	// Count is the number of error runs to place.
	Count int
	// MinLen and MaxLen bound each error run's length (inclusive);
	// the paper uses 2 and 6 for Figure 5 and exactly 4 for Table
	// 1's fixed-error case.
	MinLen int
	MaxLen int
}

// PaperErrors returns the paper's error model: runs of length 2–6.
func PaperErrors(count int) ErrorParams {
	return ErrorParams{Count: count, MinLen: 2, MaxLen: 6}
}

// Validate reports parameter errors.
func (p ErrorParams) Validate() error {
	switch {
	case p.Count < 0:
		return fmt.Errorf("workload: negative error count %d", p.Count)
	case p.Count > 0 && (p.MinLen < 1 || p.MaxLen < p.MinLen):
		return fmt.Errorf("workload: bad error length range [%d,%d]", p.MinLen, p.MaxLen)
	}
	return nil
}

// CountForPixelFraction sizes Count so that approximately frac·width
// pixels differ (before overlap between error runs).
func CountForPixelFraction(width int, frac float64, minLen, maxLen int) ErrorParams {
	mean := float64(minLen+maxLen) / 2
	count := int(frac*float64(width)/mean + 0.5)
	return ErrorParams{Count: count, MinLen: minLen, MaxLen: maxLen}
}

// ErrorMask generates the set of flipped pixels as a row: Count runs
// at uniform positions, merged where they collide.
func ErrorMask(rng *rand.Rand, width int, p ErrorParams) (rle.Row, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.Count == 0 || width == 0 {
		return nil, nil
	}
	runs := make([]rle.Run, 0, p.Count)
	for i := 0; i < p.Count; i++ {
		length := p.MinLen + rng.Intn(p.MaxLen-p.MinLen+1)
		if length > width {
			length = width
		}
		start := rng.Intn(width - length + 1)
		runs = append(runs, rle.Run{Start: start, Length: length})
	}
	return rle.Normalize(runs), nil
}

// Pair is a generated experiment input: a base row, the row with
// errors applied, and the mask that was flipped.
type Pair struct {
	A    rle.Row
	B    rle.Row
	Mask rle.Row
}

// GeneratePair builds one §5 input pair: A from the row model, B =
// A ⊕ mask.
func GeneratePair(rng *rand.Rand, rp RowParams, ep ErrorParams) (Pair, error) {
	a, err := GenerateRow(rng, rp)
	if err != nil {
		return Pair{}, err
	}
	mask, err := ErrorMask(rng, rp.Width, ep)
	if err != nil {
		return Pair{}, err
	}
	return Pair{A: a, B: rle.XOR(a, mask), Mask: mask}, nil
}

// GenerateImage builds a multi-row image under the row model — used
// by examples and the motion-detection scenario.
func GenerateImage(rng *rand.Rand, p RowParams, height int) (*rle.Image, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if height < 0 {
		return nil, fmt.Errorf("workload: negative height %d", height)
	}
	img := rle.NewImage(p.Width, height)
	for y := 0; y < height; y++ {
		row, err := GenerateRow(rng, p)
		if err != nil {
			return nil, err
		}
		img.Rows[y] = row
	}
	return img, nil
}
