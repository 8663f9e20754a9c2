package runmorph

import (
	"testing"

	"sysrle/internal/rle"
)

// Fuzzing the 1-D interval primitives against the uncompressed bit
// reference over adversarial run rows and SE geometries. The byte
// stream decodes to (gap, length) pairs, so every input is a valid
// (possibly fragmented: zero gaps produce adjacent runs) row — the
// encoding the paper permits as input.

func decodeRow(data []byte) rle.Row {
	var row rle.Row
	pos := 0
	for i := 0; i+1 < len(data) && len(row) < 64; i += 2 {
		gap := int(data[i]) % 17 // 0 = adjacent fragment
		length := int(data[i+1])%9 + 1
		start := pos + gap
		row = append(row, rle.Run{Start: start, Length: length})
		pos = start + length
	}
	return row
}

// refBits applies the 1-D operation to the expanded bitstring.
func refBits(row rle.Row, left, right, width int, dilate bool) rle.Row {
	// Work on a domain wide enough to hold every translate.
	bits := row.Bits(width)
	out := make([]bool, width)
	for x := 0; x < width; x++ {
		if dilate {
			for dx := -left; dx <= right && !out[x]; dx++ {
				if src := x - dx; src >= 0 && src < width && bits[src] {
					out[x] = true
				}
			}
		} else {
			all := true
			for dx := -left; dx <= right && all; dx++ {
				if src := x + dx; src < 0 || src >= width || !bits[src] {
					all = false
				}
			}
			out[x] = all
		}
	}
	return rle.FromBits(out)
}

func seExtents(a, b byte) (left, right int) { return int(a) % 9, int(b) % 9 }

func FuzzUnionOfTranslates(f *testing.F) {
	f.Add([]byte{0, 3, 1, 2}, byte(1), byte(1))
	f.Add([]byte{0, 1, 0, 1, 0, 1}, byte(0), byte(4))
	f.Add([]byte{16, 8, 16, 8}, byte(8), byte(0))
	f.Add([]byte{}, byte(2), byte(2))
	f.Fuzz(func(t *testing.T, data []byte, lb, rb byte) {
		left, right := seExtents(lb, rb)
		row := decodeRow(data)
		width := 0
		if n := len(row); n > 0 {
			width = row[n-1].End() + 1
		}
		width += left + right + 1 // room for every translate
		got := AppendDilateRow(nil, row, left, right, width)
		if err := got.Validate(width); err != nil {
			t.Fatalf("invalid output: %v (%v)", err, got)
		}
		if !got.Canonical() {
			t.Fatalf("non-canonical output %v for input %v", got, row)
		}
		if want := refBits(row, left, right, width, true); !got.Equal(want) {
			t.Fatalf("dilate(%v, -%d..+%d) = %v, want %v", row, left, right, got, want)
		}
		// Append contract: a prefix survives untouched and the suffix is
		// unchanged.
		prefix := rle.Row{rle.Span(width+10, width+11)}
		both := AppendDilateRow(prefix, row, left, right, width)
		if both[0] != prefix[0] || !both[1:].Equal(got) {
			t.Fatalf("append contract broken: %v", both)
		}
	})
}

func FuzzErodeIntersection(f *testing.F) {
	f.Add([]byte{0, 3, 0, 3, 0, 3}, byte(2), byte(2))
	f.Add([]byte{4, 8, 0, 8, 0, 2}, byte(3), byte(1))
	f.Add([]byte{0, 1}, byte(0), byte(0))
	f.Add([]byte{}, byte(1), byte(4))
	f.Fuzz(func(t *testing.T, data []byte, lb, rb byte) {
		left, right := seExtents(lb, rb)
		row := decodeRow(data)
		width := 1
		if n := len(row); n > 0 {
			width = row[n-1].End() + 1
		}
		got := AppendErodeRow(nil, row, left, right)
		if err := got.Validate(width); err != nil {
			t.Fatalf("invalid output: %v (%v)", err, got)
		}
		if !got.Canonical() {
			t.Fatalf("non-canonical output %v for input %v", got, row)
		}
		if want := refBits(row, left, right, width, false); !got.Equal(want) {
			t.Fatalf("erode(%v, -%d..+%d) = %v, want %v", row, left, right, got, want)
		}
		prefix := rle.Row{rle.Span(width+10, width+11)}
		both := AppendErodeRow(prefix, row, left, right)
		if both[0] != prefix[0] || !both[1:].Equal(got) {
			t.Fatalf("append contract broken: %v", both)
		}
	})
}
