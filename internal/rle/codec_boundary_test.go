package rle

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// Boundary streams for the RLEB codec's one-byte run fast path: gaps
// and lengths of exactly 127 and 128 (the last one-byte and first
// two-byte uvarint) and 16383 and 16384 (the last two-byte and first
// three-byte one), mixed within one row, and streams cut short at
// every byte.

// boundaryImage has every boundary value as a gap and as a length, a
// one-byte gap with a multi-byte length and the reverse (gap 0 and
// length 128 among them: their bytes OR to exactly 0x80), and
// all-one-byte runs between multi-byte ones.
func boundaryImage() *Image {
	return &Image{Width: 40000, Height: 3, Rows: []Row{
		// gap 127 / length 128, gap 128 / length 127, gap 16383 / length 16384
		{{Start: 127, Length: 128}, {Start: 383, Length: 127}, {Start: 16893, Length: 16384}},
		// gap 0 / length 16383, gap 16384 / length 1, gap 1 / length 127
		{{Start: 0, Length: 16383}, {Start: 32767, Length: 1}, {Start: 32769, Length: 127}},
		// gap 5 / length 6, gap 0 / length 128, gap 16384 / length 16383,
		// gap 127 / length 127
		{{Start: 5, Length: 6}, {Start: 11, Length: 128}, {Start: 16523, Length: 16383}, {Start: 33033, Length: 127}},
	}}
}

// boundaryRejects are malformed streams and the decoder's error for
// each, as the codec has always worded it.
var boundaryRejects = []struct {
	name, err string
	data      []byte
}{
	{"cut between gap and length", "rle: row 0 run 0 length: truncated or overlong uvarint",
		[]byte("RLEB\x08\x01\x01\x02")},
	{"cut between a one-byte gap and a two-byte length", "rle: row 0 run 0 length: truncated or overlong uvarint",
		[]byte("RLEB\x80\x02\x01\x01\x7f\x80")},
	{"cut inside a two-byte gap", "rle: row 0 run 0 gap: truncated or overlong uvarint",
		[]byte("RLEB\x80\x02\x01\x01\x80")},
	{"overlong gap", "rle: row 0 run 0 gap: truncated or overlong uvarint",
		[]byte("RLEB\x08\x01\x01\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01")},
	{"one-byte gap past width", "rle: row 0 run 0: gap 9 / length 1 outside width 8",
		[]byte("RLEB\x08\x01\x01\x09\x01")},
	{"one-byte zero length", "rle: row 0 run 0: gap 0 / length 0 outside width 8",
		[]byte("RLEB\x08\x01\x01\x00\x00")},
	{"one-byte length past width", "rle: row 0 run 0: gap 0 / length 9 outside width 8",
		[]byte("RLEB\x08\x01\x01\x00\x09")},
	{"one-byte run past row end", "rle: row 0 run 1: extends to 8 beyond width 8",
		[]byte("RLEB\x08\x01\x02\x00\x04\x01\x04")},
	{"two-byte length 128 in width 127", "rle: row 0 run 0: gap 0 / length 128 outside width 127",
		[]byte("RLEB\x7f\x01\x01\x00\x80\x01")},
	{"three-byte gap 16384 in width 16384", "rle: row 0 run 0: extends to 16384 beyond width 16384",
		[]byte("RLEB\x80\x80\x01\x01\x01\x80\x80\x01\x01")},
}

// boundaryCutErrs is the decoder's error for boundaryImage's stream
// cut to its first n bytes, n = 0 up to one short of the whole.
var boundaryCutErrs = []string{
	0:  "rle: unrecognized format: bad magic",
	1:  "rle: unrecognized format: bad magic",
	2:  "rle: unrecognized format: bad magic",
	3:  "rle: unrecognized format: bad magic",
	4:  "rle: reading width: truncated or overlong uvarint",
	5:  "rle: reading width: truncated or overlong uvarint",
	6:  "rle: reading width: truncated or overlong uvarint",
	7:  "rle: reading height: truncated or overlong uvarint",
	8:  "rle: 3 rows in 0 bytes: unexpected EOF",
	9:  "rle: 3 rows in 1 bytes: unexpected EOF",
	10: "rle: 3 rows in 2 bytes: unexpected EOF",
	11: "rle: row 0 run 0 length: truncated or overlong uvarint",
	12: "rle: row 0 run 1 gap: truncated or overlong uvarint",
	13: "rle: row 0 run 1 gap: truncated or overlong uvarint",
	14: "rle: row 0 run 1 length: truncated or overlong uvarint",
	15: "rle: row 0 run 2 gap: truncated or overlong uvarint",
	16: "rle: row 0 run 2 gap: truncated or overlong uvarint",
	17: "rle: row 0 run 2 length: truncated or overlong uvarint",
	18: "rle: row 0 run 2 length: truncated or overlong uvarint",
	19: "rle: row 0 run 2 length: truncated or overlong uvarint",
	20: "rle: row 1 count: truncated or overlong uvarint",
	21: "rle: row 1 run 0 gap: truncated or overlong uvarint",
	22: "rle: row 1 run 0 length: truncated or overlong uvarint",
	23: "rle: row 1 run 0 length: truncated or overlong uvarint",
	24: "rle: row 1 run 1 gap: truncated or overlong uvarint",
	25: "rle: row 1 run 1 gap: truncated or overlong uvarint",
	26: "rle: row 1 run 1 gap: truncated or overlong uvarint",
	27: "rle: row 1 run 1 length: truncated or overlong uvarint",
	28: "rle: row 1 run 2 gap: truncated or overlong uvarint",
	29: "rle: row 1 run 2 length: truncated or overlong uvarint",
	30: "rle: row 2 count: truncated or overlong uvarint",
	31: "rle: row 2 run 0 gap: truncated or overlong uvarint",
	32: "rle: row 2 run 0 length: truncated or overlong uvarint",
	33: "rle: row 2 run 1 gap: truncated or overlong uvarint",
	34: "rle: row 2 run 1 length: truncated or overlong uvarint",
	35: "rle: row 2 run 1 length: truncated or overlong uvarint",
	36: "rle: row 2 run 2 gap: truncated or overlong uvarint",
	37: "rle: row 2 run 2 gap: truncated or overlong uvarint",
	38: "rle: row 2 run 2 gap: truncated or overlong uvarint",
	39: "rle: row 2 run 2 length: truncated or overlong uvarint",
	40: "rle: row 2 run 2 length: truncated or overlong uvarint",
	41: "rle: row 2 run 3 gap: truncated or overlong uvarint",
	42: "rle: row 2 run 3 length: truncated or overlong uvarint",
}

// boundaryStreams is every boundary stream: boundaryImage's, each of
// its cuts, and the rejects. The fuzz harnesses seed from it.
func boundaryStreams() [][]byte {
	whole := AppendBinary(nil, boundaryImage())
	out := [][]byte{whole}
	for n := range whole {
		out = append(out, whole[:n])
	}
	for _, c := range boundaryRejects {
		out = append(out, c.data)
	}
	return out
}

// checkDecodersAgree decodes data with DecodeBinary, RowDecoder.Next
// and the old reader. All three must accept or all reject; an accepted
// stream must decode to the same rows, and a rejected one must fail
// with wantErr from both new decoders ("" when the stream is valid).
func checkDecodersAgree(t *testing.T, data []byte, wantErr string) {
	t.Helper()
	want, oracleErr := readBinaryOracle(bytes.NewReader(data))
	img, err := DecodeBinary(data)
	if got := errText(err); got != wantErr {
		t.Fatalf("DecodeBinary(%x) error %q, want %q", data, got, wantErr)
	}
	if (oracleErr == nil) != (err == nil) {
		t.Fatalf("DecodeBinary(%x) error %v, old reader error %v", data, err, oracleErr)
	}
	if err == nil && !img.Equal(want) {
		t.Fatalf("DecodeBinary(%x) and the old reader decode different images", data)
	}
	var rows []Row
	d, err := NewRowDecoder(data)
	if err == nil {
		var row Row
		for y := 0; y < d.Height && err == nil; y++ {
			if row, err = d.Next(row[:0]); err == nil {
				rows = append(rows, append(Row(nil), row...))
			}
		}
	}
	if got := errText(err); got != wantErr {
		t.Fatalf("RowDecoder on %x: error %q, want %q", data, got, wantErr)
	}
	if err != nil {
		return
	}
	for y, row := range rows {
		if !row.Equal(want.Rows[y]) {
			t.Fatalf("RowDecoder on %x: row %d = %v, want %v", data, y, row, want.Rows[y])
		}
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestBinaryCodecBoundaries: at the uvarint width boundaries the codec
// encodes byte for byte as the old writer, decodes as the old reader,
// and rejects every cut or malformed stream with its usual error.
func TestBinaryCodecBoundaries(t *testing.T) {
	img := boundaryImage()
	if err := img.Validate(); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := writeBinaryOracle(&want, img); err != nil {
		t.Fatal(err)
	}
	whole := AppendBinary(nil, img)
	if !bytes.Equal(whole, want.Bytes()) {
		t.Fatalf("AppendBinary = %x, old writer %x", whole, want.Bytes())
	}
	checkDecodersAgree(t, whole, "")
	if len(boundaryCutErrs) != len(whole) {
		t.Fatalf("%d cut errors for a %d-byte stream", len(boundaryCutErrs), len(whole))
	}
	for n, wantErr := range boundaryCutErrs {
		t.Run(fmt.Sprintf("cut-%d", n), func(t *testing.T) {
			checkDecodersAgree(t, whole[:n], wantErr)
		})
	}
	for _, c := range boundaryRejects {
		t.Run(c.name, func(t *testing.T) { checkDecodersAgree(t, c.data, c.err) })
	}
}

// TestBinaryCodecWarmZeroAllocs: once warm the codec allocates
// nothing. Decoding every row of a 1024² stream into one reused Row
// costs no allocation beyond NewRowDecoder's own, and AppendBinaryRow
// into a buffer with room for the stream costs none.
func TestBinaryCodecWarmZeroAllocs(t *testing.T) {
	img := randomImage(rand.New(rand.NewSource(1606)), 1024, 1024)
	data := AppendBinary(nil, img)
	header := testing.AllocsPerRun(10, func() {
		if _, err := NewRowDecoder(data); err != nil {
			t.Fatal(err)
		}
	})
	row := make(Row, 0, img.Width)
	decode := testing.AllocsPerRun(10, func() {
		d, err := NewRowDecoder(data)
		if err != nil {
			t.Fatal(err)
		}
		for y := 0; y < d.Height; y++ {
			if row, err = d.Next(row[:0]); err != nil {
				t.Fatal(err)
			}
		}
	})
	if decode != header {
		t.Errorf("decoding 1024 rows into a reused row: %.0f allocs, NewRowDecoder alone %.0f", decode, header)
	}
	buf := make([]byte, 0, len(data))
	encode := testing.AllocsPerRun(10, func() {
		b := AppendBinaryHeader(buf[:0], img.Width, img.Height)
		for _, r := range img.Rows {
			b = AppendBinaryRow(b, r)
		}
		if !bytes.Equal(b, data) {
			t.Fatal("re-encoded stream differs")
		}
	})
	if encode != 0 {
		t.Errorf("encoding 1024 rows into a buffer with room: %.0f allocs, want 0", encode)
	}
}
