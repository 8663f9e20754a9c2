package rle

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"strings"
	"testing"
	"time"
)

func TestTextRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 50; trial++ {
		img := randomImage(rng, 1+rng.Intn(100), 1+rng.Intn(20))
		var buf bytes.Buffer
		if err := WriteText(&buf, img); err != nil {
			t.Fatal(err)
		}
		back, err := ReadText(&buf)
		if err != nil {
			t.Fatalf("ReadText: %v\n%s", err, buf.String())
		}
		if !img.Equal(back) {
			t.Fatal("text round trip changed image")
		}
	}
}

func TestTextFormatShape(t *testing.T) {
	img := NewImage(32, 2)
	img.SetRow(0, Row{{10, 3}, {16, 2}})
	var buf bytes.Buffer
	if err := WriteText(&buf, img); err != nil {
		t.Fatal(err)
	}
	want := "RLET 32 2\n10,3 16,2\n\n"
	if buf.String() != want {
		t.Errorf("text = %q, want %q", buf.String(), want)
	}
}

func TestReadTextErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"empty", ""},
		{"bad magic", "NOPE 4 4\n"},
		{"bad dims", "RLET x 4\n"},
		{"negative dims", "RLET -3 4\n"},
		{"bad run", "RLET 8 1\n3;4\n"},
		{"invalid row", "RLET 8 1\n5,2 5,2\n"},
		{"out of bounds", "RLET 8 1\n6,4\n"},
	}
	for _, c := range cases {
		if _, err := ReadText(strings.NewReader(c.in)); err == nil {
			t.Errorf("%s: ReadText accepted %q", c.name, c.in)
		}
	}
}

func TestReadTextLastRowWithoutNewline(t *testing.T) {
	img, err := ReadText(strings.NewReader("RLET 8 2\n0,2\n4,2"))
	if err != nil {
		t.Fatal(err)
	}
	if !img.Rows[1].Equal(Row{{4, 2}}) {
		t.Errorf("row 1 = %v", img.Rows[1])
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 50; trial++ {
		img := randomImage(rng, 1+rng.Intn(500), 1+rng.Intn(30))
		var buf bytes.Buffer
		if err := WriteBinary(&buf, img); err != nil {
			t.Fatal(err)
		}
		back, err := ReadBinary(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !img.Equal(back) {
			t.Fatal("binary round trip changed image")
		}
	}
}

func TestBinaryIsCompact(t *testing.T) {
	// A dense, regular image should compress far below 1 bit/pixel.
	img := NewImage(1024, 64)
	for y := range img.Rows {
		img.Rows[y] = Row{{100, 200}, {400, 200}, {700, 200}}
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, img); err != nil {
		t.Fatal(err)
	}
	pixels := img.Width * img.Height / 8 // bytes if bit-packed
	if buf.Len() >= pixels {
		t.Errorf("binary size %d ≥ bit-packed size %d", buf.Len(), pixels)
	}
}

func TestReadBinaryErrors(t *testing.T) {
	cases := []struct {
		name string
		in   []byte
	}{
		{"empty", nil},
		{"bad magic", []byte("XXXX")},
		{"truncated header", []byte("RLEB")},
		{"truncated rows", append([]byte("RLEB"), 8, 4)}, // width 8, height 4, no rows
	}
	for _, c := range cases {
		if _, err := ReadBinary(bytes.NewReader(c.in)); err == nil {
			t.Errorf("%s: ReadBinary accepted %v", c.name, c.in)
		}
	}
}

func TestReadBinaryRejectsHugeRunCount(t *testing.T) {
	// width 8, height 1, row claims 200 runs.
	in := append([]byte("RLEB"), 8, 1, 200, 1)
	if _, err := ReadBinary(bytes.NewReader(in)); err == nil {
		t.Error("accepted run count exceeding width")
	}
}

// forgedBinaryHeader builds an RLEB stream whose header claims the
// given dimensions, followed by the given body bytes.
func forgedBinaryHeader(width, height uint64, body ...byte) []byte {
	buf := []byte(binaryMagic)
	buf = binary.AppendUvarint(buf, width)
	buf = binary.AppendUvarint(buf, height)
	return append(buf, body...)
}

// TestReadBinaryForgedHeader is the decoder-DoS regression test: a
// <20-byte upload whose header promises a gigantic image must fail
// fast with a decode error, not allocate gigabytes or panic. The whole
// table must finish well inside 100ms.
func TestReadBinaryForgedHeader(t *testing.T) {
	start := time.Now()
	cases := []struct {
		name string
		in   []byte
	}{
		{"height 2^30, empty body", forgedBinaryHeader(64, 1<<30)},
		{"width 2^30 x height 2^30", forgedBinaryHeader(1<<30, 1<<30)},
		{"dims over per-side cap", forgedBinaryHeader(1<<40, 1)},
		{"budget-passing height, truncated body", forgedBinaryHeader(1, 1<<30)},
		{"huge run count, no body", forgedBinaryHeader(1<<20, 2, 0xff, 0xff, 0x3f)}, // row 0 claims ~2^20 runs
	}
	for _, c := range cases {
		if len(c.in) >= 20 {
			t.Fatalf("%s: forged input is %d bytes, want <20", c.name, len(c.in))
		}
		if _, err := ReadBinary(bytes.NewReader(c.in)); err == nil {
			t.Errorf("%s: ReadBinary accepted forged input", c.name)
		}
		if _, err := DecodeBinary(c.in); err == nil {
			t.Errorf("%s: DecodeBinary accepted forged input", c.name)
		}
		if d, err := NewRowDecoder(c.in); err == nil {
			for err == nil && d.y < d.Height {
				_, err = d.Next(nil)
			}
			if err == nil {
				t.Errorf("%s: RowDecoder accepted forged input", c.name)
			}
		}
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Errorf("forged headers took %v, want <100ms", elapsed)
	}
}

func TestReadBinaryRejectsOverflowingRuns(t *testing.T) {
	cases := []struct {
		name string
		in   []byte
	}{
		// width 8, height 1, 1 run with a gap that would overflow int.
		{"huge gap", forgedBinaryHeader(8, 1, append([]byte{1}, binary.AppendUvarint(nil, 1<<62)...)...)},
		// width 8, height 1, 1 run with a length that would overflow int.
		{"huge length", forgedBinaryHeader(8, 1, append([]byte{1, 0}, binary.AppendUvarint(nil, 1<<62)...)...)},
		// width 8, height 1, run 2,0: zero-length run.
		{"zero length", forgedBinaryHeader(8, 1, 1, 2, 0)},
		// width 8, height 1, run at gap 6 length 4: past the right edge.
		{"past right edge", forgedBinaryHeader(8, 1, 1, 6, 4)},
	}
	for _, c := range cases {
		if _, err := ReadBinary(bytes.NewReader(c.in)); err == nil {
			t.Errorf("%s: ReadBinary accepted %v", c.name, c.in)
		}
	}
}

func TestReadTextForgedHeader(t *testing.T) {
	start := time.Now()
	cases := []string{
		"RLET 64 1073741824\n",         // over the cell budget
		"RLET 1073741824 2\n",          // budget again, wide
		"RLET 1 1073741824\n",          // inside budget but body is truncated
		"RLET 2000000000 2000000000\n", // over the per-side cap
	}
	for _, in := range cases {
		if _, err := ReadText(strings.NewReader(in)); err == nil {
			t.Errorf("ReadText accepted %q", in)
		}
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Errorf("forged headers took %v, want <100ms", elapsed)
	}
}

// TestReadTextMalformedTokens locks in exact run-token parsing: the
// old Sscanf-based parser accepted trailing garbage ("3,4junk" → run
// {3,4}), silently corrupting input.
func TestReadTextMalformedTokens(t *testing.T) {
	cases := []struct {
		name string
		tok  string
	}{
		{"trailing garbage", "3,4junk"},
		{"trailing comma", "3,4,"},
		{"three fields", "0,2,5"},
		{"missing length", "3,"},
		{"missing start", ",4"},
		{"no comma", "34"},
		{"hex", "0x3,4"},
		{"float", "3.0,4"},
		{"garbage before", "junk3,4"},
	}
	for _, c := range cases {
		in := "RLET 32 1\n" + c.tok + "\n"
		if _, err := ReadText(strings.NewReader(in)); err == nil {
			t.Errorf("%s: ReadText accepted token %q", c.name, c.tok)
		}
	}
	// The well-formed version of the garbage token still parses.
	img, err := ReadText(strings.NewReader("RLET 32 1\n3,4\n"))
	if err != nil {
		t.Fatal(err)
	}
	if !img.Rows[0].Equal(Row{{3, 4}}) {
		t.Errorf("row = %v, want [(3,4)]", img.Rows[0])
	}
}
