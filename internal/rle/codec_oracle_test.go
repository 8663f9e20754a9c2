package rle

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// The streaming bufio RLEB reader and writer that RowDecoder and
// AppendBinary replaced, kept as differential oracles: the new codec
// must accept exactly what the old reader accepted, decode it to the
// same image, and encode byte for byte as the old writer did.

func writeBinaryOracle(w io.Writer, img *Image) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(binaryMagic); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	if err := putUvarint(uint64(img.Width)); err != nil {
		return err
	}
	if err := putUvarint(uint64(img.Height)); err != nil {
		return err
	}
	for _, row := range img.Rows {
		if err := putUvarint(uint64(len(row))); err != nil {
			return err
		}
		pos := 0
		for _, r := range row {
			if err := putUvarint(uint64(r.Start - pos)); err != nil {
				return err
			}
			if err := putUvarint(uint64(r.Length)); err != nil {
				return err
			}
			pos = r.End() + 1
		}
	}
	return bw.Flush()
}

func readBinaryOracle(r io.Reader) (*Image, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(binaryMagic))
	if _, err := io.ReadFull(br, magic); err != nil || string(magic) != binaryMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrFormat)
	}
	width, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("rle: reading width: %w", err)
	}
	height, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("rle: reading height: %w", err)
	}
	if width > maxDim || height > maxDim {
		return nil, fmt.Errorf("%w: implausible dimensions %dx%d", ErrFormat, width, height)
	}
	if err := checkDimensions(int(width), int(height)); err != nil {
		return nil, err
	}
	img := &Image{Width: int(width), Height: int(height)}
	for y := 0; y < int(height); y++ {
		count, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("rle: row %d count: %w", y, err)
		}
		if count > width {
			return nil, fmt.Errorf("rle: row %d: %d runs exceed width %d", y, count, width)
		}
		row := make(Row, 0, min(count, 4096))
		pos := 0
		for i := uint64(0); i < count; i++ {
			gap, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, fmt.Errorf("rle: row %d run %d gap: %w", y, i, err)
			}
			length, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, fmt.Errorf("rle: row %d run %d length: %w", y, i, err)
			}
			if gap > uint64(img.Width) || length == 0 || length > uint64(img.Width) {
				return nil, fmt.Errorf("rle: row %d run %d: gap %d / length %d outside width %d", y, i, gap, length, img.Width)
			}
			start := pos + int(gap)
			if start+int(length) > img.Width {
				return nil, fmt.Errorf("rle: row %d run %d: extends to %d beyond width %d", y, i, start+int(length)-1, img.Width)
			}
			run := Run{Start: start, Length: int(length)}
			row = append(row, run)
			pos = run.End() + 1
		}
		img.Rows = append(img.Rows, row)
	}
	if err := img.Validate(); err != nil {
		return nil, err
	}
	return img, nil
}

// binaryCorpus is a set of valid RLEB streams: random images of
// assorted shapes, including empty and zero-sized ones.
func binaryCorpus(t testing.TB) [][]byte {
	rng := rand.New(rand.NewSource(1601))
	var out [][]byte
	for trial := 0; trial < 40; trial++ {
		img := randomImage(rng, rng.Intn(600), rng.Intn(40))
		var buf bytes.Buffer
		if err := writeBinaryOracle(&buf, img); err != nil {
			t.Fatal(err)
		}
		out = append(out, buf.Bytes())
	}
	return append(out, []byte("RLEB\x00\x00"), []byte("RLEB\x05\x03\x00\x00\x00"))
}

// FuzzRowDecoderRowsValid: every row a RowDecoder accepts passes
// Row.Validate(width), rows before a malformed one included. The
// engines take decoded rows through their unchecked entry
// (core.ValidSource), so this is the check they skip.
func FuzzRowDecoderRowsValid(f *testing.F) {
	for _, data := range binaryCorpus(f) {
		f.Add(data)
		if len(data) > 6 {
			corrupted := append([]byte{}, data...)
			corrupted[len(data)/2] ^= 0x81
			f.Add(corrupted)
		}
	}
	// Adjacent runs (gap 0) and a run ending on the last pixel.
	f.Add(AppendBinaryRow(AppendBinaryHeader(nil, 8, 1), Row{{Start: 0, Length: 4}, {Start: 4, Length: 4}}))
	for _, data := range boundaryStreams() {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := NewRowDecoder(data)
		if err != nil {
			return
		}
		var row Row
		for y := 0; y < d.Height; y++ {
			if row, err = d.ReadRow(y, row[:0]); err != nil {
				return
			}
			if err := row.Validate(d.Width); err != nil {
				t.Fatalf("row %d %v accepted for width %d: %v", y, row, d.Width, err)
			}
		}
	})
}

// FuzzDecodeBinary: on any input, DecodeBinary and the old reader
// agree on accept or reject; an accepted stream decodes to equal,
// valid images, and RowDecoder.Next yields the same rows one by one.
func FuzzDecodeBinary(f *testing.F) {
	for _, data := range binaryCorpus(f) {
		f.Add(data)
		if len(data) > 6 {
			corrupted := append([]byte{}, data...)
			corrupted[len(data)/2] ^= 0x81
			f.Add(corrupted)
			f.Add(data[:len(data)-1])
		}
	}
	f.Add([]byte("RLEB"))
	for _, data := range boundaryStreams() {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := readBinaryOracle(bytes.NewReader(data))
		got, err := DecodeBinary(data)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("DecodeBinary err = %v, old reader err = %v", err, wantErr)
		}
		if err != nil {
			return
		}
		if !got.Equal(want) {
			t.Fatal("DecodeBinary and the old reader decode different images")
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("decoded image invalid: %v", err)
		}
		d, err := NewRowDecoder(data)
		if err != nil {
			t.Fatal(err)
		}
		var scratch Row
		for y := 0; y < d.Height; y++ {
			if scratch, err = d.Next(scratch[:0]); err != nil {
				t.Fatalf("Next row %d: %v", y, err)
			}
			if !scratch.Equal(want.Rows[y]) {
				t.Fatalf("Next row %d = %v, want %v", y, scratch, want.Rows[y])
			}
		}
		if _, err := d.Next(nil); err == nil {
			t.Fatal("Next read past the last row")
		}
	})
}

// TestAppendBinaryMatchesOldWriter: AppendBinary, and WriteBinary on
// top of it, emit exactly the old writer's bytes.
func TestAppendBinaryMatchesOldWriter(t *testing.T) {
	rng := rand.New(rand.NewSource(1602))
	for trial := 0; trial < 60; trial++ {
		img := randomImage(rng, rng.Intn(2000), rng.Intn(30))
		var want, got bytes.Buffer
		if err := writeBinaryOracle(&want, img); err != nil {
			t.Fatal(err)
		}
		if err := WriteBinary(&got, img); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("trial %d: WriteBinary differs from the old writer", trial)
		}
		if app := AppendBinary([]byte("prefix"), img); !bytes.Equal(app[6:], want.Bytes()) {
			t.Fatalf("trial %d: AppendBinary differs from the old writer", trial)
		}
	}
}

// TestDecodeBinaryRowsAreIsolated: rows share one backing array, so
// appending to one must not clobber its neighbour.
func TestDecodeBinaryRowsAreIsolated(t *testing.T) {
	img, err := DecodeBinary(AppendBinary(nil, &Image{Width: 16, Height: 3, Rows: []Row{{{0, 2}}, nil, {{4, 1}}}}))
	if err != nil {
		t.Fatal(err)
	}
	if img.Rows[1] != nil {
		t.Errorf("empty row decoded as %#v, want nil", img.Rows[1])
	}
	_ = append(img.Rows[0], Run{8, 1})
	if !img.Rows[2].Equal(Row{{4, 1}}) {
		t.Errorf("appending to row 0 changed row 2 to %v", img.Rows[2])
	}
}

// TestRowDecoderSequential: a RowDecoder serves rows only in order,
// and a failure sticks.
func TestRowDecoderSequential(t *testing.T) {
	data := AppendBinary(nil, &Image{Width: 8, Height: 3, Rows: []Row{{{1, 2}}, nil, {{0, 8}}}})
	d, err := NewRowDecoder(data)
	if err != nil {
		t.Fatal(err)
	}
	if w, h := d.Size(); w != 8 || h != 3 {
		t.Fatalf("Size = %dx%d, want 8x3", w, h)
	}
	if row, err := d.ReadRow(0, nil); err != nil || !row.Equal(Row{{1, 2}}) {
		t.Fatalf("ReadRow(0) = %v, %v", row, err)
	}
	if _, err := d.ReadRow(2, nil); err == nil {
		t.Fatal("ReadRow skipped row 1")
	}
	if _, err := d.ReadRow(1, nil); err == nil {
		t.Fatal("error did not stick")
	}
}

// TestDecodeForgedHeaderAllocation: however large the dimensions a
// header claims, decoding allocates at most 8 bytes per input byte
// plus a constant.
//
// Each input is decoded once to warm up, then measured as the fewest
// bytes over five calls. A GC empties fmt's printer cache, and the
// error that refills it costs about 600 bytes that depend on when
// the GC ran, not on the header. An allocation sized from the header
// happens on every call, so the minimum still shows it.
func TestDecodeForgedHeaderAllocation(t *testing.T) {
	for _, in := range [][]byte{
		forgedBinaryHeader(64, 1<<30),
		forgedBinaryHeader(1, 1<<30),
		forgedBinaryHeader(1<<20, 2, 0xff, 0xff, 0x3f),
		forgedBinaryHeader(1<<20, 3, 0, 0),
	} {
		if _, err := DecodeBinary(in); err == nil {
			t.Fatalf("%x: accepted", in)
		}
		n := uint64(math.MaxUint64)
		for range 5 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			DecodeBinary(in)
			runtime.ReadMemStats(&after)
			n = min(n, after.TotalAlloc-before.TotalAlloc)
		}
		if n > 8*uint64(len(in))+1024 {
			t.Errorf("%x: decoding allocated %d bytes for %d input bytes", in, n, len(in))
		}
	}
}

// BenchmarkBinaryCodec compares the codec with the old bufio reader
// and writer on a dense 1024² image.
func BenchmarkBinaryCodec(b *testing.B) {
	img := randomImage(rand.New(rand.NewSource(1605)), 1024, 1024)
	data := AppendBinary(nil, img)
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := DecodeBinary(data); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode-old", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := readBinaryOracle(bytes.NewReader(data)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := WriteBinary(io.Discard, img); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encode-old", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := writeBinaryOracle(io.Discard, img); err != nil {
				b.Fatal(err)
			}
		}
	})
}
