package rle

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
)

// Serialization of RLE images.
//
// Two formats are provided:
//
//   - A line-oriented text format ("RLET"), human-inspectable and handy
//     in tests and examples:
//
//     RLET <width> <height>
//     <start>,<length> <start>,<length> ...   (one line per row; blank
//                                              line = empty row)
//
//   - A compact binary format ("RLEB"): magic, uvarint width and
//     height, then per row a uvarint run count followed by
//     delta-encoded uvarint gaps and lengths. Delta encoding keeps
//     typical PCB-style imagery at a few bits per run.
//
// RLEB has one decoder, RowDecoder, over an in-memory stream: it
// yields one row at a time, so a consumer such as the /v1/diff handler
// never builds the image. DecodeBinary drains it into an Image, and
// ReadBinary reads its io.Reader to EOF first. Its per-run bounds
// checks imply every Row.Validate invariant, so no decoded image is
// validated a second time. The encoders append: AppendBinaryHeader and
// AppendBinaryRow stream an image row by row, AppendBinary and
// WriteBinary encode a whole one.

const (
	textMagic   = "RLET"
	binaryMagic = "RLEB"
)

// ErrFormat is returned when decoding input that is not a recognized
// RLE stream.
var ErrFormat = errors.New("rle: unrecognized format")

// Decode budgets. Headers are attacker-controlled (the HTTP service
// feeds uploads straight into these decoders), so a header alone must
// never cause a large allocation: each side is capped, and the total
// cell budget charges one slot per row on top of width×height so a
// degenerate zero-width image cannot smuggle an enormous row count.
const (
	maxDim         = 1 << 30 // per-side dimension cap
	maxDecodeCells = 1 << 31 // (width+1)*height budget
)

func checkDimensions(width, height int) error {
	if width < 0 || height < 0 || width > maxDim || height > maxDim {
		return fmt.Errorf("%w: implausible dimensions %dx%d", ErrFormat, width, height)
	}
	if (uint64(width)+1)*uint64(height) > maxDecodeCells {
		return fmt.Errorf("%w: dimensions %dx%d exceed decode budget", ErrFormat, width, height)
	}
	return nil
}

// WriteText serializes the image in the text format.
func WriteText(w io.Writer, img *Image) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%s %d %d\n", textMagic, img.Width, img.Height); err != nil {
		return err
	}
	for _, row := range img.Rows {
		for i, r := range row {
			if i > 0 {
				if err := bw.WriteByte(' '); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(bw, "%d,%d", r.Start, r.Length); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadText parses the text format and validates the result.
func ReadText(r io.Reader) (*Image, error) {
	br := bufio.NewReader(r)
	header, err := br.ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("%w: missing header", ErrFormat)
	}
	fields := strings.Fields(header)
	if len(fields) != 3 || fields[0] != textMagic {
		return nil, fmt.Errorf("%w: bad header %q", ErrFormat, strings.TrimSpace(header))
	}
	width, err1 := strconv.Atoi(fields[1])
	height, err2 := strconv.Atoi(fields[2])
	if err1 != nil || err2 != nil || width < 0 || height < 0 {
		return nil, fmt.Errorf("%w: bad dimensions %q %q", ErrFormat, fields[1], fields[2])
	}
	if err := checkDimensions(width, height); err != nil {
		return nil, err
	}
	// Rows grow as lines are actually read, so a forged height costs
	// nothing before the body backs it up.
	img := &Image{Width: width, Height: height}
	for y := 0; y < height; y++ {
		line, err := br.ReadString('\n')
		if err != nil && !(err == io.EOF && y == height-1) {
			return nil, fmt.Errorf("rle: short input at row %d: %w", y, err)
		}
		line = strings.TrimSpace(line)
		if line == "" {
			img.Rows = append(img.Rows, nil)
			continue
		}
		var row Row
		for _, tok := range strings.Fields(line) {
			start, length, err := parseRunToken(tok)
			if err != nil {
				return nil, fmt.Errorf("rle: row %d: bad run %q", y, tok)
			}
			row = append(row, Run{Start: start, Length: length})
		}
		img.Rows = append(img.Rows, row)
	}
	if err := img.Validate(); err != nil {
		return nil, err
	}
	return img, nil
}

// parseRunToken parses a "<start>,<length>" token exactly: both halves
// must be full decimal integers with nothing left over. (Sscanf-style
// parsing accepted trailing garbage, turning "3,4junk" into run {3,4}.)
func parseRunToken(tok string) (start, length int, err error) {
	startStr, lenStr, ok := strings.Cut(tok, ",")
	if !ok {
		return 0, 0, fmt.Errorf("rle: run %q: missing comma", tok)
	}
	start, err = strconv.Atoi(startStr)
	if err != nil {
		return 0, 0, err
	}
	length, err = strconv.Atoi(lenStr)
	if err != nil {
		return 0, 0, err
	}
	return start, length, nil
}

// AppendBinaryHeader appends the RLEB header of a width×height image
// to dst: the magic and the two dimensions.
func AppendBinaryHeader(dst []byte, width, height int) []byte {
	dst = append(dst, binaryMagic...)
	dst = binary.AppendUvarint(dst, uint64(width))
	return binary.AppendUvarint(dst, uint64(height))
}

// AppendBinaryRow appends one row's RLEB encoding to dst: the run
// count, then each run's gap from the previous run's end and its
// length. A stream is AppendBinaryHeader followed by every row in
// order. A run whose gap and length are both one-byte uvarints is
// written as two plain bytes.
func AppendBinaryRow(dst []byte, row Row) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(row)))
	pos := 0
	for _, r := range row {
		gap, length := uint64(r.Start-pos), uint64(r.Length)
		if gap|length < 0x80 {
			dst = append(dst, byte(gap), byte(length))
		} else {
			dst = binary.AppendUvarint(binary.AppendUvarint(dst, gap), length)
		}
		pos = r.Start + r.Length
	}
	return dst
}

// AppendBinary appends the image's RLEB encoding to dst.
func AppendBinary(dst []byte, img *Image) []byte {
	dst = AppendBinaryHeader(dst, img.Width, img.Height)
	for _, row := range img.Rows {
		dst = AppendBinaryRow(dst, row)
	}
	return dst
}

// WriteBinary serializes the image in the binary format.
func WriteBinary(w io.Writer, img *Image) error {
	_, err := w.Write(AppendBinary(nil, img))
	return err
}

// RowDecoder decodes an in-memory RLEB stream one row at a time, so a
// consumer can work on row y before row y+1 is decoded. It is the one
// RLEB decoder: DecodeBinary and ReadBinary drain it into an Image.
//
// Every run is bounds-checked as it is read: the row's run count, the
// gap and the length are each at most the width, the length is
// positive, and the run ends inside the row. Each run starts one past
// the previous run's end plus its gap, so these checks already imply
// every Row.Validate invariant, and decoded images are not validated
// again. Bytes after the last row are ignored.
type RowDecoder struct {
	Width, Height int
	data          []byte
	off, y        int
	err           error
}

// errVarint reports a uvarint cut short by the end of the stream or
// longer than 64 bits.
var errVarint = errors.New("truncated or overlong uvarint")

// NewRowDecoder checks the stream's magic and header. A header whose
// height the remaining bytes cannot back (every row takes at least its
// one-byte run count) is rejected before anything is sized by it.
func NewRowDecoder(data []byte) (*RowDecoder, error) {
	if len(data) < len(binaryMagic) || string(data[:len(binaryMagic)]) != binaryMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrFormat)
	}
	width, off, err := uvarintAt(data, len(binaryMagic))
	if err != nil {
		return nil, fmt.Errorf("rle: reading width: %w", err)
	}
	height, off, err := uvarintAt(data, off)
	if err != nil {
		return nil, fmt.Errorf("rle: reading height: %w", err)
	}
	// Values past maxDim, including those int() wraps negative, fail
	// checkDimensions.
	if err := checkDimensions(int(width), int(height)); err != nil {
		return nil, err
	}
	if rest := len(data) - off; height > uint64(rest) {
		return nil, fmt.Errorf("rle: %d rows in %d bytes: %w", height, rest, io.ErrUnexpectedEOF)
	}
	return &RowDecoder{Width: int(width), Height: int(height), data: data, off: off}, nil
}

// uvarintAt reads the uvarint at data[off:] and returns it with the
// offset just past it.
func uvarintAt(data []byte, off int) (uint64, int, error) {
	if off < len(data) && data[off] < 0x80 {
		return uint64(data[off]), off + 1, nil
	}
	v, n := binary.Uvarint(data[off:])
	if n <= 0 {
		return 0, off, errVarint
	}
	return v, off + n, nil
}

// Next appends the next row's runs to dst; on an error it appends
// nothing. An error is sticky: every later call returns it again.
func (d *RowDecoder) Next(dst Row) (Row, error) {
	if d.err == nil {
		dst, d.err = d.next(dst)
	}
	return dst, d.err
}

// next decodes one row with the stream and its offset in locals. Under
// the §5 input model nearly every gap and length is below 0x80, so a
// run whose two uvarints are both one byte is read in one step; any
// other run reads each with binary.Uvarint. dst grows once by the run
// count, but only when the remaining bytes can back it (every run
// takes at least two): a forged count sizes nothing, and its row fails
// before it would have filled that room. The loop calls nothing but
// its error exits, so its state stays in registers.
func (d *RowDecoder) next(dst Row) (Row, error) {
	y, width := d.y, uint64(d.Width)
	if y >= d.Height {
		return dst, fmt.Errorf("rle: row %d past height %d", y, d.Height)
	}
	data := d.data
	count, off, err := uvarintAt(data, d.off)
	if err != nil {
		return dst, fmt.Errorf("rle: row %d count: %w", y, err)
	}
	if count > width {
		return dst, fmt.Errorf("rle: row %d: %d runs exceed width %d", y, count, width)
	}
	var runs Row // room for the row's runs, empty if the bytes cannot back count
	if count <= uint64(len(data)-off)/2 {
		dst = slices.Grow(dst, int(count))
		runs = dst[len(dst) : len(dst)+int(count)]
	}
	pos := 0
	for i := range int(count) {
		var gap, length uint64
		if off+1 < len(data) && data[off]|data[off+1] < 0x80 {
			gap, length = uint64(data[off]), uint64(data[off+1])
			off += 2
		} else {
			var n int
			if gap, n = binary.Uvarint(data[off:]); n <= 0 {
				return dst, fmt.Errorf("rle: row %d run %d gap: %w", y, i, errVarint)
			}
			off += n
			if length, n = binary.Uvarint(data[off:]); n <= 0 {
				return dst, fmt.Errorf("rle: row %d run %d length: %w", y, i, errVarint)
			}
			off += n
		}
		// Reject runs that could not fit in the row before doing any
		// int arithmetic on them: huge uvarints would overflow.
		if gap > width || length == 0 || length > width {
			return dst, fmt.Errorf("rle: row %d run %d: gap %d / length %d outside width %d", y, i, gap, length, width)
		}
		start := pos + int(gap)
		if pos = start + int(length); pos > d.Width {
			return dst, fmt.Errorf("rle: row %d run %d: extends to %d beyond width %d", y, i, pos-1, width)
		}
		if i < len(runs) {
			runs[i] = Run{Start: start, Length: int(length)}
		}
	}
	d.off, d.y = off, y+1
	return dst[:len(dst)+len(runs)], nil
}

// Size returns the image's dimensions.
func (d *RowDecoder) Size() (width, height int) { return d.Width, d.Height }

// RowsValid marks the decoder as a source of valid rows
// (core.ValidSource): every row it serves passed the per-run checks
// above, which imply Row.Validate(Width).
func (d *RowDecoder) RowsValid() {}

// ReadRow serves row y, which must be the next row, appended to dst:
// a RowDecoder is a sequential row source.
func (d *RowDecoder) ReadRow(y int, dst Row) (Row, error) {
	if y != d.y && d.err == nil {
		d.err = fmt.Errorf("rle: row %d requested, next is %d", y, d.y)
	}
	return d.Next(dst)
}

// Finish decodes the rows not yet read, discarding them, and returns
// nil when the whole stream is well formed, otherwise the first
// malformed row's error.
func (d *RowDecoder) Finish() error {
	var row Row
	for d.err == nil && d.y < d.Height {
		row, _ = d.Next(row[:0])
	}
	return d.err
}

// DecodeBinary decodes a whole RLEB stream. All runs share one backing
// array, sized from the stream length since every run takes at least
// two bytes, and each row is capacity-clipped so appending to one row
// cannot clobber the next. An empty row decodes as nil.
func DecodeBinary(data []byte) (*Image, error) {
	d, err := NewRowDecoder(data)
	if err != nil {
		return nil, err
	}
	img := &Image{Width: d.Width, Height: d.Height, Rows: make([]Row, d.Height)}
	runs := make(Row, 0, (len(data)-d.off)/2)
	for y := range img.Rows {
		start := len(runs)
		if runs, err = d.Next(runs); err != nil {
			return nil, err
		}
		if end := len(runs); end > start {
			img.Rows[y] = runs[start:end:end]
		}
	}
	return img, nil
}

// ReadBinary reads r to EOF and decodes it with DecodeBinary. Unlike a
// streaming reader it consumes any bytes after the last row too.
func ReadBinary(r io.Reader) (*Image, error) {
	// bytes.Buffer grows by doubling: about half the copying and
	// allocation of io.ReadAll on a large stream.
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, err
	}
	return DecodeBinary(buf.Bytes())
}
