package rle

import "fmt"

// Image is a run-length encoded binary image: one Row per scanline.
// The paper's systolic system processes "the corresponding rows of two
// images"; Image is the container that pairs rows up for that.
type Image struct {
	Width  int
	Height int
	Rows   []Row
}

// NewImage returns an all-background image of the given dimensions.
func NewImage(width, height int) *Image {
	if width < 0 || height < 0 {
		panic(fmt.Sprintf("rle: negative image dimensions %dx%d", width, height))
	}
	return &Image{Width: width, Height: height, Rows: make([]Row, height)}
}

// Reset makes img an all-background width×height image in place,
// keeping the capacity of its row slices so that an image reused as
// scratch allocates nothing once it has been as large before.
func (img *Image) Reset(width, height int) {
	img.Width, img.Height = width, height
	if c := cap(img.Rows); c < height {
		img.Rows = append(img.Rows[:c], make([]Row, height-c)...)
	}
	img.Rows = img.Rows[:height]
	for y := range img.Rows {
		img.Rows[y] = img.Rows[y][:0]
	}
}

// Validate checks dimensions and every row's invariants.
func (img *Image) Validate() error {
	if img.Width < 0 || img.Height < 0 {
		return fmt.Errorf("rle: negative dimensions %dx%d", img.Width, img.Height)
	}
	if len(img.Rows) != img.Height {
		return fmt.Errorf("rle: %d rows for height %d", len(img.Rows), img.Height)
	}
	for y, row := range img.Rows {
		if err := row.Validate(img.Width); err != nil {
			return fmt.Errorf("row %d: %w", y, err)
		}
	}
	return nil
}

// Row returns the y-th scanline; out-of-range y yields an empty row so
// neighbourhood operations near the borders need no special cases.
func (img *Image) Row(y int) Row {
	if y < 0 || y >= len(img.Rows) {
		return nil
	}
	return img.Rows[y]
}

// Size returns the image's dimensions.
func (img *Image) Size() (width, height int) { return img.Width, img.Height }

// ReadRow returns stored row y itself, not a copy in dst: an Image is
// a random-access row source. Unlike Row it panics on an out-of-range
// y, as a short Rows slice is a malformed image.
func (img *Image) ReadRow(y int, _ Row) (Row, error) { return img.Rows[y], nil }

// SetRow replaces scanline y. It panics on out-of-range y: unlike
// reads, writes outside the image are always a bug.
func (img *Image) SetRow(y int, row Row) {
	if y < 0 || y >= len(img.Rows) {
		panic(fmt.Sprintf("rle: SetRow(%d) outside height %d", y, img.Height))
	}
	img.Rows[y] = row
}

// Get reports pixel (x, y); out-of-range coordinates are background.
func (img *Image) Get(x, y int) bool { return img.Row(y).Get(x) }

// Area returns the total number of foreground pixels.
func (img *Image) Area() int {
	n := 0
	for _, row := range img.Rows {
		n += row.Area()
	}
	return n
}

// RunCount returns the total number of runs across all rows.
func (img *Image) RunCount() int {
	n := 0
	for _, row := range img.Rows {
		n += len(row)
	}
	return n
}

// Density returns the fraction of foreground pixels, in [0, 1].
func (img *Image) Density() float64 {
	if img.Width == 0 || img.Height == 0 {
		return 0
	}
	return float64(img.Area()) / float64(img.Width*img.Height)
}

// Clone returns a deep copy.
func (img *Image) Clone() *Image {
	out := NewImage(img.Width, img.Height)
	for y, row := range img.Rows {
		out.Rows[y] = row.Clone()
	}
	return out
}

// Equal reports whether two images represent the same pixels
// (encodings are compared canonically).
func (img *Image) Equal(other *Image) bool {
	if img.Width != other.Width || img.Height != other.Height {
		return false
	}
	for y := range img.Rows {
		if !img.Rows[y].EqualBits(other.Rows[y]) {
			return false
		}
	}
	return true
}

// Canonicalize compresses every row maximally, in place, and returns
// the image for chaining.
func (img *Image) Canonicalize() *Image {
	for y, row := range img.Rows {
		img.Rows[y] = row.Canonicalize()
	}
	return img
}

// XORImage returns the per-row image difference of two equally sized
// images using the compressed-domain sweep (the library primitive; the
// systolic engines in internal/core compute the same function with the
// paper's cell program).
func XORImage(a, b *Image) (*Image, error) {
	if a.Width != b.Width || a.Height != b.Height {
		return nil, fmt.Errorf("rle: size mismatch %dx%d vs %dx%d", a.Width, a.Height, b.Width, b.Height)
	}
	out := NewImage(a.Width, a.Height)
	for y := range a.Rows {
		out.Rows[y] = XOR(a.Rows[y], b.Rows[y])
	}
	return out, nil
}
