package apiclient

// The one reader of /v1 multipart uploads, shared by shard and
// coordinator. It walks the body once and appends every part into one
// pooled buffer, so each upload byte is copied once and a warm buffer
// does not grow; nothing is sized from a client-declared length.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sync"

	"sysrle"
	"sysrle/internal/imageio"
	"sysrle/internal/rle"
)

// maxPooledBuffer caps the buffers the pool keeps: a larger one, from
// an unusually large upload or answer, is left to the collector.
const maxPooledBuffer = 1 << 20

// maxUploadParts bounds the parts of one upload, as net/http's form
// parser does.
const maxUploadParts = 1000

var buffers = sync.Pool{New: func() any { return new([]byte) }}

// Buffer returns an empty byte slice from the pool uploads are read
// into, for an answer built in memory. Store the grown slice back
// through the pointer, and hand it to Recycle once it is written.
func Buffer() *[]byte { return buffers.Get().(*[]byte) }

// Recycle returns a Buffer to the pool; nothing may use it afterwards.
func Recycle(b *[]byte) {
	if cap(*b) <= maxPooledBuffer {
		*b = (*b)[:0]
		buffers.Put(b)
	}
}

// Upload is a multipart /v1 request body read in one pass: its file
// parts and plain form values, held in one pooled buffer. Close
// returns the buffer; nothing read from the Upload, a Rows decoder
// included, may be used after it.
type Upload struct {
	buf   *[]byte
	parts []uploadPart
}

// uploadPart is one part's bytes in buf; a part without a file name is
// a plain value, as net/http's form parser has it.
type uploadPart struct {
	field, filename string
	start, end      int
}

// ReadUpload reads r's multipart body under limit bytes (none when
// limit ≤ 0). UploadStatus maps its error to an HTTP status.
func ReadUpload(w http.ResponseWriter, r *http.Request, limit int64) (*Upload, error) {
	if limit > 0 {
		r.Body = http.MaxBytesReader(w, r.Body, limit)
	}
	u := &Upload{buf: Buffer()}
	if err := u.read(r); err != nil {
		u.Close()
		return nil, fmt.Errorf("parsing multipart form: %w", err)
	}
	return u, nil
}

func (u *Upload) read(r *http.Request) error {
	mr, err := r.MultipartReader()
	if err != nil {
		return err
	}
	buf := *u.buf
	defer func() { *u.buf = buf }()
	for {
		p, err := mr.NextPart()
		if err == io.EOF {
			return nil
		} else if err != nil {
			return err
		} else if len(u.parts) == maxUploadParts {
			return errors.New("multipart: message too large")
		}
		start := len(buf)
		for err == nil {
			if len(buf) == cap(buf) {
				buf = slices.Grow(buf, 4<<10)
			}
			var n int
			n, err = p.Read(buf[len(buf):cap(buf)])
			buf = buf[:len(buf)+n]
		}
		if err != io.EOF {
			return err
		}
		u.parts = append(u.parts, uploadPart{p.FormName(), p.FileName(), start, len(buf)})
	}
}

// UploadStatus is the HTTP status of a ReadUpload error: 413 beyond
// the limit, else 400.
func UploadStatus(err error) int {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// Close returns the Upload's buffer to the pool.
func (u *Upload) Close() {
	if u.buf != nil {
		Recycle(u.buf)
		u.buf = nil
	}
}

// part returns the first file part (file set) or plain value named
// field; like http.Request.FormFile, the first of duplicates wins.
func (u *Upload) part(field string, file bool) ([]byte, bool) {
	for _, p := range u.parts {
		if p.field == field && (p.filename != "") == file {
			return (*u.buf)[p.start:p.end], true
		}
	}
	return nil, false
}

// Value returns the first plain form value named field, or "".
func (u *Upload) Value(field string) string {
	v, _ := u.part(field, false)
	return string(v)
}

// File returns the bytes of the first file part named field.
func (u *Upload) File(field string) ([]byte, bool) { return u.part(field, true) }

// Image decodes the first file part named field, in any imageio
// format.
func (u *Upload) Image(field string) (*rle.Image, error) {
	src, err := u.source(field, false)
	img, _ := src.(*rle.Image)
	return img, err
}

// Rows is Image for a diff operand: an RLEB part is decoded one row at
// a time, straight from the upload's buffer, as the diff reads it.
func (u *Upload) Rows(field string) (sysrle.RowSource, error) { return u.source(field, true) }

func (u *Upload) source(field string, stream bool) (sysrle.RowSource, error) {
	data, ok := u.File(field)
	if !ok {
		return nil, fmt.Errorf("missing upload %q: %v", field, http.ErrMissingFile)
	}
	src, err := decode(data, stream)
	if err != nil {
		return nil, fmt.Errorf("upload %q: %v", field, err)
	}
	return src, nil
}

// Images decodes every file part named field, in upload order.
func (u *Upload) Images(field string) ([]*rle.Image, error) {
	var imgs []*rle.Image
	for _, p := range u.parts {
		if p.field == field && p.filename != "" {
			src, err := decode((*u.buf)[p.start:p.end], false)
			if err != nil {
				return nil, fmt.Errorf("%s %d (%s): %v", field, len(imgs), p.filename, err)
			}
			imgs = append(imgs, src.(*rle.Image))
		}
	}
	return imgs, nil
}

// decode decodes an image held in memory: RLEB without a further copy,
// as a row decoder when stream is set; any other format through
// imageio.Read.
func decode(data []byte, stream bool) (sysrle.RowSource, error) {
	switch {
	case !bytes.HasPrefix(data, []byte("RLEB")):
		return imageio.Read(bytes.NewReader(data))
	case stream:
		return rle.NewRowDecoder(data)
	}
	return rle.DecodeBinary(data)
}
