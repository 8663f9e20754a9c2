package apiclient

import (
	"bytes"
	"fmt"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"sysrle/internal/rle"
)

// form builds a multipart body: each entry is field=filename:data for
// a file part, or field=data for a plain value.
func form(t *testing.T, parts ...string) (*bytes.Buffer, string) {
	t.Helper()
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	for _, p := range parts {
		field, rest, _ := strings.Cut(p, "=")
		name, data, isFile := strings.Cut(rest, ":")
		var err error
		if isFile {
			w, werr := mw.CreateFormFile(field, name)
			if err = werr; err == nil {
				_, err = w.Write([]byte(data))
			}
		} else {
			err = mw.WriteField(field, rest)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	mw.Close()
	return &buf, mw.FormDataContentType()
}

func readUpload(t *testing.T, body *bytes.Buffer, ctype string, limit int64) (*Upload, error) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/diff", body)
	req.Header.Set("Content-Type", ctype)
	return ReadUpload(httptest.NewRecorder(), req, limit)
}

func TestReadUploadParts(t *testing.T) {
	body, ctype := form(t, "ref=abc", "ref=def", "b=first.bin:one", "scan=s0.bin:zero", "b=second.bin:two", "scan=s1.bin:", "scan=s2.bin:two")
	up, err := readUpload(t, body, ctype, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer up.Close()
	if v := up.Value("ref"); v != "abc" {
		t.Errorf("Value(ref) = %q, want the first, abc", v)
	}
	if v := up.Value("b"); v != "" {
		t.Errorf("Value(b) = %q: a file part is not a value", v)
	}
	if data, ok := up.File("b"); !ok || string(data) != "one" {
		t.Errorf("File(b) = %q, %v; want the first part, one", data, ok)
	}
	if data, ok := up.File("ref"); ok {
		t.Errorf("File(ref) = %q: a plain value is not a file", data)
	}
	// Images names the failing part by index and file name.
	if _, err := up.Images("scan"); err == nil || !strings.HasPrefix(err.Error(), "scan 0 (s0.bin): ") {
		t.Errorf("Images(scan) error %v, want one naming scan 0 (s0.bin)", err)
	}
	if _, err := up.Image("a"); err == nil || !strings.Contains(err.Error(), `missing upload "a"`) {
		t.Errorf("Image(a) error %v, want a missing upload", err)
	}
}

func TestReadUploadErrors(t *testing.T) {
	big, bigType := form(t, "b=b.bin:"+strings.Repeat("x", 5000))
	malformed, malformedType := form(t, "b=b.bin:data")
	malformed.Truncate(malformed.Len() - 10)
	var many []string
	for i := 0; i <= maxUploadParts; i++ {
		many = append(many, fmt.Sprintf("v%d=x", i))
	}
	tooMany, tooManyType := form(t, many...)
	cases := []struct {
		name   string
		body   *bytes.Buffer
		ctype  string
		status int
		limit  int64
	}{
		{"over the limit", big, bigType, http.StatusRequestEntityTooLarge, 4096},
		{"not multipart", bytes.NewBufferString("hi"), "text/plain", http.StatusBadRequest, 4096},
		{"no boundary", bytes.NewBufferString("hi"), "multipart/form-data", http.StatusBadRequest, 4096},
		{"truncated", malformed, malformedType, http.StatusBadRequest, 4096},
		{"too many parts", tooMany, tooManyType, http.StatusBadRequest, 0},
	}
	for _, c := range cases {
		up, err := readUpload(t, c.body, c.ctype, c.limit)
		if err == nil {
			up.Close()
			t.Errorf("%s: read without error", c.name)
			continue
		}
		if got := UploadStatus(err); got != c.status || !strings.HasPrefix(err.Error(), "parsing multipart form: ") {
			t.Errorf("%s: %v → status %d, want %d", c.name, err, got, c.status)
		}
	}
}

func TestUploadRowsStreamsRLEB(t *testing.T) {
	img := rle.NewImage(8, 2)
	img.Rows[1] = rle.Row{rle.Span(2, 5)}
	enc := rle.AppendBinary(nil, img)
	body, ctype := form(t, "b=b.rleb:"+string(enc), "a=a.pbm:P1\n8 2\n0 0 0 0 0 0 0 0\n0 0 1 1 1 1 0 0\n")
	up, err := readUpload(t, body, ctype, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer up.Close()
	b, err := up.Rows("b")
	if _, streamed := b.(*rle.RowDecoder); err != nil || !streamed {
		t.Fatalf("Rows(b) = %T, %v; want a row decoder", b, err)
	}
	a, err := up.Rows("a")
	if got, ok := a.(*rle.Image); err != nil || !ok || !got.Equal(img) {
		t.Fatalf("Rows(a) = %v, %v; want the PBM decoded to %v", a, err, img)
	}
}

// TestBufferPoolKeepsSmallBuffers: a buffer over maxPooledBuffer is
// not kept, so one large upload does not pin its memory in the pool.
func TestBufferPoolKeepsSmallBuffers(t *testing.T) {
	big := Buffer()
	*big = make([]byte, 0, maxPooledBuffer+1)
	Recycle(big)
	for i := 0; i < 4; i++ {
		if b := Buffer(); cap(*b) > maxPooledBuffer {
			t.Fatalf("pool handed out a %d-byte buffer", cap(*b))
		}
	}
}
