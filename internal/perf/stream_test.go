package perf

import (
	"bytes"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"sysrle/internal/imageio"
	"sysrle/internal/server"
)

// TestDiffHandlerStreamAllocs gates the streamed /v1/diff path: a
// ref-routed format=rleb diff of a 1024² similar scan decodes the scan
// one row at a time and encodes the difference as it goes, so neither
// is built as an rle.Image. With the whole-image path the request cost
// ~1,240 allocations and ~890 KB (go1.24, amd64); streamed it costs
// ~220 and ~310 KB, most of that the multipart parse and the copy of
// the upload. Decoding the scan into an image would add ~440 KB (30k
// runs and 1024 row headers) and building the 5k-run difference image
// ~100 KB, so either breaks the byte bound.
func TestDiffHandlerStreamAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are nondeterministic under -race (sync.Pool drops)")
	}
	const maxAllocs, maxBytes = 300, 360 << 10
	pair, err := GeneratePair("similar", 1024, 1024, 1604)
	if err != nil {
		t.Fatal(err)
	}
	s := server.New()
	defer s.Close()
	meta, err := s.Refs().Put(pair.A)
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	mw := multipart.NewWriter(&body)
	fw, err := mw.CreateFormFile("b", "b.rleb")
	if err != nil {
		t.Fatal(err)
	}
	if err := imageio.Write(fw, "rleb", pair.B); err != nil {
		t.Fatal(err)
	}
	mw.Close()
	diff := func() {
		req := httptest.NewRequest(http.MethodPost, "/v1/diff?format=rleb&ref="+meta.ID, bytes.NewReader(body.Bytes()))
		req.Header.Set("Content-Type", mw.FormDataContentType())
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	allocs := testing.AllocsPerRun(10, diff)
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		diff()
	}
	runtime.ReadMemStats(&after)
	bytesPer := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("ref-routed rleb diff, 1024² similar scan (%d B upload): %.0f allocs, %d B per request",
		body.Len(), allocs, bytesPer)
	if allocs > maxAllocs {
		t.Errorf("%.0f allocs per request, want ≤ %d", allocs, maxAllocs)
	}
	if bytesPer > maxBytes {
		t.Errorf("%d B allocated per request, want ≤ %d", bytesPer, maxBytes)
	}
}
