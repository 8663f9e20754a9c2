package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"sysrle"
	"sysrle/internal/imageio"
	"sysrle/internal/perf"
	"sysrle/internal/rle"
)

// TestDiffStreamMatchesDiffImage: for every registered engine, inline
// and ref diffs, rleb and pbm answers, and RLEB and PBM uploads, the
// body and every X-Sysrle-* header equal what sysrle.DiffImage's
// difference and stats give through imageio.Write.
func TestDiffStreamMatchesDiffImage(t *testing.T) {
	s := New()
	t.Cleanup(s.Close)
	pair, err := perf.GeneratePair("similar", 300, 70, 1603)
	if err != nil {
		t.Fatal(err)
	}
	a, b := pair.A, pair.B
	meta, err := s.Refs().Put(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range sysrle.EngineNames() {
		eng, err := sysrle.NewEngineByName(name)
		if err != nil {
			t.Fatal(err)
		}
		diff, stats, err := sysrle.DiffImage(a, b, sysrle.WithEngine(eng))
		if err != nil {
			t.Fatal(err)
		}
		wantHdr := map[string]string{
			"X-Sysrle-Engine":             eng.Name(),
			"X-Sysrle-Rows-Differing":     strconv.Itoa(stats.RowsDiffering),
			"X-Sysrle-Iterations-Total":   strconv.Itoa(stats.TotalIterations),
			"X-Sysrle-Iterations-Max-Row": strconv.Itoa(stats.MaxRowIterations),
			"X-Sysrle-Cells-Total":        strconv.Itoa(stats.TotalCells),
			"X-Sysrle-Cells-Max-Row":      strconv.Itoa(stats.MaxRowCells),
			"X-Sysrle-Diff-Pixels":        strconv.Itoa(diff.Area()),
		}
		for _, format := range []string{"rleb", "pbm"} {
			var want bytes.Buffer
			if err := imageio.Write(&want, format, diff); err != nil {
				t.Fatal(err)
			}
			for _, upload := range []string{"rleb", "pbm"} {
				for _, ref := range []bool{false, true} {
					where := fmt.Sprintf("engine %s, format %s, %s upload, ref %v", name, format, upload, ref)
					query := "/v1/diff?engine=" + name + "&format=" + format
					files := map[string]*rle.Image{"b": b}
					if ref {
						query += "&ref=" + meta.ID
					} else {
						files["a"] = a
					}
					body, ctype := multipartBody(t, upload, files)
					req := httptest.NewRequest(http.MethodPost, query, body)
					req.Header.Set("Content-Type", ctype)
					rec := httptest.NewRecorder()
					s.ServeHTTP(rec, req)
					if rec.Code != http.StatusOK {
						t.Fatalf("%s: status %d: %s", where, rec.Code, rec.Body)
					}
					if !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
						t.Errorf("%s: body differs from DiffImage + imageio.Write", where)
					}
					got := sysrleHeaders(rec.Header())
					if fmt.Sprint(got) != fmt.Sprint(wantHdr) {
						t.Errorf("%s: headers %v, want %v", where, got, wantHdr)
					}
				}
			}
		}
	}
}

// sysrleHeaders collects the X-Sysrle-* headers.
func sysrleHeaders(h http.Header) map[string]string {
	out := map[string]string{}
	for k := range h {
		if strings.HasPrefix(k, "X-Sysrle-") {
			out[k] = h.Get(k)
		}
	}
	return out
}
