package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"sysrle"
	"sysrle/internal/apiclient"
	"sysrle/internal/core"
	"sysrle/internal/imageio"
	"sysrle/internal/jobs"
	"sysrle/internal/perf"
	"sysrle/internal/planner"
	"sysrle/internal/rle"
)

// post sends a multipart request and returns the 200 response's
// headers and body.
func post(t *testing.T, url string, files map[string]*rle.Image) (http.Header, []byte) {
	t.Helper()
	body, ctype := multipartBody(t, "rleb", files)
	resp, err := http.Post(url, ctype, body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: status %d: %s", url, resp.StatusCode, raw)
	}
	return resp.Header, raw
}

func rleb(t *testing.T, img *rle.Image) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := imageio.Write(&buf, "rleb", img); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDefaultEngineMatchesLockstep pins the serving default to the
// paper's engine on every surface that serves it: DiffImage with no
// options, /v1/diff, /v1/inspect and a job, on the similar, random and
// worst-case alternating regimes. The answers must be byte-identical;
// only the engine name and its work counts may differ.
func TestDefaultEngineMatchesLockstep(t *testing.T) {
	srv, _ := newRegistryServer(t, Config{JobWorkers: 2})
	for _, wl := range []string{"similar", "random", "worst"} {
		pair, err := perf.GeneratePair(wl, 320, 48, 41)
		if err != nil {
			t.Fatal(err)
		}
		a, b := pair.A, pair.B

		def, _, err := sysrle.DiffImage(a, b)
		if err != nil {
			t.Fatal(err)
		}
		lock, _, err := sysrle.DiffImage(a, b, sysrle.WithEngine(sysrle.NewLockstep()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rleb(t, def), rleb(t, lock)) {
			t.Errorf("%s: DiffImage default differs from lockstep", wl)
		}

		files := map[string]*rle.Image{"a": a, "b": b}
		hdr, gotDiff := post(t, srv.URL+"/v1/diff?format=rleb", files)
		_, wantDiff := post(t, srv.URL+"/v1/diff?format=rleb&engine=lockstep", files)
		if !bytes.Equal(gotDiff, wantDiff) {
			t.Errorf("%s: /v1/diff default differs from engine=lockstep", wl)
		}
		if got := hdr.Get("X-Sysrle-Engine"); got != "planner" {
			t.Errorf("%s: default engine header %q, want planner", wl, got)
		}

		files = map[string]*rle.Image{"ref": a, "scan": b}
		_, gotIns := post(t, srv.URL+"/v1/inspect", files)
		_, wantIns := post(t, srv.URL+"/v1/inspect?engine=lockstep", files)
		if !bytes.Equal(withoutEngineWork(t, gotIns), withoutEngineWork(t, wantIns)) {
			t.Errorf("%s: /v1/inspect default differs from engine=lockstep:\n%s\n%s", wl, gotIns, wantIns)
		}

		gotJob := runJob(t, srv.URL, "", a, b)
		wantJob := runJob(t, srv.URL, "lockstep", a, b)
		if gotJob.Engine != "planner" || wantJob.Engine != "lockstep" {
			t.Errorf("%s: job engines %q and %q", wl, gotJob.Engine, wantJob.Engine)
		}
		gotJob.Results[0].Iterations, wantJob.Results[0].Iterations = 0, 0
		if gotJob.Results[0] != wantJob.Results[0] {
			t.Errorf("%s: job result %+v, lockstep %+v", wl, gotJob.Results[0], wantJob.Results[0])
		}
	}
}

// withoutEngineWork re-encodes an inspect report with the fields that
// name the engine or count its work cleared.
func withoutEngineWork(t *testing.T, raw []byte) []byte {
	t.Helper()
	var rep apiclient.InspectReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	rep.Engine, rep.TotalIterations, rep.MaxRowIterations = "", 0, 0
	out, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// runJob runs one scan against an inline reference as a job and
// returns its final status.
func runJob(t *testing.T, url, engine string, ref, scan *rle.Image) jobs.Status {
	t.Helper()
	form, ctype := jobForm(t, []*rle.Image{scan}, map[string]*rle.Image{"ref": ref})
	resp, err := http.Post(url+"/v1/jobs?engine="+engine, ctype, form)
	if err != nil {
		t.Fatal(err)
	}
	var accepted jobs.Status
	decodeJSON(t, resp, &accepted)
	st := pollJob(t, url, accepted.ID)
	if st.State != jobs.StateDone || len(st.Results) != 1 {
		t.Fatalf("job %s: state %s (%s), %d results", accepted.ID, st.State, st.Error, len(st.Results))
	}
	return st
}

// TestDiffStatHeadersPerEngine pins what the X-Sysrle-Iterations-* and
// X-Sysrle-Cells-* headers count. For the default planner an iteration
// is a merge step on a row routed to the RLE merge and a 64-pixel word
// on a row routed to the packed XOR, and cells are 0; engine=lockstep
// still reports the paper's systolic iterations and array sizes.
func TestDiffStatHeadersPerEngine(t *testing.T) {
	srv, _ := newRegistryServer(t, Config{})
	// Alternating sparse and dense row blocks exercise both routes.
	pair, err := perf.GeneratePair("sweep-cross", 640, 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	a, b := pair.A, pair.B
	files := map[string]*rle.Image{"a": a, "b": b}

	p := planner.New()
	total, maxRow := 0, 0
	for y := range a.Rows {
		packedBefore := p.RowsPacked()
		res, err := p.XORRow(a.Rows[y], b.Rows[y])
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		if p.RowsPacked() > packedBefore {
			want = (max(rowEnd(a.Rows[y]), rowEnd(b.Rows[y])) + 63) / 64
		} else {
			_, want = core.SequentialXOR(a.Rows[y], b.Rows[y])
		}
		if res.Iterations != want {
			t.Fatalf("row %d: planner iterations %d, want %d", y, res.Iterations, want)
		}
		total += want
		maxRow = max(maxRow, want)
	}
	if p.RowsPacked() == 0 || p.RowsRLE() == 0 {
		t.Fatalf("workload routed %d rows packed, %d to the merge; want both", p.RowsPacked(), p.RowsRLE())
	}
	hdr, _ := post(t, srv.URL+"/v1/diff?format=rleb", files)
	wantHeaders(t, hdr, "planner", total, maxRow, 0, 0)

	_, lock, err := sysrle.DiffImage(a, b, sysrle.WithEngine(sysrle.NewLockstep()))
	if err != nil {
		t.Fatal(err)
	}
	if lock.TotalCells == 0 {
		t.Fatal("lockstep reported no cells")
	}
	hdr, _ = post(t, srv.URL+"/v1/diff?format=rleb&engine=lockstep", files)
	wantHeaders(t, hdr, "systolic-lockstep", lock.TotalIterations, lock.MaxRowIterations, lock.TotalCells, lock.MaxRowCells)
}

// rowEnd is one past a row's rightmost pixel (0 for an empty row).
func rowEnd(r rle.Row) int {
	if len(r) == 0 {
		return 0
	}
	return r[len(r)-1].End() + 1
}

func wantHeaders(t *testing.T, hdr http.Header, engine string, iters, maxIters, cells, maxCells int) {
	t.Helper()
	for name, want := range map[string]string{
		"X-Sysrle-Engine":             engine,
		"X-Sysrle-Iterations-Total":   strconv.Itoa(iters),
		"X-Sysrle-Iterations-Max-Row": strconv.Itoa(maxIters),
		"X-Sysrle-Cells-Total":        strconv.Itoa(cells),
		"X-Sysrle-Cells-Max-Row":      strconv.Itoa(maxCells),
	} {
		if got := hdr.Get(name); got != want {
			t.Errorf("%s engine: %s = %q, want %q", engine, name, got, want)
		}
	}
}

// TestServedLockstepCellCap: a row pair needing more than
// sysrle.MaxServedCells cells is refused before the engine runs on
// every surface that serves engine=lockstep: 422 on /v1/diff and
// /v1/inspect, a failed scan in a job.
func TestServedLockstepCellCap(t *testing.T) {
	srv, _ := newRegistryServer(t, Config{})
	// One 4096-wide row pair of alternating pixels needs 4097 cells.
	wide, err := perf.GeneratePair("worst", 4096, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for path, files := range map[string]map[string]*rle.Image{
		"/v1/diff?engine=lockstep":    {"a": wide.A, "b": wide.B},
		"/v1/inspect?engine=lockstep": {"ref": wide.A, "scan": wide.B},
	} {
		body, ctype := multipartBody(t, "rleb", files)
		resp, err := http.Post(srv.URL+path, ctype, body)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(string(raw), "need 4097 cells, have 1024") {
			t.Errorf("%s: status %d %s, want 422 naming the cells", path, resp.StatusCode, raw)
		}
	}
	form, ctype := jobForm(t, []*rle.Image{wide.B}, map[string]*rle.Image{"ref": wide.A})
	resp, err := http.Post(srv.URL+"/v1/jobs?engine=lockstep", ctype, form)
	if err != nil {
		t.Fatal(err)
	}
	var accepted jobs.Status
	decodeJSON(t, resp, &accepted)
	st := pollJob(t, srv.URL, accepted.ID)
	if st.State != jobs.StateFailed || !strings.Contains(st.Results[0].Error, "exceeds array capacity") {
		t.Errorf("job: state %s, results %+v; want a failed scan naming the capacity", st.State, st.Results)
	}
}

// TestCanceledRequestRunsNoRows: a request whose context is already
// canceled (the client left, or the timeout middleware answered)
// stops before its rows, and /v1/inspect answers as /v1/diff does.
func TestCanceledRequestRunsNoRows(t *testing.T) {
	s := NewWith(Config{RequestTimeout: -1})
	t.Cleanup(s.Close)
	ref, scan, _ := testBoards(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for path, files := range map[string]map[string]*rle.Image{
		"/v1/diff":    {"a": ref, "b": scan},
		"/v1/inspect": {"ref": ref, "scan": scan},
	} {
		body, ctype := multipartBody(t, "rleb", files)
		req := httptest.NewRequest(http.MethodPost, path, body).WithContext(ctx)
		req.Header.Set("Content-Type", ctype)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusUnprocessableEntity || !strings.Contains(rec.Body.String(), "context canceled") {
			t.Errorf("%s: status %d %s, want 422 context canceled", path, rec.Code, rec.Body)
		}
	}
}
