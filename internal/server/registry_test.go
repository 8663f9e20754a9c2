package server

// Tests for the reference-registry and batch-job endpoints: the
// content-addressed upload flow, the ref=<id> hot path (including the
// acceptance criterion that M diffs against a registered reference
// decode it exactly once and produce byte-identical output), and the
// end-to-end async lifecycle.

import (
	"bytes"
	"encoding/json"
	"io"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sysrle/internal/apiclient"
	"sysrle/internal/imageio"
	"sysrle/internal/jobs"
	"sysrle/internal/rle"
	"sysrle/internal/telemetry"
)

// newTestServer builds a server whose job pool is torn down with the
// test, returning it alongside its telemetry registry.
func newRegistryServer(t *testing.T, cfg Config) (*httptest.Server, *telemetry.Registry) {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = telemetry.NewRegistry()
	}
	s := NewWith(cfg)
	t.Cleanup(s.Close)
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)
	return srv, cfg.Registry
}

func decodeJSON(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
}

// postRef registers an image and returns its id.
func postRef(t *testing.T, url string, img *rle.Image) string {
	t.Helper()
	body, ctype := multipartBody(t, "rleb", map[string]*rle.Image{"image": img})
	resp, err := http.Post(url+"/v1/references", ctype, body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusCreated {
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("register: status %d: %s", resp.StatusCode, b)
	}
	var meta struct {
		ID string `json:"id"`
	}
	decodeJSON(t, resp, &meta)
	if meta.ID == "" {
		t.Fatal("empty reference id")
	}
	return meta.ID
}

func TestReferenceLifecycle(t *testing.T) {
	srv, _ := newRegistryServer(t, Config{})
	ref, _, _ := testBoards(t)

	id := postRef(t, srv.URL, ref)
	// Same content again: same id (content addressing is idempotent).
	if again := postRef(t, srv.URL, ref); again != id {
		t.Errorf("re-upload changed id: %s vs %s", again, id)
	}

	resp, err := http.Get(srv.URL + "/v1/references/" + id)
	if err != nil {
		t.Fatal(err)
	}
	var meta struct {
		ID     string `json:"id"`
		Width  int    `json:"width"`
		Height int    `json:"height"`
		Runs   int    `json:"runs"`
	}
	decodeJSON(t, resp, &meta)
	if meta.ID != id || meta.Width != ref.Width || meta.Height != ref.Height || meta.Runs == 0 {
		t.Errorf("metadata %+v does not describe the upload", meta)
	}

	resp, err = http.Get(srv.URL + "/v1/references")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		References []struct {
			ID string `json:"id"`
		} `json:"references"`
	}
	decodeJSON(t, resp, &list)
	if len(list.References) != 1 || list.References[0].ID != id {
		t.Errorf("list = %+v, want just %s", list, id)
	}

	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/references/"+id, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete status %d", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/v1/references/" + id)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("deleted reference still served: %d", resp.StatusCode)
	}
}

// postDiff runs /v1/diff with the given form files and query string,
// returning the response body.
func postDiff(t *testing.T, url, query string, files map[string]*rle.Image) []byte {
	t.Helper()
	body, ctype := multipartBody(t, "rleb", files)
	resp, err := http.Post(url+"/v1/diff?format=rleb"+query, ctype, body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("diff status %d: %s", resp.StatusCode, out)
	}
	return out
}

// TestDiffByReferenceDecodesOnce is the acceptance criterion for the
// registry: M diffs against a registered reference decode it exactly
// once, and the ref=<id> path returns byte-identical output to the
// upload-both-files path.
func TestDiffByReferenceDecodesOnce(t *testing.T) {
	srv, reg := newRegistryServer(t, Config{})
	ref, scan, _ := testBoards(t)
	id := postRef(t, srv.URL, ref)

	want := postDiff(t, srv.URL, "", map[string]*rle.Image{"a": ref, "b": scan})

	const m = 7
	for i := 0; i < m; i++ {
		got := postDiff(t, srv.URL, "&ref="+id, map[string]*rle.Image{"b": scan})
		if !bytes.Equal(got, want) {
			t.Fatalf("diff %d: ref=%s output differs from upload-both path", i, id[:8])
		}
	}
	if v := reg.Counter("sysrle_refstore_decodes_total").Value(); v != 1 {
		t.Errorf("reference decoded %d times for %d diffs, want exactly 1", v, m)
	}
	if v := reg.Counter("sysrle_refstore_misses_total").Value(); v != 1 {
		t.Errorf("misses = %d, want 1", v)
	}
	if v := reg.Counter("sysrle_refstore_hits_total").Value(); v != m-1 {
		t.Errorf("hits = %d, want %d", v, m-1)
	}
}

func TestDiffUnknownReference(t *testing.T) {
	srv, _ := newRegistryServer(t, Config{})
	_, scan, _ := testBoards(t)
	body, ctype := multipartBody(t, "rleb", map[string]*rle.Image{"b": scan})
	resp, err := http.Post(srv.URL+"/v1/diff?ref=no-such-ref", ctype, body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status %d, want 404", resp.StatusCode)
	}
}

func TestInspectByReferenceMatchesUpload(t *testing.T) {
	srv, _ := newRegistryServer(t, Config{})
	ref, scan, _ := testBoards(t)
	id := postRef(t, srv.URL, ref)

	run := func(query string, files map[string]*rle.Image) apiclient.InspectReport {
		body, ctype := multipartBody(t, "rleb", files)
		resp, err := http.Post(srv.URL+"/v1/inspect?min-area=2"+query, ctype, body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			t.Fatalf("inspect status %d: %s", resp.StatusCode, b)
		}
		var ir apiclient.InspectReport
		decodeJSON(t, resp, &ir)
		return ir
	}
	uploaded := run("", map[string]*rle.Image{"ref": ref, "scan": scan})
	byID := run("&ref="+id, map[string]*rle.Image{"scan": scan})
	if byID.DiffPixels != uploaded.DiffPixels || len(byID.Defects) != len(uploaded.Defects) {
		t.Errorf("ref=<id> inspection disagrees: %+v vs %+v", byID, uploaded)
	}
}

// jobForm builds a multipart job submission with N scans (field
// "scan" repeated) and optional other image fields.
func jobForm(t *testing.T, scans []*rle.Image, other map[string]*rle.Image) (io.Reader, string) {
	t.Helper()
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	writeImage := func(field string, img *rle.Image) {
		fw, err := mw.CreateFormFile(field, field+".rleb")
		if err != nil {
			t.Fatal(err)
		}
		if err := imageio.Write(fw, "rleb", img); err != nil {
			t.Fatal(err)
		}
	}
	for field, img := range other {
		writeImage(field, img)
	}
	for _, img := range scans {
		writeImage("scan", img)
	}
	if err := mw.Close(); err != nil {
		t.Fatal(err)
	}
	return &buf, mw.FormDataContentType()
}

// pollJob polls until the job is terminal with all scans recorded.
func pollJob(t *testing.T, url, id string) jobs.Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			t.Fatalf("poll status %d: %s", resp.StatusCode, b)
		}
		var st jobs.Status
		decodeJSON(t, resp, &st)
		if st.State.Terminal() && st.ScansDone == st.ScansTotal {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("job never finished")
	return jobs.Status{}
}

// TestJobEndToEnd is the full async flow: upload reference → submit a
// batch of scans → poll to completion → fetch the per-scan report,
// and cross-check it against the synchronous inspect endpoint.
func TestJobEndToEnd(t *testing.T) {
	srv, _ := newRegistryServer(t, Config{JobWorkers: 2})
	ref, scan, _ := testBoards(t)
	id := postRef(t, srv.URL, ref)

	// Synchronous single inspection as ground truth.
	body, ctype := multipartBody(t, "rleb", map[string]*rle.Image{"scan": scan})
	resp, err := http.Post(srv.URL+"/v1/inspect?min-area=2&ref="+id, ctype, body)
	if err != nil {
		t.Fatal(err)
	}
	var sync apiclient.InspectReport
	decodeJSON(t, resp, &sync)

	form, formType := jobForm(t, []*rle.Image{scan, ref, scan}, nil)
	resp, err = http.Post(srv.URL+"/v1/jobs?min-area=2&ref="+id, formType, form)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("submit status %d: %s", resp.StatusCode, b)
	}
	if loc := resp.Header.Get("Location"); !strings.HasPrefix(loc, "/v1/jobs/") {
		t.Errorf("Location = %q", loc)
	}
	var accepted jobs.Status
	decodeJSON(t, resp, &accepted)
	if accepted.ID == "" || accepted.State.Terminal() && accepted.ScansDone != accepted.ScansTotal {
		t.Fatalf("accepted snapshot %+v", accepted)
	}

	final := pollJob(t, srv.URL, accepted.ID)
	if final.State != jobs.StateDone {
		t.Fatalf("state %s (%s)", final.State, final.Error)
	}
	if len(final.Results) != 3 {
		t.Fatalf("%d results", len(final.Results))
	}
	if final.Results[0].Defects != len(sync.Defects) || final.Results[0].DiffPixels != sync.DiffPixels {
		t.Errorf("batch result %+v disagrees with sync inspect (%d defects, %d px)",
			final.Results[0], len(sync.Defects), sync.DiffPixels)
	}
	if !final.Results[1].Clean {
		t.Error("reference-vs-itself scan not clean")
	}

	// DELETE cancels/removes; a later GET 404s.
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+accepted.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete status %d", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/v1/jobs/" + accepted.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("deleted job still pollable: %d", resp.StatusCode)
	}
}

func TestJobInlineReference(t *testing.T) {
	srv, _ := newRegistryServer(t, Config{JobWorkers: 1})
	ref, scan, _ := testBoards(t)
	form, formType := jobForm(t, []*rle.Image{scan}, map[string]*rle.Image{"ref": ref})
	resp, err := http.Post(srv.URL+"/v1/jobs?min-area=2", formType, form)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("submit status %d: %s", resp.StatusCode, b)
	}
	var st jobs.Status
	decodeJSON(t, resp, &st)
	if final := pollJob(t, srv.URL, st.ID); final.State != jobs.StateDone {
		t.Errorf("state %s (%s)", final.State, final.Error)
	}
}

func TestJobSubmitErrors(t *testing.T) {
	srv, _ := newRegistryServer(t, Config{JobWorkers: 1, JobQueueDepth: 2})
	ref, scan, _ := testBoards(t)
	id := postRef(t, srv.URL, ref)

	cases := []struct {
		name  string
		query string
		form  func() (io.Reader, string)
		want  int
	}{
		{"no scans", "?ref=" + id, func() (io.Reader, string) {
			return jobForm(t, nil, map[string]*rle.Image{"unrelated": scan})
		}, http.StatusBadRequest},
		{"no reference", "", func() (io.Reader, string) {
			return jobForm(t, []*rle.Image{scan}, nil)
		}, http.StatusBadRequest},
		{"unknown reference", "?ref=feedface", func() (io.Reader, string) {
			return jobForm(t, []*rle.Image{scan}, nil)
		}, http.StatusNotFound},
		{"bad engine", "?engine=warp&ref=" + id, func() (io.Reader, string) {
			return jobForm(t, []*rle.Image{scan}, nil)
		}, http.StatusBadRequest},
		{"queue overflow", "?ref=" + id, func() (io.Reader, string) {
			return jobForm(t, []*rle.Image{scan, scan, scan}, nil)
		}, http.StatusTooManyRequests},
	}
	for _, tc := range cases {
		body, ctype := tc.form()
		resp, err := http.Post(srv.URL+"/v1/jobs"+tc.query, ctype, body)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
		if tc.want == http.StatusTooManyRequests && resp.Header.Get("Retry-After") == "" {
			t.Errorf("%s: 429 without Retry-After", tc.name)
		}
	}
}

func TestJobList(t *testing.T) {
	srv, _ := newRegistryServer(t, Config{JobWorkers: 1})
	ref, scan, _ := testBoards(t)
	form, formType := jobForm(t, []*rle.Image{scan}, map[string]*rle.Image{"ref": ref})
	resp, err := http.Post(srv.URL+"/v1/jobs", formType, form)
	if err != nil {
		t.Fatal(err)
	}
	var st jobs.Status
	decodeJSON(t, resp, &st)
	pollJob(t, srv.URL, st.ID)

	resp, err = http.Get(srv.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Jobs []jobs.Status `json:"jobs"`
	}
	decodeJSON(t, resp, &list)
	if len(list.Jobs) != 1 || list.Jobs[0].ID != st.ID {
		t.Errorf("job list %+v", list)
	}
}

// TestJobMetricsExposed checks the subsystem's telemetry reaches
// /metrics.
func TestJobMetricsExposed(t *testing.T) {
	srv, _ := newRegistryServer(t, Config{JobWorkers: 1})
	ref, scan, _ := testBoards(t)
	id := postRef(t, srv.URL, ref)
	form, formType := jobForm(t, []*rle.Image{scan}, nil)
	resp, err := http.Post(srv.URL+"/v1/jobs?ref="+id, formType, form)
	if err != nil {
		t.Fatal(err)
	}
	var st jobs.Status
	decodeJSON(t, resp, &st)
	pollJob(t, srv.URL, st.ID)

	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, _ := io.ReadAll(resp.Body)
	for _, metric := range []string{
		"sysrle_jobs_submitted_total 1",
		"sysrle_jobs_scans_total 1",
		"sysrle_refstore_refs 1",
		"sysrle_refstore_misses_total 1",
	} {
		if !strings.Contains(string(text), metric) {
			t.Errorf("/metrics missing %q", metric)
		}
	}
}
