package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"sysrle/internal/apiclient"
	"sysrle/internal/imageio"
	"sysrle/internal/inspect"
	"sysrle/internal/rle"
)

// multipartBody builds a multipart upload of named images in the
// given wire format.
func multipartBody(t *testing.T, format string, files map[string]*rle.Image) (io.Reader, string) {
	t.Helper()
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	for field, img := range files {
		fw, err := mw.CreateFormFile(field, field+".img")
		if err != nil {
			t.Fatal(err)
		}
		if err := imageio.Write(fw, format, img); err != nil {
			t.Fatal(err)
		}
	}
	if err := mw.Close(); err != nil {
		t.Fatal(err)
	}
	return &buf, mw.FormDataContentType()
}

// errorResponse decodes the message of the v1 error envelope.
type errorResponse struct {
	Error struct{ Message string }
}

func testBoards(t *testing.T) (*rle.Image, *rle.Image, int) {
	t.Helper()
	rng := rand.New(rand.NewSource(21))
	layout, err := inspect.GenerateBoard(rng, inspect.DefaultBoard(300, 200))
	if err != nil {
		t.Fatal(err)
	}
	scan, injected := inspect.InjectDefects(rng, layout, 5)
	return layout.Art.ToRLE(), scan.ToRLE(), len(injected)
}

func TestHealthz(t *testing.T) {
	srv := httptest.NewServer(New())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	if strings.TrimSpace(string(body)) != "ok" {
		t.Errorf("body %q", body)
	}
}

func TestDiffEndpoint(t *testing.T) {
	srv := httptest.NewServer(New())
	defer srv.Close()
	ref, scan, _ := testBoards(t)

	body, ctype := multipartBody(t, "pbm", map[string]*rle.Image{"a": ref, "b": scan})
	resp, err := http.Post(srv.URL+"/v1/diff?format=rleb&engine=lockstep", ctype, body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	if got := resp.Header.Get("X-Sysrle-Engine"); got != "systolic-lockstep" {
		t.Errorf("engine header %q", got)
	}
	if resp.Header.Get("X-Sysrle-Iterations-Total") == "" {
		t.Error("missing iterations header")
	}
	diff, err := imageio.Read(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	want, err := rle.XORImage(ref, scan)
	if err != nil {
		t.Fatal(err)
	}
	if !diff.Equal(want) {
		t.Error("served diff is wrong")
	}
}

func TestDiffEndpointErrors(t *testing.T) {
	srv := httptest.NewServer(New())
	defer srv.Close()
	ref, scan, _ := testBoards(t)

	cases := []struct {
		name  string
		url   string
		files map[string]*rle.Image
		code  int
	}{
		{"bad engine", "/v1/diff?engine=quantum", map[string]*rle.Image{"a": ref, "b": scan}, http.StatusBadRequest},
		{"removed engine", "/v1/diff?engine=stream", map[string]*rle.Image{"a": ref, "b": scan}, http.StatusBadRequest},
		{"bad format", "/v1/diff?format=gif", map[string]*rle.Image{"a": ref, "b": scan}, http.StatusBadRequest},
		{"missing file", "/v1/diff", map[string]*rle.Image{"a": ref}, http.StatusBadRequest},
		{"size mismatch", "/v1/diff", map[string]*rle.Image{"a": ref, "b": rle.NewImage(4, 4)}, http.StatusUnprocessableEntity},
	}
	for _, c := range cases {
		body, ctype := multipartBody(t, "pbm", c.files)
		resp, err := http.Post(srv.URL+c.url, ctype, body)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.code {
			t.Errorf("%s: status %d, want %d (%s)", c.name, resp.StatusCode, c.code, raw)
		}
		var e errorResponse
		if err := json.Unmarshal(raw, &e); err != nil || e.Error.Message == "" {
			t.Errorf("%s: error body %q", c.name, raw)
		}
	}
}

func TestDiffNotMultipart(t *testing.T) {
	srv := httptest.NewServer(New())
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/v1/diff", "text/plain", strings.NewReader("hi"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status %d", resp.StatusCode)
	}
}

func TestInspectEndpoint(t *testing.T) {
	srv := httptest.NewServer(New())
	defer srv.Close()
	ref, scan, injected := testBoards(t)

	body, ctype := multipartBody(t, "rleb", map[string]*rle.Image{"ref": ref, "scan": scan})
	resp, err := http.Post(srv.URL+"/v1/inspect?min-area=2", ctype, body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var rep apiclient.InspectReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.Clean {
		t.Error("defective board reported clean")
	}
	if len(rep.Defects) == 0 || len(rep.Defects) > injected+2 {
		t.Errorf("defects = %d for %d injected", len(rep.Defects), injected)
	}
	if rep.TotalIterations == 0 || rep.RowsCompared != 200 {
		t.Errorf("stats wrong: %+v", rep)
	}
	for _, d := range rep.Defects {
		if d.Type == "" || d.Kind == "" {
			t.Errorf("unlabelled defect %+v", d)
		}
	}
}

func TestInspectCleanBoard(t *testing.T) {
	srv := httptest.NewServer(New())
	defer srv.Close()
	ref, _, _ := testBoards(t)
	body, ctype := multipartBody(t, "pbm", map[string]*rle.Image{"ref": ref, "scan": ref})
	resp, err := http.Post(srv.URL+"/v1/inspect", ctype, body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rep apiclient.InspectReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if !rep.Clean || len(rep.Defects) != 0 {
		t.Errorf("clean board report: %+v", rep)
	}
	// Defects must encode as [] not null.
	if rep.Defects == nil {
		t.Error("defects should be an empty array")
	}
}

func TestInspectBadMinArea(t *testing.T) {
	srv := httptest.NewServer(New())
	defer srv.Close()
	ref, scan, _ := testBoards(t)
	body, ctype := multipartBody(t, "pbm", map[string]*rle.Image{"ref": ref, "scan": scan})
	resp, err := http.Post(srv.URL+"/v1/inspect?min-area=-3", ctype, body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status %d", resp.StatusCode)
	}
}

func TestAlignEndpoint(t *testing.T) {
	srv := httptest.NewServer(New())
	defer srv.Close()
	ref, _, _ := testBoards(t)
	shifted := rle.Translate(ref, 2, -1)

	body, ctype := multipartBody(t, "rleb", map[string]*rle.Image{"ref": ref, "scan": shifted})
	resp, err := http.Post(srv.URL+"/v1/align?max-shift=3", ctype, body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var rep apiclient.AlignResult
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.DX != -2 || rep.DY != 1 {
		t.Errorf("align = (%d,%d), want (-2,1)", rep.DX, rep.DY)
	}
	if rep.ResidualArea != 0 {
		t.Errorf("residual = %d", rep.ResidualArea)
	}
}

func TestAlignEndpointBadShift(t *testing.T) {
	srv := httptest.NewServer(New())
	defer srv.Close()
	ref, scan, _ := testBoards(t)
	for _, q := range []string{"max-shift=0", "max-shift=999", "max-shift=x"} {
		body, ctype := multipartBody(t, "pbm", map[string]*rle.Image{"ref": ref, "scan": scan})
		resp, err := http.Post(srv.URL+"/v1/align?"+q, ctype, body)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d", q, resp.StatusCode)
		}
	}
}

func TestAlignSizeMismatch(t *testing.T) {
	srv := httptest.NewServer(New())
	defer srv.Close()
	ref, _, _ := testBoards(t)
	body, ctype := multipartBody(t, "pbm", map[string]*rle.Image{"ref": ref, "scan": rle.NewImage(4, 4)})
	resp, err := http.Post(srv.URL+"/v1/align", ctype, body)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("status %d, want 422 (%s)", resp.StatusCode, raw)
	}
	var e errorResponse
	if err := json.Unmarshal(raw, &e); err != nil || !strings.Contains(e.Error.Message, "size mismatch") {
		t.Errorf("error body %q", raw)
	}
}

func TestAlignMissingFile(t *testing.T) {
	srv := httptest.NewServer(New())
	defer srv.Close()
	ref, _, _ := testBoards(t)
	body, ctype := multipartBody(t, "pbm", map[string]*rle.Image{"ref": ref})
	resp, err := http.Post(srv.URL+"/v1/align", ctype, body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status %d, want 400", resp.StatusCode)
	}
}

// TestMetricsEndpoint drives a real diff through the service and
// checks the scrape reflects it: request count, latency histogram and
// per-engine iteration totals.
func TestMetricsEndpoint(t *testing.T) {
	srv := httptest.NewServer(New())
	defer srv.Close()
	ref, scan, _ := testBoards(t)
	body, ctype := multipartBody(t, "pbm", map[string]*rle.Image{"a": ref, "b": scan})
	resp, err := http.Post(srv.URL+"/v1/diff?engine=lockstep", ctype, body)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("diff status %d", resp.StatusCode)
	}

	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", mresp.StatusCode)
	}
	raw, _ := io.ReadAll(mresp.Body)
	out := string(raw)
	for _, want := range []string{
		`sysrle_http_requests_total{class="2xx",endpoint="/v1/diff"} 1`,
		`sysrle_http_request_seconds_bucket{endpoint="/v1/diff",le="+Inf"} 1`,
		`sysrle_http_request_seconds_count{endpoint="/v1/diff"} 1`,
		`sysrle_engine_iterations_total{engine="systolic-lockstep"}`,
		`sysrle_engine_runs_total{engine="systolic-lockstep"} 1`,
		"# TYPE sysrle_http_requests_total counter",
		"# TYPE sysrle_http_request_seconds histogram",
		"sysrle_http_request_bytes_total",
		"sysrle_http_response_bytes_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
	// The engine iteration total must be a real non-zero count: the
	// boards differ, so the lockstep engine iterated.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, `sysrle_engine_iterations_total{engine="systolic-lockstep"}`) {
			fields := strings.Fields(line)
			if len(fields) != 2 || fields[1] == "0" {
				t.Errorf("iteration total not recorded: %q", line)
			}
		}
	}
}

func TestDebugVarsEndpoint(t *testing.T) {
	srv := httptest.NewServer(New())
	defer srv.Close()
	// Any request seeds the registry.
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	dresp, err := http.Get(srv.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer dresp.Body.Close()
	var vars map[string]map[string]json.RawMessage
	if err := json.NewDecoder(dresp.Body).Decode(&vars); err != nil {
		t.Fatalf("debug vars not JSON: %v", err)
	}
	if _, ok := vars["sysrle_http_requests_total"]; !ok {
		t.Errorf("debug vars missing request counter: %v", vars)
	}
}

// TestUploadTooLarge checks MaxBytesReader tripping surfaces as 413,
// not a generic 400.
func TestUploadTooLarge(t *testing.T) {
	srv := httptest.NewServer(NewWith(Config{MaxUploadBytes: 1 << 12}))
	defer srv.Close()
	ref, scan, _ := testBoards(t)
	body, ctype := multipartBody(t, "pbm-plain", map[string]*rle.Image{"a": ref, "b": scan})
	resp, err := http.Post(srv.URL+"/v1/diff", ctype, body)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("status %d, want 413 (%s)", resp.StatusCode, raw)
	}
}

func TestResponseCarriesRequestID(t *testing.T) {
	srv := httptest.NewServer(New())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get("X-Request-Id") == "" {
		t.Error("response missing X-Request-Id")
	}
}

func TestMethodRouting(t *testing.T) {
	srv := httptest.NewServer(New())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/diff")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/diff status %d", resp.StatusCode)
	}
}

func TestInspectWithAlignment(t *testing.T) {
	srv := httptest.NewServer(New())
	defer srv.Close()
	ref, _, _ := testBoards(t)
	shifted := rle.Translate(ref, 2, -1)
	body, ctype := multipartBody(t, "rleb", map[string]*rle.Image{"ref": ref, "scan": shifted})
	resp, err := http.Post(srv.URL+"/v1/inspect?align=3", ctype, body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rep apiclient.InspectReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.AlignDX != -2 || rep.AlignDY != 1 {
		t.Errorf("align = (%d,%d), want (-2,1)", rep.AlignDX, rep.AlignDY)
	}
	if !rep.Clean {
		t.Errorf("registered identical boards not clean: %+v", rep.Defects)
	}
}

func TestInspectBadAlign(t *testing.T) {
	srv := httptest.NewServer(New())
	defer srv.Close()
	ref, scan, _ := testBoards(t)
	body, ctype := multipartBody(t, "pbm", map[string]*rle.Image{"ref": ref, "scan": scan})
	resp, err := http.Post(srv.URL+"/v1/inspect?align=-1", ctype, body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status %d", resp.StatusCode)
	}
}

// TestDiffPlannerExportsDecisionMetrics pins the AttachMetrics wiring:
// a diff served by the hybrid planner must surface its per-row routing
// counters in the service registry, not keep them private to the
// request-scoped engine.
func TestDiffPlannerExportsDecisionMetrics(t *testing.T) {
	srv := httptest.NewServer(New())
	defer srv.Close()
	ref, scan, _ := testBoards(t)

	body, ctype := multipartBody(t, "pbm", map[string]*rle.Image{"a": ref, "b": scan})
	resp, err := http.Post(srv.URL+"/v1/diff?format=rleb&engine=planner", ctype, body)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}

	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	metrics, _ := io.ReadAll(mresp.Body)
	if !strings.Contains(string(metrics), "planner_rows_rle_total") &&
		!strings.Contains(string(metrics), "planner_rows_packed_total") {
		t.Error("planner decision counters missing from /metrics after engine=planner diff")
	}
	if !strings.Contains(string(metrics), "planner_crossover_ratio_count") {
		t.Error("planner crossover histogram missing from /metrics")
	}
}
