package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sysrle/internal/apiclient"
	"sysrle/internal/rle"
	"sysrle/internal/telemetry"
)

// newTestServer builds a Server plus a wrapped custom inner handler,
// so middleware behavior can be driven directly.
func newTestServer(cfg Config, inner http.Handler) (*Server, http.Handler) {
	if cfg.MaxUploadBytes == 0 {
		cfg.MaxUploadBytes = MaxUploadBytes
	}
	if cfg.MaxInFlight == 0 {
		cfg.MaxInFlight = DefaultMaxInFlight
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = DefaultRequestTimeout
	}
	s := &Server{cfg: cfg, log: discardLogger(), reg: telemetry.NewRegistry()}
	if cfg.Registry != nil {
		s.reg = cfg.Registry
	}
	return s, s.wrap(inner)
}

func TestRequestIDAssigned(t *testing.T) {
	_, h := newTestServer(Config{}, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get(apiclient.RequestIDHeader) == "" {
			t.Error("handler saw no request ID")
		}
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Header().Get(apiclient.RequestIDHeader) == "" {
		t.Error("response missing X-Request-Id")
	}
}

func TestRequestIDPropagated(t *testing.T) {
	_, h := newTestServer(Config{}, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	req := httptest.NewRequest("GET", "/healthz", nil)
	req.Header.Set(apiclient.RequestIDHeader, "upstream-42")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if got := rec.Header().Get(apiclient.RequestIDHeader); got != "upstream-42" {
		t.Errorf("request ID = %q, want upstream-42", got)
	}
}

func TestRequestIDRejectsGarbage(t *testing.T) {
	_, h := newTestServer(Config{}, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	req := httptest.NewRequest("GET", "/healthz", nil)
	req.Header.Set(apiclient.RequestIDHeader, strings.Repeat("x", 200))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if got := rec.Header().Get(apiclient.RequestIDHeader); len(got) > 64 || got == "" {
		t.Errorf("oversized inbound ID not replaced: %q", got)
	}
}

func TestPanicRecovery(t *testing.T) {
	s, h := newTestServer(Config{}, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("kaboom")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/diff", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	var e errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error.Message == "" {
		t.Errorf("panic response body %q", rec.Body.String())
	}
	if got := s.reg.Counter("sysrle_http_panics_total").Value(); got != 1 {
		t.Errorf("panics counter = %d, want 1", got)
	}
}

func TestLimiterSheds(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{})
	s, h := newTestServer(Config{MaxInFlight: 1, RequestTimeout: -1}, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		entered <- struct{}{}
		<-release
	}))
	srv := httptest.NewServer(h)
	defer srv.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := http.Get(srv.URL + "/v1/diff")
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-entered // first request is now occupying the only slot

	resp, err := http.Get(srv.URL + "/v1/diff")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("missing Retry-After header")
	}
	var e errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error.Message == "" {
		t.Error("429 body is not the JSON error shape")
	}
	if got := s.reg.Counter("sysrle_http_throttled_total").Value(); got != 1 {
		t.Errorf("throttled counter = %d, want 1", got)
	}
	close(release)
	wg.Wait()
}

func TestLimiterExemptsHealthAndMetrics(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{})
	_, h := newTestServer(Config{MaxInFlight: 1, RequestTimeout: -1}, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/diff" {
			entered <- struct{}{}
			<-release
		}
		w.WriteHeader(http.StatusOK)
	}))
	srv := httptest.NewServer(h)
	defer srv.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := http.Get(srv.URL + "/v1/diff")
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-entered
	defer func() { close(release); wg.Wait() }()

	for _, path := range []string{"/healthz", "/metrics"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s while saturated: status %d, want 200", path, resp.StatusCode)
		}
	}
}

func TestTimeout(t *testing.T) {
	_, h := newTestServer(Config{RequestTimeout: 20 * time.Millisecond}, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-time.After(5 * time.Second):
		case <-r.Context().Done():
		}
	}))
	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/diff")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("status %d, want 503", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	var e errorResponse
	if err := json.Unmarshal(body, &e); err != nil || e.Error.Message == "" {
		t.Errorf("timeout body %q is not the JSON error shape", body)
	}
	checkTimedOut(t, resp.StatusCode, resp.Header, body)
}

// checkTimedOut asserts an answer is the 503 envelope of a request
// whose deadline passed, carrying the response's request id.
func checkTimedOut(t *testing.T, status int, h http.Header, body []byte) {
	t.Helper()
	if status != http.StatusServiceUnavailable {
		t.Errorf("status %d, want 503", status)
	}
	if ct := h.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type %q, want application/json", ct)
	}
	var e errorResponse
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("timeout body %q: %v", body, err)
	}
	if e.Error.Code != apiclient.CodeUnavailable || e.Error.Message != "request timed out" {
		t.Errorf("timeout envelope %q, want code %q, message \"request timed out\"", body, apiclient.CodeUnavailable)
	}
	if id := h.Get(apiclient.RequestIDHeader); id == "" || e.Error.RequestID != id {
		t.Errorf("timeout envelope request_id %q, X-Request-Id %q: want equal, non-empty", e.Error.RequestID, id)
	}
}

// TestTimeoutDiffRoute: a real handler stopped by its deadline answers
// the 503 envelope, not the 422 of an engine error.
func TestTimeoutDiffRoute(t *testing.T) {
	s := NewWith(Config{RequestTimeout: time.Nanosecond})
	t.Cleanup(s.Close)
	ref, scan, _ := testBoards(t)
	body, ctype := multipartBody(t, "rleb", map[string]*rle.Image{"a": ref, "b": scan})
	req := httptest.NewRequest(http.MethodPost, "/v1/diff", body)
	req.Header.Set("Content-Type", ctype)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	checkTimedOut(t, rec.Code, rec.Header(), rec.Body.Bytes())
}

// TestTimeoutKeepsLimiterSlot: a handler that ignores its context runs
// on past the deadline and keeps its in-flight slot until it returns,
// so MaxInFlight bounds the work running, not only the requests not
// yet answered. Once it returns without writing, its request gets the
// 503 envelope.
func TestTimeoutKeepsLimiterSlot(t *testing.T) {
	expired, release := make(chan struct{}), make(chan struct{})
	var calls atomic.Int32
	_, h := newTestServer(Config{MaxInFlight: 1, RequestTimeout: 20 * time.Millisecond}, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) > 1 {
			return // a later request that was let in
		}
		<-r.Context().Done()
		close(expired)
		<-release
	}))
	srv := httptest.NewServer(h)
	defer srv.Close()
	unblock := sync.OnceFunc(func() { close(release) })
	defer unblock()

	type answer struct {
		status int
		header http.Header
		body   []byte
	}
	first := make(chan answer, 1)
	go func() {
		resp, err := http.Get(srv.URL + "/v1/diff")
		if err != nil {
			first <- answer{}
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		first <- answer{resp.StatusCode, resp.Header, body}
	}()
	<-expired
	// Time for a slot freed at the deadline to be taken.
	time.Sleep(50 * time.Millisecond)
	resp, err := http.Get(srv.URL + "/v1/diff")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("second request while the first runs past its deadline: status %d, want 429", resp.StatusCode)
	}
	unblock()
	a := <-first
	checkTimedOut(t, a.status, a.header, a.body)
}

// TestTimeoutPanicCounted: a handler that panics after its deadline is
// recovered, counted and answered like any other panic.
func TestTimeoutPanicCounted(t *testing.T) {
	s, h := newTestServer(Config{RequestTimeout: 20 * time.Millisecond}, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
		time.Sleep(20 * time.Millisecond)
		panic("late kaboom")
	}))
	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/diff")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("status %d, want 500", resp.StatusCode)
	}
	if got := s.reg.Counter("sysrle_http_panics_total").Value(); got != 1 {
		t.Errorf("panics counter = %d, want 1", got)
	}
}

func TestObserveRecordsMetrics(t *testing.T) {
	s, h := newTestServer(Config{}, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.WriteHeader(http.StatusTeapot)
		w.Write([]byte("short and stout"))
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/diff", strings.NewReader("hello")))

	if got := s.reg.Counter("sysrle_http_requests_total",
		telemetry.L("endpoint", "/v1/diff"), telemetry.L("class", "4xx")).Value(); got != 1 {
		t.Errorf("requests counter = %d, want 1", got)
	}
	if got := s.reg.Histogram("sysrle_http_request_seconds", nil,
		telemetry.L("endpoint", "/v1/diff")).Count(); got != 1 {
		t.Errorf("latency histogram count = %d, want 1", got)
	}
	if got := s.reg.Counter("sysrle_http_request_bytes_total").Value(); got != int64(len("hello")) {
		t.Errorf("bytes in = %d, want %d", got, len("hello"))
	}
	if got := s.reg.Counter("sysrle_http_response_bytes_total").Value(); got != int64(len("short and stout")) {
		t.Errorf("bytes out = %d, want %d", got, len("short and stout"))
	}
}

func TestEndpointLabelBoundsCardinality(t *testing.T) {
	s, h := newTestServer(Config{}, http.NewServeMux())
	for _, path := range []string{"/a", "/b", "/c/d/e", "/v1/zzz"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	}
	if got := s.reg.Counter("sysrle_http_requests_total",
		telemetry.L("endpoint", "other"), telemetry.L("class", "4xx")).Value(); got != 4 {
		t.Errorf("probed paths not collapsed to 'other': %d", got)
	}
}
