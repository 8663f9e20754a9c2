package apiclient

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

func testClient(t *testing.T, h http.Handler, opts Options) *Client {
	t.Helper()
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	c, err := New(ts.URL, opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c
}

func TestNewRejectsBadURL(t *testing.T) {
	for _, bad := range []string{"", "not a url", "/relative", "host:port"} {
		if _, err := New(bad, Options{}); err == nil {
			t.Errorf("New(%q) accepted", bad)
		}
	}
	if _, err := New("http://localhost:1", Options{}); err != nil {
		t.Fatalf("New rejected a good URL: %v", err)
	}
}

func TestErrorEnvelopeDecoding(t *testing.T) {
	c := testClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Request-Id", "rid-1")
		w.WriteHeader(http.StatusUnprocessableEntity)
		w.Write([]byte(`{"error":{"code":"unprocessable","message":"size mismatch","request_id":"rid-1"}}`))
	}), Options{Retries: -1})
	err := c.Health(context.Background())
	if err == nil {
		t.Fatal("want error")
	}
	var ae *Error
	if !errors.As(err, &ae) {
		t.Fatalf("err = %T %v, want *Error", err, err)
	}
	if ae.Status != 422 || ae.Code != CodeUnprocessable || ae.Message != "size mismatch" || ae.RequestID != "rid-1" {
		t.Fatalf("decoded error = %+v", ae)
	}
}

func TestErrorTextFallback(t *testing.T) {
	c := testClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "plain text failure", http.StatusBadRequest)
	}), Options{Retries: -1})
	err := c.Health(context.Background())
	var ae *Error
	if !errors.As(err, &ae) {
		t.Fatalf("err = %v", err)
	}
	if ae.Message != "plain text failure" || ae.Code != CodeInvalidArgument {
		t.Fatalf("text fallback = %+v", ae)
	}
}

func TestFailoverEligible(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{errors.New("connection refused"), true}, // transport failure
		{&Error{Status: 500}, true},
		{&Error{Status: 503}, true},
		{&Error{Status: 404}, true}, // placement miss: a replica may hold it
		{&Error{Status: 400}, false},
		{&Error{Status: 409}, false},
		{&Error{Status: 422}, false},
		{&Error{Status: 429}, false},
		{fmt.Errorf("wrapped: %w", &Error{Status: 502}), true},
		{fmt.Errorf("wrapped: %w", &Error{Status: 422}), false},
	}
	for _, tc := range cases {
		if got := FailoverEligible(tc.err); got != tc.want {
			t.Errorf("FailoverEligible(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}

func TestConflictCode(t *testing.T) {
	if got := codeForStatus(http.StatusConflict); got != CodeConflict {
		t.Fatalf("codeForStatus(409) = %q, want %q", got, CodeConflict)
	}
}

func TestIdempotentRetriesRecoverFrom5xx(t *testing.T) {
	var calls atomic.Int32
	c := testClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.WriteHeader(http.StatusInternalServerError)
			w.Write([]byte(`{"error":{"code":"internal","message":"transient"}}`))
			return
		}
		w.Write([]byte("ok"))
	}), Options{Retries: 3, Backoff: time.Millisecond, BackoffCap: 2 * time.Millisecond})
	if err := c.Health(context.Background()); err != nil {
		t.Fatalf("retries did not recover: %v", err)
	}
	if n := calls.Load(); n != 3 {
		t.Fatalf("server saw %d calls, want 3", n)
	}
}

func TestNoRetryOn4xx(t *testing.T) {
	var calls atomic.Int32
	c := testClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusNotFound)
		w.Write([]byte(`{"error":{"code":"not_found","message":"nope"}}`))
	}), Options{Retries: 3, Backoff: time.Millisecond})
	_, err := c.GetReference(context.Background(), "deadbeef")
	if !IsNotFound(err) {
		t.Fatalf("err = %v, want 404", err)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("4xx retried: %d calls", n)
	}
}

func TestNonIdempotentNeverRetries(t *testing.T) {
	var calls atomic.Int32
	c := testClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusInternalServerError)
		w.Write([]byte(`{"error":{"code":"internal","message":"boom"}}`))
	}), Options{Retries: 3, Backoff: time.Millisecond})
	_, err := c.SubmitJob(context.Background(), JobRequest{})
	if err == nil {
		t.Fatal("want error")
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("job submission retried: %d calls", n)
	}
}

func TestHedgingWinsAgainstSlowFirstAttempt(t *testing.T) {
	var calls atomic.Int32
	release := make(chan struct{})
	c := testClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			// First attempt stalls until the test ends.
			select {
			case <-release:
			case <-r.Context().Done():
			}
			return
		}
		w.Write([]byte("ok"))
	}), Options{Retries: -1, HedgeDelay: 10 * time.Millisecond})
	defer close(release)

	start := time.Now()
	if err := c.Health(context.Background()); err != nil {
		t.Fatalf("hedged call failed: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("hedge did not rescue the call (took %v)", elapsed)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("server saw %d calls, want 2 (original + hedge)", n)
	}
}

func TestPerCallDeadline(t *testing.T) {
	c := testClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	}), Options{Timeout: 50 * time.Millisecond, Retries: -1})
	start := time.Now()
	err := c.Health(context.Background())
	if err == nil {
		t.Fatal("want deadline error")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline not enforced (took %v)", elapsed)
	}
}

func TestObserveHookSeesAttempts(t *testing.T) {
	var calls atomic.Int32
	var observed atomic.Int32
	var lastRoute atomic.Value
	c := testClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.WriteHeader(http.StatusInternalServerError)
			w.Write([]byte(`{"error":{"code":"internal","message":"x"}}`))
			return
		}
		w.Write([]byte("ok"))
	}), Options{
		Retries: 2, Backoff: time.Millisecond,
		Observe: func(route string, d time.Duration, status int) {
			observed.Add(1)
			lastRoute.Store(route)
		},
	})
	if err := c.Health(context.Background()); err != nil {
		t.Fatalf("call failed: %v", err)
	}
	if n := observed.Load(); n != 2 {
		t.Fatalf("observe saw %d attempts, want 2", n)
	}
	if r := lastRoute.Load(); r != "/healthz" {
		t.Fatalf("observed route = %v", r)
	}
}

func TestReadyAccepts503(t *testing.T) {
	c := testClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte(`{"ready":false,"probes":[{"name":"storage","ok":false,"detail":"wal: sticky"}]}`))
	}), Options{Retries: -1})
	st, err := c.Ready(context.Background())
	if err != nil {
		t.Fatalf("Ready on 503: %v", err)
	}
	if st.Ready || len(st.Probes) != 1 || st.Probes[0].Name != "storage" {
		t.Fatalf("ready status = %+v", st)
	}
}
