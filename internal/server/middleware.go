package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"time"

	"sysrle/internal/apiclient"
	"sysrle/internal/telemetry"
)

// The middleware stack, outermost first:
//
//	panic recovery → request ID → access log + metrics → in-flight
//	limiter → request deadline → mux
//
// Every layer runs on the goroutine serving the connection, the
// handler included. Recovery is outermost so a panic anywhere becomes
// a 500 JSON error instead of killing the process. The access logger
// sits outside the limiter and the deadline so shed (429) and
// timed-out (503) requests are still logged and counted. The limiter
// holds a request's slot until its handler returns, deadline or not.

// withRecover turns handler panics into 500 JSON errors.
func (s *Server) withRecover(next http.Handler) http.Handler {
	panics := s.reg.Counter("sysrle_http_panics_total")
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				// The client deliberately aborting is not a server bug;
				// re-raise so the net/http machinery handles it.
				if err, ok := v.(error); ok && errors.Is(err, http.ErrAbortHandler) {
					panic(v)
				}
				panics.Inc()
				s.log.Error("panic serving request",
					"method", r.Method, "path", r.URL.Path,
					"request_id", apiclient.RequestID(r), "panic", fmt.Sprint(v))
				// Best effort: if the handler already wrote, the extra
				// WriteHeader is a no-op warning, not a crash.
				s.httpError(w, r, http.StatusInternalServerError, fmt.Errorf("internal error"))
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// statusWriter records the status code and bytes written.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(p []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	n, err := sw.ResponseWriter.Write(p)
	sw.bytes += int64(n)
	return n, err
}

// Flush forwards to the underlying writer so streaming still works
// through the wrapper.
func (sw *statusWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// countingBody counts request body bytes actually read.
type countingBody struct {
	rc io.ReadCloser
	n  int64
}

func (cb *countingBody) Read(p []byte) (int, error) {
	n, err := cb.rc.Read(p)
	cb.n += int64(n)
	return n, err
}

func (cb *countingBody) Close() error { return cb.rc.Close() }

// endpointLabel collapses the path to a known route so metric
// cardinality stays bounded no matter what paths clients probe.
func endpointLabel(path string) string {
	switch path {
	case "/healthz", "/readyz", "/metrics", "/debug/vars", "/v1/diff", "/v1/inspect", "/v1/align",
		"/v1/docclean", "/v1/references", "/v1/jobs", "/v1/audit":
		return path
	default:
		// Ids are client-chosen content hashes and job counters; fold
		// them so cardinality stays bounded.
		switch {
		case strings.HasPrefix(path, "/v1/references/") && strings.HasSuffix(path, "/content"):
			return "/v1/references/{id}/content"
		case strings.HasPrefix(path, "/v1/references/"):
			return "/v1/references/{id}"
		case strings.HasPrefix(path, "/v1/jobs/"):
			return "/v1/jobs/{id}"
		case strings.HasPrefix(path, "/v1/audit/"):
			return "/v1/audit/{id}/proof"
		}
		return "other"
	}
}

func statusClass(code int) string {
	switch {
	case code < 200:
		return "1xx"
	case code < 300:
		return "2xx"
	case code < 400:
		return "3xx"
	case code < 500:
		return "4xx"
	default:
		return "5xx"
	}
}

// withObserve wraps the handler with structured access logging and the
// request-level metrics: count by endpoint/status class, per-endpoint
// latency histogram, bytes in/out.
func (s *Server) withObserve(next http.Handler) http.Handler {
	s.reg.Help("sysrle_http_requests_total", "Requests served, by endpoint and status class.")
	s.reg.Help("sysrle_http_request_seconds", "Request latency, by endpoint.")
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		endpoint := endpointLabel(r.URL.Path)
		body := &countingBody{rc: r.Body}
		r.Body = body
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		elapsed := time.Since(start)
		ep := telemetry.L("endpoint", endpoint)
		s.reg.Counter("sysrle_http_requests_total", ep, telemetry.L("class", statusClass(sw.status))).Inc()
		s.reg.Histogram("sysrle_http_request_seconds", nil, ep).ObserveDuration(elapsed)
		s.reg.Counter("sysrle_http_request_bytes_total").Add(body.n)
		s.reg.Counter("sysrle_http_response_bytes_total").Add(sw.bytes)
		s.log.Info("request",
			"method", r.Method,
			"path", r.URL.Path,
			"status", sw.status,
			"bytes_in", body.n,
			"bytes_out", sw.bytes,
			"duration", elapsed,
			"request_id", apiclient.RequestID(r),
			"remote", r.RemoteAddr,
		)
	})
}

// withLimit sheds load once MaxInFlight requests are already being
// served, with 429 + Retry-After. A slot is held until the handler
// returns, also past its deadline. /healthz, /readyz and /metrics
// bypass the limiter (and the deadline, see wrap) so the service stays
// observable while saturated — a shed /readyz would hide exactly the
// state it exists to report.
func (s *Server) withLimit(next http.Handler) http.Handler {
	if s.cfg.MaxInFlight <= 0 {
		return next
	}
	sem := make(chan struct{}, s.cfg.MaxInFlight)
	if s.inFlight == nil { // tests build Server without NewWith
		s.inFlight = s.reg.Gauge("sysrle_http_in_flight")
	}
	inFlight := s.inFlight // shared with the /readyz load-shed probe
	throttled := s.reg.Counter("sysrle_http_throttled_total")
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case sem <- struct{}{}:
			inFlight.Inc()
			defer func() {
				<-sem
				inFlight.Dec()
			}()
			next.ServeHTTP(w, r)
		default:
			throttled.Inc()
			w.Header().Set("Retry-After", "1")
			s.httpError(w, r, http.StatusTooManyRequests,
				fmt.Errorf("server at capacity (%d requests in flight)", s.cfg.MaxInFlight))
		}
	})
}

// withDeadline bounds a request with a deadline on its context. The
// handlers that read the context stop there and answer through
// httpError, which maps context.DeadlineExceeded to the 503 envelope;
// a handler that returns after the deadline without writing anything
// gets the same envelope here. A handler that ignores the context
// finishes and answers late.
func (s *Server) withDeadline(next http.Handler) http.Handler {
	if s.cfg.RequestTimeout <= 0 {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		next.ServeHTTP(w, r.WithContext(ctx))
		// w is withObserve's statusWriter: it knows whether the
		// handler wrote.
		if sw, ok := w.(*statusWriter); ok && sw.status == 0 && errors.Is(ctx.Err(), context.DeadlineExceeded) {
			s.httpError(w, r, http.StatusServiceUnavailable, ctx.Err())
		}
	})
}

// exempt routes the observability endpoints around mid (the limiter
// and the deadline) so they cannot be shed or timed out.
func exempt(mid, direct http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/healthz", "/readyz", "/metrics", "/debug/vars":
			direct.ServeHTTP(w, r)
		default:
			mid.ServeHTTP(w, r)
		}
	})
}

// wrap assembles the full stack around the route mux.
func (s *Server) wrap(mux http.Handler) http.Handler {
	h := exempt(s.withLimit(s.withDeadline(mux)), mux)
	h = s.withObserve(h)
	h = apiclient.RequestIDHandler(h)
	h = s.withRecover(h)
	return h
}

// discardLogger drops everything; the default for handlers constructed
// without an explicit logger (tests, library use).
func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}
