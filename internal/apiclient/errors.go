package apiclient

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// Error codes of the v1 error envelope, one per status (see
// codeForStatus). Compare with Error.Code rather than matching
// message text.
const (
	CodeInvalidArgument   = "invalid_argument"
	CodeNotFound          = "not_found"
	CodeConflict          = "conflict"
	CodePayloadTooLarge   = "payload_too_large"
	CodeUnprocessable     = "unprocessable"
	CodeResourceExhausted = "resource_exhausted"
	CodeInternal          = "internal"
	CodeUnavailable       = "unavailable"
)

// Error is one decoded v1 API failure: the HTTP status plus the
// server's error envelope {"error": {"code", "message", "request_id"}}.
type Error struct {
	// Status is the HTTP status code of the response.
	Status int
	// Code is the envelope's stable machine-readable code.
	Code string
	// Message is the envelope's human-readable message.
	Message string
	// RequestID is the server-assigned request id, for correlating
	// with the server's access log.
	RequestID string
	// Header and Body are the raw response, for a proxy that relays
	// the error unchanged.
	Header http.Header
	Body   []byte
}

// Error implements error.
func (e *Error) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "api error %d", e.Status)
	if e.Code != "" {
		fmt.Fprintf(&b, " (%s)", e.Code)
	}
	if e.Message != "" {
		fmt.Fprintf(&b, ": %s", e.Message)
	}
	if e.RequestID != "" {
		fmt.Fprintf(&b, " [request %s]", e.RequestID)
	}
	return b.String()
}

// IsNotFound reports whether err is an API error with HTTP 404.
func IsNotFound(err error) bool {
	var ae *Error
	return errors.As(err, &ae) && ae.Status == http.StatusNotFound
}

// FailoverEligible reports whether a read that failed with err may be
// retried against another replica of the same key. Transport failures
// (no *Error at all) and 5xx responses say nothing about the data, and
// a 404 from one replica may be a placement miss that another replica
// can fill — all eligible. Definitive 4xx verdicts (bad argument,
// unprocessable input, backpressure) would repeat identically on every
// replica, so they are relayed at once instead.
func FailoverEligible(err error) bool {
	var ae *Error
	if !errors.As(err, &ae) {
		return err != nil
	}
	return ae.Status >= 500 || ae.Status == http.StatusNotFound
}

// errorEnvelope is the wire shape of every /v1 error answer:
// {"error": {"code", "message", "request_id"}}, with the HTTP status
// telling the class and Code naming it for machines.
type errorEnvelope struct {
	Error errorBody `json:"error"`
}

type errorBody struct {
	Code      string `json:"code"`
	Message   string `json:"message"`
	RequestID string `json:"request_id,omitempty"`
}

// WriteError answers with the v1 error envelope: status, its code
// from the one status → code table, msg and the request id. Shard and
// coordinator write every error through it.
func WriteError(w http.ResponseWriter, status int, msg, requestID string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(errorEnvelope{errorBody{codeForStatus(status), msg, requestID}})
}

// EnvelopeUnrouted serves mux, answering a request that no route
// matches with the v1 error envelope in place of ServeMux's plain
// text: 404, or 405 with the mux's Allow header. Shard and
// coordinator both serve their routes through it.
func EnvelopeUnrouted(mux *http.ServeMux) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, pattern := mux.Handler(r); pattern == "" {
			w = unroutedWriter{w, r}
		}
		mux.ServeHTTP(w, r)
	})
}

// unroutedWriter writes the envelope for the mux's 404 or 405 status
// (the mux sets Allow before it) and drops the mux's text.
type unroutedWriter struct {
	http.ResponseWriter
	r *http.Request
}

func (u unroutedWriter) WriteHeader(status int) {
	WriteError(u.ResponseWriter, status,
		fmt.Sprintf("%s: %s %s", http.StatusText(status), u.r.Method, u.r.URL.Path), RequestID(u.r))
}

func (u unroutedWriter) Write(p []byte) (int, error) { return len(p), nil }

// decodeError turns a non-2xx response into a *Error, consuming and
// closing the body. A body that is not the envelope becomes the
// message, and the code falls back to the status's.
func decodeError(resp *http.Response) *Error {
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, maxErrorBodyBytes))
	drainClose(resp.Body)
	e := &Error{Status: resp.StatusCode, RequestID: resp.Header.Get(RequestIDHeader),
		Header: resp.Header, Body: raw}
	var env errorEnvelope
	if json.Unmarshal(raw, &env) == nil {
		e.Code, e.Message = env.Error.Code, env.Error.Message
		if env.Error.RequestID != "" {
			e.RequestID = env.Error.RequestID
		}
	}
	if e.Message == "" {
		e.Message = strings.TrimSpace(string(raw))
		if e.Message == "" {
			e.Message = http.StatusText(resp.StatusCode)
		}
	}
	if e.Code == "" {
		e.Code = codeForStatus(resp.StatusCode)
	}
	return e
}

// codeForStatus maps an HTTP status onto its envelope code.
func codeForStatus(status int) string {
	switch status {
	case http.StatusBadRequest:
		return CodeInvalidArgument
	case http.StatusNotFound:
		return CodeNotFound
	case http.StatusConflict:
		return CodeConflict
	case http.StatusRequestEntityTooLarge:
		return CodePayloadTooLarge
	case http.StatusUnprocessableEntity:
		return CodeUnprocessable
	case http.StatusTooManyRequests:
		return CodeResourceExhausted
	case http.StatusServiceUnavailable:
		return CodeUnavailable
	case http.StatusInternalServerError:
		return CodeInternal
	default:
		return fmt.Sprintf("http_%d", status)
	}
}
