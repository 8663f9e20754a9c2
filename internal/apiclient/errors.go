package apiclient

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// Error codes of the v1 error envelope, mirrored from the server's
// status mapping. Compare with Error.Code rather than matching
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
func IsNotFound(err error) bool { return statusIs(err, http.StatusNotFound) }

// IsRetryAfter reports whether err is the 429 backpressure signal.
func IsRetryAfter(err error) bool { return statusIs(err, http.StatusTooManyRequests) }

// IsConflict reports whether err is an API error with HTTP 409.
func IsConflict(err error) bool { return statusIs(err, http.StatusConflict) }

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

func statusIs(err error, status int) bool {
	var ae *Error
	return errors.As(err, &ae) && ae.Status == status
}

// envelope is the wire shape of an error response. The error member
// is normally the object form; the string form is kept decodable for
// the static timeout body and older peers.
type envelope struct {
	Error json.RawMessage `json:"error"`
}

type envelopeBody struct {
	Code      string `json:"code"`
	Message   string `json:"message"`
	RequestID string `json:"request_id"`
}

// decodeError turns a non-2xx response into a *Error, consuming and
// closing the body.
func decodeError(resp *http.Response) *Error {
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, maxErrorBodyBytes))
	drainClose(resp.Body)
	e := &Error{Status: resp.StatusCode, RequestID: resp.Header.Get(requestIDHeaderKey),
		Header: resp.Header, Body: raw}
	var env envelope
	if err := json.Unmarshal(raw, &env); err == nil && len(env.Error) > 0 {
		var body envelopeBody
		var msg string
		switch {
		case json.Unmarshal(env.Error, &body) == nil && (body.Code != "" || body.Message != ""):
			e.Code = body.Code
			e.Message = body.Message
			if body.RequestID != "" {
				e.RequestID = body.RequestID
			}
		case json.Unmarshal(env.Error, &msg) == nil:
			e.Message = msg
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

// codeForStatus is the fallback status → code mapping, identical to
// the server's.
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
