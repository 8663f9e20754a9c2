// Package apiclient is the typed Go client for the sysdiffd v1 HTTP
// API and the one definition of its wire contract. Every caller that
// used to hand-roll multipart bodies and ad-hoc JSON decoding against
// /v1 — the CLIs, the e2e tests, and above all the cluster
// coordinator — goes through this package instead, so request
// shaping, error decoding, deadlines, retries and hedging live in
// exactly one place. The shard and the coordinator answer through it
// too: WriteJSON for every JSON body, WriteError for the error
// envelope and its status → code table, SetDiffHeaders for the
// X-Sysrle-* headers and RequestIDHandler for the request-id rule.
//
// The client is deliberately thin on policy and explicit about it:
//
//   - Typed requests and responses. Images travel as canonical RLEB
//     multipart parts; responses decode into the Go types the shard
//     encodes (refstore.Meta, jobs.Status, docclean.Result and the
//     types in v1.go), and engine statistics come back parsed from
//     the X-Sysrle-* headers.
//   - Unified errors. Every non-2xx response decodes into *Error with
//     the server's error envelope — {"error": {"code", "message",
//     "request_id"}} — plus the HTTP status, so callers switch on
//     Code or Status instead of grepping message strings.
//   - Per-call deadlines. Timeout applies to each call that does not
//     already carry a context deadline.
//   - Capped-jitter retries. Idempotent calls (reads, and the pure
//     compute endpoints diff/inspect/align/docclean) retry transport
//     errors and 5xx responses with capped exponential backoff and
//     seeded jitter. Job submission and reference mutation never
//     retry implicitly.
//   - Slow-peer hedging. With a HedgeDelay configured, an idempotent
//     call that has not answered within the delay starts a second
//     identical attempt and takes whichever finishes first — the
//     tail-tolerance trick the cluster coordinator leans on against
//     slow shards (chaos-tested with internal/fault's transport
//     injector).
//   - Request-id propagation. A context made by WithRequestID sends
//     its id as X-Request-Id on every call, so a proxy's peer calls
//     join the inbound request in the peers' access logs and errors.
//   - Raw forwarding. Forward sends an inbound request on byte for
//     byte under the same deadline, retry and hedging rules; the
//     cluster coordinator relays the answer unchanged.
//
// One Client is safe for concurrent use by any number of goroutines.
package apiclient

import (
	"bytes"
	"context"
	crand "crypto/rand"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"mime/multipart"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sysrle/internal/imageio"
	"sysrle/internal/rle"
)

// Defaults for Options zero values.
const (
	DefaultTimeout    = 30 * time.Second
	DefaultRetries    = 2
	DefaultBackoff    = 50 * time.Millisecond
	DefaultBackoffCap = 2 * time.Second
	maxErrorBodyBytes = 1 << 20
	maxDrainBodyBytes = 1 << 18
	defaultUserAgent  = "sysrle-apiclient/1"
)

// RequestIDHeader is the request and response header carrying the
// request id.
const RequestIDHeader = "X-Request-Id"

// Options tunes a Client; the zero value gets production defaults.
type Options struct {
	// HTTPClient issues the requests; nil means a private client with
	// a default transport. The client's own Timeout should stay zero —
	// per-call deadlines come from Timeout below.
	HTTPClient *http.Client
	// Timeout bounds one call (including retries and hedges) when the
	// caller's context has no deadline. 0 means DefaultTimeout,
	// negative disables the bound.
	Timeout time.Duration
	// Retries is how many times an idempotent call retries after a
	// transport error or a 5xx (0 means DefaultRetries, negative
	// disables retries). Non-idempotent calls never retry.
	Retries int
	// Backoff is the base of the capped exponential backoff between
	// retries, and BackoffCap its ceiling. Zero values get
	// DefaultBackoff / DefaultBackoffCap. Each pause is drawn
	// uniformly from [backoff/2, backoff) — full jitter halved, so
	// retry storms decorrelate but never exceed the cap.
	Backoff    time.Duration
	BackoffCap time.Duration
	// HedgeDelay, when positive, arms slow-call hedging: an
	// idempotent call still unanswered after this delay starts one
	// backup attempt and the first response wins. 0 disables hedging.
	HedgeDelay time.Duration
	// Seed seeds the retry jitter; 0 derives one from the clock.
	// Chaos tests pin it so backoff schedules replay.
	Seed int64
	// UserAgent overrides the User-Agent header.
	UserAgent string
	// Observe, when non-nil, receives one sample per HTTP attempt
	// (hedge attempts included): the route label, the wall-clock
	// latency, the status code (0 on transport error). The cluster
	// coordinator feeds per-shard latency histograms from this.
	Observe func(route string, d time.Duration, status int)
}

// Client is a typed v1 API client bound to one base URL.
type Client struct {
	base    string
	hc      *http.Client
	opts    Options
	retries int

	mu  sync.Mutex
	rng *rand.Rand
}

// New returns a client for the service at baseURL (scheme://host[:port],
// with or without a trailing slash).
func New(baseURL string, opts Options) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("apiclient: bad base URL %q", baseURL)
	}
	if opts.HTTPClient == nil {
		opts.HTTPClient = &http.Client{}
	}
	if opts.Timeout == 0 {
		opts.Timeout = DefaultTimeout
	}
	if opts.Retries == 0 {
		opts.Retries = DefaultRetries
	}
	if opts.Retries < 0 {
		opts.Retries = 0
	}
	if opts.Backoff <= 0 {
		opts.Backoff = DefaultBackoff
	}
	if opts.BackoffCap <= 0 {
		opts.BackoffCap = DefaultBackoffCap
	}
	if opts.UserAgent == "" {
		opts.UserAgent = defaultUserAgent
	}
	seed := opts.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	return &Client{
		base:    strings.TrimRight(u.String(), "/"),
		hc:      opts.HTTPClient,
		opts:    opts,
		retries: opts.Retries,
		rng:     rand.New(rand.NewSource(seed)),
	}, nil
}

// MustNew is New for statically known URLs; it panics on a bad one.
func MustNew(baseURL string, opts Options) *Client {
	c, err := New(baseURL, opts)
	if err != nil {
		panic(err)
	}
	return c
}

// BaseURL returns the base URL the client is bound to.
func (c *Client) BaseURL() string { return c.base }

type requestIDKey struct{}

// WithRequestID returns a context whose calls send id as X-Request-Id.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey{}, id)
}

// ridPrefix makes minted request ids unique across process restarts.
var ridPrefix = func() string {
	var b [4]byte
	if _, err := crand.Read(b[:]); err != nil {
		return "00000000"
	}
	return hex.EncodeToString(b[:])
}()

var ridCounter atomic.Uint64

// RequestIDHandler gives every request an id: an inbound X-Request-Id
// of 1–64 printable ASCII characters is kept (proxies assign ids
// upstream), anything else is replaced by a fresh
// "<random prefix>-<counter>". The id is set on the request and the
// response headers and carried by the request context, so the calls a
// proxy makes for the request send it on (WithRequestID).
func RequestIDHandler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(RequestIDHeader)
		if id == "" || len(id) > 64 || !printableASCII(id) {
			id = fmt.Sprintf("%s-%06d", ridPrefix, ridCounter.Add(1))
			r.Header.Set(RequestIDHeader, id)
		}
		w.Header().Set(RequestIDHeader, id)
		next.ServeHTTP(w, r.WithContext(WithRequestID(r.Context(), id)))
	})
}

// RequestID returns the id RequestIDHandler gave r.
func RequestID(r *http.Request) string { return r.Header.Get(RequestIDHeader) }

func printableASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] < 0x21 || s[i] > 0x7e {
			return false
		}
	}
	return true
}

// Forward sends an inbound request on to this client's server: the
// same method, path, query and Content-Type, with body as its bytes
// (the caller has read r.Body already). Reads and the pure compute
// endpoints are idempotent, so they retry and hedge like the typed
// calls; mutations are sent once. A 2xx answer comes back as the live
// response, which the caller must close; any other status comes back
// as *Error carrying the raw headers and body.
func (c *Client) Forward(r *http.Request, body []byte) (*http.Response, error) {
	ctype := r.Header.Get("Content-Type")
	return c.do(r.Context(), request{
		method: r.Method, path: r.URL.EscapedPath(), query: r.URL.Query(),
		body: func() (io.Reader, string, error) {
			return bytes.NewReader(body), ctype, nil
		},
		idempotent: r.Method == http.MethodGet || computePaths[r.URL.Path],
	})
}

// computePaths are the POST endpoints without side effects.
var computePaths = map[string]bool{
	"/v1/diff": true, "/v1/inspect": true, "/v1/align": true, "/v1/docclean": true,
}

// request is one shaped call: everything do needs to build identical
// HTTP attempts for retries and hedges.
type request struct {
	method string
	path   string // under the base URL, starting with /
	query  url.Values
	route  string // metric label; path with ids folded
	// body returns a fresh body and its content type; nil means no
	// body. It must be re-callable (each attempt gets its own).
	body func() (io.Reader, string, error)
	// idempotent allows retries and hedging.
	idempotent bool
	// accept is the statuses the caller treats as success; anything
	// else decodes into *Error. Empty means any 2xx.
	accept []int
}

func (r request) accepted(status int) bool {
	if len(r.accept) == 0 {
		return status >= 200 && status < 300
	}
	for _, s := range r.accept {
		if s == status {
			return true
		}
	}
	return false
}

// backoffFor returns the jittered pause before retry attempt n (1-based).
func (c *Client) backoffFor(n int) time.Duration {
	d := c.opts.Backoff << (n - 1)
	if d > c.opts.BackoffCap || d <= 0 {
		d = c.opts.BackoffCap
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return d/2 + time.Duration(c.rng.Int63n(int64(d/2)+1))
}

// do runs one shaped call: deadline, retries, hedging. On success the
// caller owns the response body. On failure the body is consumed and
// closed, and the error is a *Error for HTTP-level failures.
func (c *Client) do(ctx context.Context, req request) (*http.Response, error) {
	if _, has := ctx.Deadline(); !has && c.opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.opts.Timeout)
		resp, err := c.doAttempts(ctx, req)
		if err != nil {
			cancel()
			return nil, err
		}
		// The caller reads the body after do returns; the deadline
		// keeps bounding that read, and the context is released when
		// the body is closed.
		resp.Body = bodyCloser{resp.Body, cancel}
		return resp, nil
	}
	return c.doAttempts(ctx, req)
}

func (c *Client) doAttempts(ctx context.Context, req request) (*http.Response, error) {
	attempts := 1
	if req.idempotent {
		attempts += c.retries
	}
	var lastErr error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			select {
			case <-ctx.Done():
				return nil, fmt.Errorf("apiclient: %s %s: %w", req.method, req.path, ctx.Err())
			case <-time.After(c.backoffFor(i)):
			}
		}
		resp, err := c.attempt(ctx, req)
		if err != nil {
			lastErr = fmt.Errorf("apiclient: %s %s: %w", req.method, req.path, err)
			if ctx.Err() != nil {
				return nil, lastErr
			}
			continue
		}
		if req.accepted(resp.StatusCode) {
			return resp, nil
		}
		apiErr := decodeError(resp)
		lastErr = apiErr
		// 5xx from an idempotent call is worth another try; anything
		// 4xx is the caller's bug or state and retrying cannot help.
		if resp.StatusCode < 500 {
			return nil, lastErr
		}
	}
	return nil, lastErr
}

// attempt issues the HTTP request once — or, when hedging is armed
// and the call idempotent, up to twice with the first answer winning.
func (c *Client) attempt(ctx context.Context, req request) (*http.Response, error) {
	if c.opts.HedgeDelay <= 0 || !req.idempotent {
		return c.issue(ctx, req)
	}
	type result struct {
		resp   *http.Response
		err    error
		cancel context.CancelFunc
	}
	results := make(chan result, 2)
	launch := func() {
		actx, cancel := context.WithCancel(ctx)
		go func() {
			resp, err := c.issue(actx, req)
			results <- result{resp, err, cancel}
		}()
	}
	launch()
	launched, received := 1, 0
	timer := time.NewTimer(c.opts.HedgeDelay)
	defer timer.Stop()
	var last result
	for received < launched {
		select {
		case <-timer.C:
			if launched < 2 {
				launch()
				launched++
			}
		case r := <-results:
			received++
			last = r
			ok := r.err == nil && (r.resp.StatusCode < 500 || req.accepted(r.resp.StatusCode))
			if ok || received == launched {
				// Winner (or everyone failed): abandon the other
				// attempt, if any, once it reports in.
				if launched > received {
					go func() {
						straggler := <-results
						if straggler.resp != nil {
							drainClose(straggler.resp.Body)
						}
						straggler.cancel()
					}()
				}
				// The winner's body is still live: release its context
				// only after the body is closed (bodyCloser).
				if r.resp != nil {
					r.resp.Body = bodyCloser{r.resp.Body, r.cancel}
				} else {
					r.cancel()
				}
				return r.resp, r.err
			}
			// Failed early: free its context, keep waiting for the
			// hedge (arming it immediately if not yet launched).
			if r.resp != nil {
				drainClose(r.resp.Body)
			}
			r.cancel()
			if launched < 2 {
				launch()
				launched++
			}
		case <-ctx.Done():
			// Abandon in-flight attempts; their contexts are children
			// of ctx and die with it.
			go func(n int) {
				for i := 0; i < n; i++ {
					r := <-results
					if r.resp != nil {
						drainClose(r.resp.Body)
					}
					r.cancel()
				}
			}(launched - received)
			return nil, ctx.Err()
		}
	}
	return last.resp, last.err
}

// bodyCloser runs a cleanup after the response body is closed.
type bodyCloser struct {
	io.ReadCloser
	done func()
}

func (b bodyCloser) Close() error {
	err := b.ReadCloser.Close()
	if b.done != nil {
		b.done()
	}
	return err
}

// issue performs exactly one HTTP exchange.
func (c *Client) issue(ctx context.Context, req request) (*http.Response, error) {
	u := c.base + req.path
	if len(req.query) > 0 {
		u += "?" + req.query.Encode()
	}
	var body io.Reader
	ctype := ""
	if req.body != nil {
		var err error
		if body, ctype, err = req.body(); err != nil {
			return nil, err
		}
	}
	hr, err := http.NewRequestWithContext(ctx, req.method, u, body)
	if err != nil {
		return nil, err
	}
	if ctype != "" {
		hr.Header.Set("Content-Type", ctype)
	}
	hr.Header.Set("User-Agent", c.opts.UserAgent)
	if id, _ := ctx.Value(requestIDKey{}).(string); id != "" {
		hr.Header.Set(RequestIDHeader, id)
	}
	start := time.Now()
	resp, err := c.hc.Do(hr)
	if ob := c.opts.Observe; ob != nil {
		status := 0
		if err == nil {
			status = resp.StatusCode
		}
		route := req.route
		if route == "" {
			route = req.path
		}
		ob(route, time.Since(start), status)
	}
	return resp, err
}

// drainClose discards a bounded amount of the body and closes it, so
// the underlying connection can be reused.
func drainClose(rc io.ReadCloser) {
	if rc == nil {
		return
	}
	_, _ = io.CopyN(io.Discard, rc, maxDrainBodyBytes)
	_ = rc.Close()
}

// imageParts returns a multipart body factory with the single images
// under their field names and the repeated images all under field,
// encoded as canonical RLEB parts. The encode happens once; retries
// and hedges reuse the bytes.
func imageParts(single map[string]*rle.Image, field string, repeated []*rle.Image) (func() (io.Reader, string, error), error) {
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	write := func(name, file string, img *rle.Image) error {
		fw, err := mw.CreateFormFile(name, file)
		if err != nil {
			return err
		}
		if err := imageio.Write(fw, "rleb", img); err != nil {
			return fmt.Errorf("apiclient: encoding %s: %w", file, err)
		}
		return nil
	}
	for name, img := range single {
		if err := write(name, name+".rleb", img); err != nil {
			return nil, err
		}
	}
	for i, img := range repeated {
		if err := write(field, fmt.Sprintf("%s-%d.rleb", field, i), img); err != nil {
			return nil, err
		}
	}
	if err := mw.Close(); err != nil {
		return nil, err
	}
	ctype := mw.FormDataContentType()
	raw := buf.Bytes()
	return func() (io.Reader, string, error) {
		return bytes.NewReader(raw), ctype, nil
	}, nil
}
