package apiclient

// The typed v1 calls and the v1 wire contract. Each method shapes one
// endpoint's request, decodes its response, and classifies the call
// for the retry/hedge machinery: reads and the pure compute endpoints
// are idempotent, mutations are not. Every JSON body is one Go type,
// encoded by the shard, merged by the coordinator and decoded here:
// refstore.Meta, jobs.Status and docclean.Result from the packages
// that own them, the rest defined below.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"sysrle"
	"sysrle/internal/auditlog"
	"sysrle/internal/docclean"
	"sysrle/internal/imageio"
	"sysrle/internal/inspect"
	"sysrle/internal/jobs"
	"sysrle/internal/refstore"
	"sysrle/internal/rle"
)

// WriteJSON answers with v as an indented JSON body. Shard and
// coordinator write every JSON answer through it.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// DiffRequest shapes POST /v1/diff. Exactly one of A and RefID must
// be set; B is always required.
type DiffRequest struct {
	// A is the first image, uploaded inline.
	A *rle.Image
	// RefID substitutes a registered reference for A.
	RefID string
	// B is the second image.
	B *rle.Image
	// Engine selects the row-difference engine by registry name;
	// empty means the server default.
	Engine string
}

// DiffResult is the decoded response: the difference image plus the
// engine statistics from the X-Sysrle-* headers. Stats counts the work
// of the engine that ran (Engine). For the systolic engines an
// iteration is a systolic iteration and cells are array cells. For
// the default planner an iteration is a merge step on a row routed to
// the RLE merge plus a 64-pixel word on a row routed to the packed
// XOR, and cells are 0. Request Engine "lockstep" for the paper's
// iteration counts.
type DiffResult struct {
	Image      *rle.Image
	Stats      sysrle.ImageStats
	Engine     string
	DiffPixels int
}

// Diff computes the compressed-domain difference of two images.
func (c *Client) Diff(ctx context.Context, req DiffRequest) (*DiffResult, error) {
	q := url.Values{"format": {"rleb"}}
	setIfNonZero(q, "engine", req.Engine)
	images := map[string]*rle.Image{"b": req.B}
	refOrUpload(q, images, "a", req.RefID, req.A)
	body, err := imageParts(images, "", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.do(ctx, request{
		method: http.MethodPost, path: "/v1/diff", route: "/v1/diff",
		query: q, body: body, idempotent: true,
	})
	if err != nil {
		return nil, err
	}
	defer drainClose(resp.Body)
	img, err := imageio.Read(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("apiclient: diff response: %w", err)
	}
	res := &DiffResult{
		Image:  img,
		Engine: resp.Header.Get("X-Sysrle-Engine"),
	}
	res.Stats.RowsDiffering = headerInt(resp, "X-Sysrle-Rows-Differing")
	res.Stats.TotalIterations = headerInt(resp, "X-Sysrle-Iterations-Total")
	res.Stats.MaxRowIterations = headerInt(resp, "X-Sysrle-Iterations-Max-Row")
	res.Stats.TotalCells = headerInt(resp, "X-Sysrle-Cells-Total")
	res.Stats.MaxRowCells = headerInt(resp, "X-Sysrle-Cells-Max-Row")
	res.Stats.FaultsRecovered = headerInt(resp, "X-Sysrle-Faults-Recovered")
	res.DiffPixels = headerInt(resp, "X-Sysrle-Diff-Pixels")
	return res, nil
}

// SetDiffHeaders sets the headers of a /v1/diff answer whose
// difference has diffPixels foreground pixels: the Content-Type of
// format and the engine statistics in X-Sysrle-* headers, which Diff
// parses back. It is the one writer of those headers; the shard's
// /v1/diff answers set them through it in every format.
func SetDiffHeaders(h http.Header, format string, stats sysrle.ImageStats, engine string, diffPixels int) {
	h.Set("Content-Type", imageio.ContentType(format))
	h.Set("X-Sysrle-Engine", engine)
	h.Set("X-Sysrle-Rows-Differing", strconv.Itoa(stats.RowsDiffering))
	h.Set("X-Sysrle-Iterations-Total", strconv.Itoa(stats.TotalIterations))
	h.Set("X-Sysrle-Iterations-Max-Row", strconv.Itoa(stats.MaxRowIterations))
	h.Set("X-Sysrle-Cells-Total", strconv.Itoa(stats.TotalCells))
	h.Set("X-Sysrle-Cells-Max-Row", strconv.Itoa(stats.MaxRowCells))
	if stats.FaultsRecovered > 0 {
		h.Set("X-Sysrle-Faults-Recovered", strconv.Itoa(stats.FaultsRecovered))
	}
	h.Set("X-Sysrle-Diff-Pixels", strconv.Itoa(diffPixels))
}

// InspectReport is the JSON body of POST /v1/inspect.
type InspectReport struct {
	Engine           string `json:"engine"`
	RowsCompared     int    `json:"rows_compared"`
	RowsDiffering    int    `json:"rows_differing"`
	DiffPixels       int    `json:"diff_pixels"`
	DiffRuns         int    `json:"diff_runs"`
	TotalIterations  int    `json:"iterations_total"`
	MaxRowIterations int    `json:"iterations_max_row"`
	Clean            bool   `json:"clean"`
	AlignDX          int    `json:"align_dx"`
	AlignDY          int    `json:"align_dy"`
	// Defects is never null on the wire: a clean scan has [].
	Defects []inspect.Defect `json:"defects"`
}

// InspectRequest shapes POST /v1/inspect. Exactly one of Ref and
// RefID must be set.
type InspectRequest struct {
	Ref           *rle.Image
	RefID         string
	Scan          *rle.Image
	Engine        string
	MinDefectArea int
	MaxAlignShift int
}

// Inspect runs the full reference-vs-scan defect inspection.
func (c *Client) Inspect(ctx context.Context, req InspectRequest) (*InspectReport, error) {
	q := url.Values{}
	setInspectQuery(q, req.Engine, req.MinDefectArea, req.MaxAlignShift)
	images := map[string]*rle.Image{"scan": req.Scan}
	refOrUpload(q, images, "ref", req.RefID, req.Ref)
	body, err := imageParts(images, "", nil)
	if err != nil {
		return nil, err
	}
	var rep InspectReport
	if err := c.doJSON(ctx, request{
		method: http.MethodPost, path: "/v1/inspect", route: "/v1/inspect",
		query: q, body: body, idempotent: true,
	}, &rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

// AlignResult is the JSON body of POST /v1/align.
type AlignResult struct {
	DX           int `json:"dx"`
	DY           int `json:"dy"`
	ResidualArea int `json:"residual_area"`
}

// AlignRequest shapes POST /v1/align. Exactly one of Ref and RefID
// must be set; MaxShift 0 means the server default.
type AlignRequest struct {
	Ref      *rle.Image
	RefID    string
	Scan     *rle.Image
	MaxShift int
}

// Align estimates the registration offset between two images.
func (c *Client) Align(ctx context.Context, req AlignRequest) (*AlignResult, error) {
	q := url.Values{}
	setPositive(q, "max-shift", req.MaxShift)
	images := map[string]*rle.Image{"scan": req.Scan}
	refOrUpload(q, images, "ref", req.RefID, req.Ref)
	body, err := imageParts(images, "", nil)
	if err != nil {
		return nil, err
	}
	var res AlignResult
	if err := c.doJSON(ctx, request{
		method: http.MethodPost, path: "/v1/align", route: "/v1/align",
		query: q, body: body, idempotent: true,
	}, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// DocCleanRequest shapes POST /v1/docclean (JSON-report mode). Zero
// Config fields default from the page size on the server.
type DocCleanRequest struct {
	Image  *rle.Image
	Config docclean.Config
}

// DocClean runs the document-cleanup pipeline on one page and returns
// the JSON report (Result.Cleaned stays nil).
func (c *Client) DocClean(ctx context.Context, req DocCleanRequest) (*docclean.Result, error) {
	q := url.Values{}
	setDocCleanQuery(q, req.Config)
	body, err := imageParts(map[string]*rle.Image{"image": req.Image}, "", nil)
	if err != nil {
		return nil, err
	}
	var rep docclean.Result
	if err := c.doJSON(ctx, request{
		method: http.MethodPost, path: "/v1/docclean", route: "/v1/docclean",
		query: q, body: body, idempotent: true,
	}, &rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

// ReferenceList is the JSON body of GET /v1/references.
type ReferenceList struct {
	References []refstore.Meta `json:"references"`
}

// PutReference registers an image in the content-addressed registry.
// Registration is idempotent by content, so it is safe to retry — but
// kept non-retrying here so one flaky POST never doubles the
// write-through-disk cost silently; callers wanting retries loop.
func (c *Client) PutReference(ctx context.Context, img *rle.Image) (*refstore.Meta, error) {
	body, err := imageParts(map[string]*rle.Image{"image": img}, "", nil)
	if err != nil {
		return nil, err
	}
	var meta refstore.Meta
	if err := c.doJSON(ctx, request{
		method: http.MethodPost, path: "/v1/references", route: "/v1/references",
		body: body, accept: []int{http.StatusCreated},
	}, &meta); err != nil {
		return nil, err
	}
	return &meta, nil
}

// ListReferences returns the registered references.
func (c *Client) ListReferences(ctx context.Context) ([]refstore.Meta, error) {
	var out ReferenceList
	if err := c.doJSON(ctx, request{
		method: http.MethodGet, path: "/v1/references", route: "/v1/references",
		idempotent: true,
	}, &out); err != nil {
		return nil, err
	}
	return out.References, nil
}

// GetReference returns one reference's metadata.
func (c *Client) GetReference(ctx context.Context, id string) (*refstore.Meta, error) {
	var meta refstore.Meta
	if err := c.doJSON(ctx, request{
		method: http.MethodGet, path: "/v1/references/" + url.PathEscape(id),
		route: "/v1/references/{id}", idempotent: true,
	}, &meta); err != nil {
		return nil, err
	}
	return &meta, nil
}

// ReferenceContent fetches one reference's image content (its
// canonical RLEB encoding, decoded) — what the cluster coordinator
// uses to move a reference between shards during rebalancing.
func (c *Client) ReferenceContent(ctx context.Context, id string) (*rle.Image, error) {
	resp, err := c.do(ctx, request{
		method: http.MethodGet, path: "/v1/references/" + url.PathEscape(id) + "/content",
		route: "/v1/references/{id}/content", idempotent: true,
	})
	if err != nil {
		return nil, err
	}
	defer drainClose(resp.Body)
	img, err := imageio.Read(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("apiclient: reference content: %w", err)
	}
	return img, nil
}

// DeleteReference unregisters a reference.
func (c *Client) DeleteReference(ctx context.Context, id string) error {
	resp, err := c.do(ctx, request{
		method: http.MethodDelete, path: "/v1/references/" + url.PathEscape(id),
		route: "/v1/references/{id}", accept: []int{http.StatusNoContent},
	})
	if err != nil {
		return err
	}
	drainClose(resp.Body)
	return nil
}

// JobRequest shapes POST /v1/jobs.
type JobRequest struct {
	// Type is "inspect" (default) or "docclean".
	Type string
	// RefID names a registered reference, Ref uploads one inline
	// (inspect jobs only; exactly one).
	RefID string
	Ref   *rle.Image
	// Scans are the batch payload.
	Scans []*rle.Image
	// Engine, MinDefectArea, MaxAlignShift tune inspect jobs.
	Engine        string
	MinDefectArea int
	MaxAlignShift int
	// DocClean tunes docclean jobs.
	DocClean docclean.Config
}

// JobList is the JSON body of GET /v1/jobs.
type JobList struct {
	Jobs []jobs.Status `json:"jobs"`
}

// SubmitJob submits a batch job. Submission is not idempotent (each
// acknowledged POST is a new job), so it never retries implicitly;
// 429 means the queue could not take every scan and the caller
// decides whether to back off and resubmit.
func (c *Client) SubmitJob(ctx context.Context, req JobRequest) (*jobs.Status, error) {
	q := url.Values{}
	setIfNonZero(q, "type", req.Type)
	single := map[string]*rle.Image{}
	switch req.Type {
	case jobs.TypeDocClean:
		setDocCleanQuery(q, req.DocClean)
	default:
		setInspectQuery(q, req.Engine, req.MinDefectArea, req.MaxAlignShift)
		if req.RefID != "" || req.Ref != nil {
			refOrUpload(q, single, "ref", req.RefID, req.Ref)
		}
	}
	body, err := imageParts(single, "scan", req.Scans)
	if err != nil {
		return nil, err
	}
	var st jobs.Status
	if err := c.doJSON(ctx, request{
		method: http.MethodPost, path: "/v1/jobs", route: "/v1/jobs",
		query: q, body: body, accept: []int{http.StatusAccepted},
	}, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// GetJob returns one job's snapshot.
func (c *Client) GetJob(ctx context.Context, id string) (*jobs.Status, error) {
	var st jobs.Status
	if err := c.doJSON(ctx, request{
		method: http.MethodGet, path: "/v1/jobs/" + url.PathEscape(id),
		route: "/v1/jobs/{id}", idempotent: true,
	}, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// ListJobs returns the retained job snapshots.
func (c *Client) ListJobs(ctx context.Context) ([]jobs.Status, error) {
	var out JobList
	if err := c.doJSON(ctx, request{
		method: http.MethodGet, path: "/v1/jobs", route: "/v1/jobs",
		idempotent: true,
	}, &out); err != nil {
		return nil, err
	}
	return out.Jobs, nil
}

// DeleteJob cancels (if running) and removes a job.
func (c *Client) DeleteJob(ctx context.Context, id string) error {
	resp, err := c.do(ctx, request{
		method: http.MethodDelete, path: "/v1/jobs/" + url.PathEscape(id),
		route: "/v1/jobs/{id}", accept: []int{http.StatusNoContent},
	})
	if err != nil {
		return err
	}
	drainClose(resp.Body)
	return nil
}

// WaitJob polls GET /v1/jobs/{id} at the given interval until the job
// reaches a terminal state or ctx expires.
func (c *Client) WaitJob(ctx context.Context, id string, poll time.Duration) (*jobs.Status, error) {
	if poll <= 0 {
		poll = 50 * time.Millisecond
	}
	for {
		st, err := c.GetJob(ctx, id)
		if err != nil {
			return nil, err
		}
		if st.State.Terminal() {
			return st, nil
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-time.After(poll):
		}
	}
}

// AuditSummary is the JSON body of GET /v1/audit.
type AuditSummary struct {
	ChainHead string               `json:"chain_head"`
	Pending   int                  `json:"pending"`
	Batches   []auditlog.BatchInfo `json:"batches"`
}

// Audit returns the audit-log summary (404 on a memory-only server).
func (c *Client) Audit(ctx context.Context) (*AuditSummary, error) {
	var out AuditSummary
	if err := c.doJSON(ctx, request{
		method: http.MethodGet, path: "/v1/audit", route: "/v1/audit",
		idempotent: true,
	}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// AuditProof returns one verdict's raw inclusion proof.
func (c *Client) AuditProof(ctx context.Context, id string) (json.RawMessage, error) {
	resp, err := c.do(ctx, request{
		method: http.MethodGet, path: "/v1/audit/" + url.PathEscape(id) + "/proof",
		route: "/v1/audit/{id}/proof", idempotent: true,
	})
	if err != nil {
		return nil, err
	}
	defer drainClose(resp.Body)
	return io.ReadAll(io.LimitReader(resp.Body, maxErrorBodyBytes))
}

// ReadyProbe is one readiness probe's result.
type ReadyProbe struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// ReadyStatus is the JSON body of GET /readyz.
type ReadyStatus struct {
	Ready  bool         `json:"ready"`
	Probes []ReadyProbe `json:"probes"`
}

// Ready returns the per-probe readiness breakdown. Unlike the other
// calls a 503 is not an error here — it is the documented "not ready"
// answer, returned with Ready == false.
func (c *Client) Ready(ctx context.Context) (*ReadyStatus, error) {
	var st ReadyStatus
	if err := c.doJSON(ctx, request{
		method: http.MethodGet, path: "/readyz", route: "/readyz",
		idempotent: true,
		accept:     []int{http.StatusOK, http.StatusServiceUnavailable},
	}, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Health checks GET /healthz.
func (c *Client) Health(ctx context.Context) error {
	resp, err := c.do(ctx, request{
		method: http.MethodGet, path: "/healthz", route: "/healthz",
		idempotent: true,
	})
	if err != nil {
		return err
	}
	drainClose(resp.Body)
	return nil
}

// Vars returns the /debug/vars telemetry snapshot: metric family →
// series key → value. Histograms decode as raw JSON.
func (c *Client) Vars(ctx context.Context) (map[string]map[string]json.RawMessage, error) {
	var out map[string]map[string]json.RawMessage
	if err := c.doJSON(ctx, request{
		method: http.MethodGet, path: "/debug/vars", route: "/debug/vars",
		idempotent: true,
	}, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// doJSON runs the request and decodes the (2xx) JSON body into v.
func (c *Client) doJSON(ctx context.Context, req request, v any) error {
	resp, err := c.do(ctx, req)
	if err != nil {
		return err
	}
	defer drainClose(resp.Body)
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("apiclient: %s %s: decoding response: %w", req.method, req.path, err)
	}
	return nil
}

func headerInt(resp *http.Response, name string) int {
	n, _ := strconv.Atoi(resp.Header.Get(name))
	return n
}

func setIfNonZero(q url.Values, key, val string) {
	if val != "" {
		q.Set(key, val)
	}
}

func setPositive(q url.Values, key string, v int) {
	if v > 0 {
		q.Set(key, strconv.Itoa(v))
	}
}

// setInspectQuery shapes the inspect parameters shared by /v1/inspect
// and inspect jobs.
func setInspectQuery(q url.Values, engine string, minDefectArea, maxAlignShift int) {
	setIfNonZero(q, "engine", engine)
	setPositive(q, "min-area", minDefectArea)
	setPositive(q, "align", maxAlignShift)
}

// setDocCleanQuery shapes the docclean parameters shared by
// /v1/docclean and docclean jobs.
func setDocCleanQuery(q url.Values, cfg docclean.Config) {
	setPositive(q, "max-speckle", cfg.MaxSpeckleArea)
	setPositive(q, "min-line", cfg.MinLineLen)
	setPositive(q, "close-x", cfg.CloseGapX)
	setPositive(q, "close-y", cfg.CloseGapY)
	setPositive(q, "min-block", cfg.MinBlockArea)
	if cfg.KeepLines {
		q.Set("keep-lines", "1")
	}
}

// refOrUpload names the registered reference refID in q, or, without
// one, uploads img as the form file field.
func refOrUpload(q url.Values, images map[string]*rle.Image, field, refID string, img *rle.Image) {
	if refID != "" {
		q.Set("ref", refID)
	} else {
		images[field] = img
	}
}
