package apiclient

// The typed v1 calls. Each method shapes one endpoint's request,
// decodes its documented response, and classifies the call for the
// retry/hedge machinery: reads and the pure compute endpoints are
// idempotent, mutations are not.

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
	"sysrle/internal/imageio"
	"sysrle/internal/rle"
)

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
	if req.RefID != "" {
		q.Set("ref", req.RefID)
	} else {
		images["a"] = req.A
	}
	body, err := imagePart(images, nil)
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

// Defect mirrors the server's defect report entries (inspect.Defect's
// JSON rendering). Shape stays raw: clients that care about moment
// descriptors decode it themselves.
type Defect struct {
	Kind           string
	Type           string
	X0, Y0, X1, Y1 int
	Area           int
	Shape          json.RawMessage
}

// InspectReport is the JSON body of POST /v1/inspect.
type InspectReport struct {
	Engine           string   `json:"engine"`
	RowsCompared     int      `json:"rows_compared"`
	RowsDiffering    int      `json:"rows_differing"`
	DiffPixels       int      `json:"diff_pixels"`
	DiffRuns         int      `json:"diff_runs"`
	TotalIterations  int      `json:"iterations_total"`
	MaxRowIterations int      `json:"iterations_max_row"`
	Clean            bool     `json:"clean"`
	AlignDX          int      `json:"align_dx"`
	AlignDY          int      `json:"align_dy"`
	Defects          []Defect `json:"defects"`
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
	setIfNonZero(q, "engine", req.Engine)
	if req.MinDefectArea > 0 {
		q.Set("min-area", strconv.Itoa(req.MinDefectArea))
	}
	if req.MaxAlignShift > 0 {
		q.Set("align", strconv.Itoa(req.MaxAlignShift))
	}
	images := map[string]*rle.Image{"scan": req.Scan}
	if req.RefID != "" {
		q.Set("ref", req.RefID)
	} else {
		images["ref"] = req.Ref
	}
	body, err := imagePart(images, nil)
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
	if req.MaxShift > 0 {
		q.Set("max-shift", strconv.Itoa(req.MaxShift))
	}
	images := map[string]*rle.Image{"scan": req.Scan}
	if req.RefID != "" {
		q.Set("ref", req.RefID)
	} else {
		images["ref"] = req.Ref
	}
	body, err := imagePart(images, nil)
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
// tuning fields default from the page size on the server.
type DocCleanRequest struct {
	Image          *rle.Image
	MaxSpeckleArea int
	MinLineLen     int
	CloseGapX      int
	CloseGapY      int
	MinBlockArea   int
	KeepLines      bool
}

// DocCleanBlock is one segmented text block.
type DocCleanBlock struct {
	X0   int `json:"x0"`
	Y0   int `json:"y0"`
	X1   int `json:"x1"`
	Y1   int `json:"y1"`
	Area int `json:"area"`
}

// DocCleanReport is the JSON body of POST /v1/docclean.
type DocCleanReport struct {
	SpecklesRemoved int             `json:"speckles_removed"`
	LinesH          int             `json:"lines_h"`
	LinesV          int             `json:"lines_v"`
	Blocks          []DocCleanBlock `json:"blocks"`
	InputArea       int             `json:"input_area"`
	OutputArea      int             `json:"output_area"`
}

// DocClean runs the document-cleanup pipeline on one page and returns
// the JSON report.
func (c *Client) DocClean(ctx context.Context, req DocCleanRequest) (*DocCleanReport, error) {
	q := url.Values{}
	for _, p := range []struct {
		name string
		v    int
	}{
		{"max-speckle", req.MaxSpeckleArea},
		{"min-line", req.MinLineLen},
		{"close-x", req.CloseGapX},
		{"close-y", req.CloseGapY},
		{"min-block", req.MinBlockArea},
	} {
		if p.v > 0 {
			q.Set(p.name, strconv.Itoa(p.v))
		}
	}
	if req.KeepLines {
		q.Set("keep-lines", "1")
	}
	body, err := imagePart(map[string]*rle.Image{"image": req.Image}, nil)
	if err != nil {
		return nil, err
	}
	var rep DocCleanReport
	if err := c.doJSON(ctx, request{
		method: http.MethodPost, path: "/v1/docclean", route: "/v1/docclean",
		query: q, body: body, idempotent: true,
	}, &rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

// RefMeta mirrors the reference registry's metadata JSON.
type RefMeta struct {
	ID           string    `json:"id"`
	Width        int       `json:"width"`
	Height       int       `json:"height"`
	Runs         int       `json:"runs"`
	Area         int       `json:"area"`
	EncodedBytes int       `json:"encoded_bytes"`
	DecodedBytes int64     `json:"decoded_bytes"`
	Created      time.Time `json:"created"`
}

// PutReference registers an image in the content-addressed registry.
// Registration is idempotent by content, so it is safe to retry — but
// kept non-retrying here so one flaky POST never doubles the
// write-through-disk cost silently; callers wanting retries loop.
func (c *Client) PutReference(ctx context.Context, img *rle.Image) (*RefMeta, error) {
	body, err := imagePart(map[string]*rle.Image{"image": img}, nil)
	if err != nil {
		return nil, err
	}
	var meta RefMeta
	if err := c.doJSON(ctx, request{
		method: http.MethodPost, path: "/v1/references", route: "/v1/references",
		body: body, accept: []int{http.StatusCreated},
	}, &meta); err != nil {
		return nil, err
	}
	return &meta, nil
}

// ListReferences returns the registered references.
func (c *Client) ListReferences(ctx context.Context) ([]RefMeta, error) {
	var out struct {
		References []RefMeta `json:"references"`
	}
	if err := c.doJSON(ctx, request{
		method: http.MethodGet, path: "/v1/references", route: "/v1/references",
		idempotent: true,
	}, &out); err != nil {
		return nil, err
	}
	return out.References, nil
}

// GetReference returns one reference's metadata.
func (c *Client) GetReference(ctx context.Context, id string) (*RefMeta, error) {
	var meta RefMeta
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
	// DocClean tunes docclean jobs (Image field ignored).
	DocClean DocCleanRequest
}

// JobScanResult is one scan's outcome inside a job snapshot.
type JobScanResult struct {
	Index           int    `json:"index"`
	Clean           bool   `json:"clean"`
	Defects         int    `json:"defects"`
	DiffPixels      int    `json:"diff_pixels"`
	DiffRuns        int    `json:"diff_runs"`
	Iterations      int    `json:"iterations"`
	Error           string `json:"error,omitempty"`
	Attempts        int    `json:"attempts,omitempty"`
	Quarantined     bool   `json:"quarantined,omitempty"`
	AuditID         string `json:"audit_id,omitempty"`
	SpecklesRemoved int    `json:"speckles_removed,omitempty"`
	LinesH          int    `json:"lines_h,omitempty"`
	LinesV          int    `json:"lines_v,omitempty"`
	Blocks          int    `json:"blocks,omitempty"`
	OutputArea      int    `json:"output_area,omitempty"`
}

// JobStatus is a job snapshot.
type JobStatus struct {
	ID         string          `json:"id"`
	State      string          `json:"state"`
	Type       string          `json:"type"`
	RefID      string          `json:"ref_id,omitempty"`
	Engine     string          `json:"engine,omitempty"`
	ScansTotal int             `json:"scans_total"`
	ScansDone  int             `json:"scans_done"`
	Created    time.Time       `json:"created"`
	Started    *time.Time      `json:"started,omitempty"`
	Finished   *time.Time      `json:"finished,omitempty"`
	Error      string          `json:"error,omitempty"`
	Results    []JobScanResult `json:"results,omitempty"`
}

// Terminal reports whether the job has reached a final state.
func (s *JobStatus) Terminal() bool {
	switch s.State {
	case "done", "failed", "canceled":
		return true
	}
	return false
}

// SubmitJob submits a batch job. Submission is not idempotent (each
// acknowledged POST is a new job), so it never retries implicitly;
// 429 means the queue could not take every scan and the caller
// decides whether to back off and resubmit.
func (c *Client) SubmitJob(ctx context.Context, req JobRequest) (*JobStatus, error) {
	q := url.Values{}
	setIfNonZero(q, "type", req.Type)
	single := map[string]*rle.Image{}
	switch req.Type {
	case "docclean":
		d := req.DocClean
		for _, p := range []struct {
			name string
			v    int
		}{
			{"max-speckle", d.MaxSpeckleArea},
			{"min-line", d.MinLineLen},
			{"close-x", d.CloseGapX},
			{"close-y", d.CloseGapY},
			{"min-block", d.MinBlockArea},
		} {
			if p.v > 0 {
				q.Set(p.name, strconv.Itoa(p.v))
			}
		}
		if d.KeepLines {
			q.Set("keep-lines", "1")
		}
	default:
		setIfNonZero(q, "engine", req.Engine)
		if req.MinDefectArea > 0 {
			q.Set("min-area", strconv.Itoa(req.MinDefectArea))
		}
		if req.MaxAlignShift > 0 {
			q.Set("align", strconv.Itoa(req.MaxAlignShift))
		}
		if req.RefID != "" {
			q.Set("ref", req.RefID)
		} else if req.Ref != nil {
			single["ref"] = req.Ref
		}
	}
	body, err := multiImagePart("scan", req.Scans, single, nil)
	if err != nil {
		return nil, err
	}
	var st JobStatus
	if err := c.doJSON(ctx, request{
		method: http.MethodPost, path: "/v1/jobs", route: "/v1/jobs",
		query: q, body: body, accept: []int{http.StatusAccepted},
	}, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// GetJob returns one job's snapshot.
func (c *Client) GetJob(ctx context.Context, id string) (*JobStatus, error) {
	var st JobStatus
	if err := c.doJSON(ctx, request{
		method: http.MethodGet, path: "/v1/jobs/" + url.PathEscape(id),
		route: "/v1/jobs/{id}", idempotent: true,
	}, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// ListJobs returns the retained job snapshots.
func (c *Client) ListJobs(ctx context.Context) ([]JobStatus, error) {
	var out struct {
		Jobs []JobStatus `json:"jobs"`
	}
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
func (c *Client) WaitJob(ctx context.Context, id string, poll time.Duration) (*JobStatus, error) {
	if poll <= 0 {
		poll = 50 * time.Millisecond
	}
	for {
		st, err := c.GetJob(ctx, id)
		if err != nil {
			return nil, err
		}
		if st.Terminal() {
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
	ChainHead string          `json:"chain_head"`
	Pending   int             `json:"pending"`
	Batches   json.RawMessage `json:"batches"`
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
	resp, err := c.do(ctx, request{
		method: http.MethodGet, path: "/readyz", route: "/readyz",
		idempotent: true,
		accept:     []int{http.StatusOK, http.StatusServiceUnavailable},
	})
	if err != nil {
		return nil, err
	}
	defer drainClose(resp.Body)
	var st ReadyStatus
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxErrorBodyBytes)).Decode(&st); err != nil {
		return nil, fmt.Errorf("apiclient: readyz response: %w", err)
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
