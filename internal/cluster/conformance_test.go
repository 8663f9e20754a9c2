package cluster

// The behavioural contract across deployment shapes: one table of /v1
// requests runs against a single node, a 1-shard coordinator and a
// 3-shard Replicas-2 coordinator, and every shape must answer alike.
// A 2xx answer must match the single node's status, X-Sysrle-* headers
// and body bytes (after blanking the JSON fields that name per-process
// state: timestamps, job ids and job progress). An error must match
// its status and envelope code. In every answer that carries an error
// envelope, its request_id must equal the X-Request-Id header.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"sysrle/internal/imageio"
	"sysrle/internal/refstore"
	"sysrle/internal/rle"
	"sysrle/internal/server"
)

// part is one multipart form field: a file when name is set, a plain
// value otherwise.
type part struct {
	field, name string
	data        []byte
}

func filePart(t *testing.T, field string, img *rle.Image) part {
	t.Helper()
	var buf bytes.Buffer
	if err := imageio.Write(&buf, "rleb", img); err != nil {
		t.Fatal(err)
	}
	return part{field, field + ".rleb", buf.Bytes()}
}

// corruptRow is img as an RLEB "b" part whose row y claims a run
// starting past the right edge; every other row is well formed.
func corruptRow(img *rle.Image, y int) part {
	data := rle.AppendBinaryHeader(nil, img.Width, img.Height)
	for i, row := range img.Rows {
		if i == y {
			row = rle.Row{{Start: img.Width, Length: 1}}
		}
		data = rle.AppendBinaryRow(data, row)
	}
	return part{"b", "b.rleb", data}
}

// hysteresisPair is a tall pair whose default-planner stats hold only
// when one planner routes every row in order. Rows 0–48 are empty. Row
// 49 is dense: its merge/packed price ratio (~1.31) clears the 25%
// hysteresis and switches the planner to the packed path. Rows 50–149
// sit in the hysteresis zone (ratio ~0.93), so they stay packed only
// for a planner that has seen row 49. A diff that restarts the
// planner at row 50 routes them to the merge and reports other
// iteration counts for the same body bytes.
func hysteresisPair() (a, b *rle.Image) {
	const width, height = 2048, 150
	a, b = rle.NewImage(width, height), rle.NewImage(width, height)
	spread := func(runs, offset int) rle.Row {
		pitch := width / runs
		row := make(rle.Row, runs)
		for i := range row {
			row[i] = rle.Run{Start: i*pitch + offset, Length: pitch / 2}
		}
		return row
	}
	a.Rows[49], b.Rows[49] = spread(512, 0), spread(512, 1)
	for y := 50; y < height; y++ {
		a.Rows[y], b.Rows[y] = spread(100, 0), spread(100, 1)
	}
	return a, b
}

func multipartBody(t *testing.T, parts []part) ([]byte, string) {
	t.Helper()
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	for _, p := range parts {
		var w io.Writer
		var err error
		if p.name != "" {
			w, err = mw.CreateFormFile(p.field, p.name)
		} else {
			w, err = mw.CreateFormField(p.field)
		}
		if err != nil {
			t.Fatal(err)
		}
		w.Write(p.data)
	}
	mw.Close()
	return buf.Bytes(), mw.FormDataContentType()
}

// answer is one raw HTTP exchange's outcome.
type answer struct {
	status int
	header http.Header
	body   []byte
}

// call sends one request; parts nil means no body, rid "" lets the
// server assign the request id.
func call(t *testing.T, method, url, rid string, parts []part) answer {
	t.Helper()
	var body io.Reader
	ctype := ""
	if parts != nil {
		raw, ct := multipartBody(t, parts)
		body, ctype = bytes.NewReader(raw), ct
	}
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	if rid != "" {
		req.Header.Set("X-Request-Id", rid)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return answer{resp.StatusCode, resp.Header, raw}
}

// envelope decodes a /v1 error envelope; ok is false when the body is
// not one.
func envelope(body []byte) (code, rid string, ok bool) {
	var env struct {
		Error *struct {
			Code      string `json:"code"`
			RequestID string `json:"request_id"`
		} `json:"error"`
	}
	if json.Unmarshal(body, &env) != nil || env.Error == nil {
		return "", "", false
	}
	return env.Error.Code, env.Error.RequestID, true
}

// sysrleHeaders collects the X-Sysrle-* headers.
func sysrleHeaders(h http.Header) map[string]string {
	out := map[string]string{}
	for k := range h {
		if strings.HasPrefix(k, "X-Sysrle-") {
			out[k] = h.Get(k)
		}
	}
	return out
}

// normalize blanks the named top-level keys of a JSON object body.
func normalize(t *testing.T, body []byte, volatile []string) []byte {
	t.Helper()
	if len(volatile) == 0 {
		return body
	}
	var obj map[string]any
	if err := json.Unmarshal(body, &obj); err != nil {
		t.Fatalf("decoding %s: %v", body, err)
	}
	for _, k := range volatile {
		delete(obj, k)
	}
	out, _ := json.Marshal(obj)
	return out
}

// jobVolatile are the job snapshot fields that name the shard or
// depend on when the scan ran.
var jobVolatile = []string{"id", "state", "created", "started", "finished", "scans_done", "results", "error"}

type confRow struct {
	name   string
	method string
	path   string // {ref} and {job} expand per deployment
	parts  []part
	status int
	code   string // envelope code of an error row
	// volatile lists JSON fields blanked before bodies are compared.
	volatile []string
	// captureJob records the answer's "id" as {job}.
	captureJob bool
}

type deployment struct {
	name string
	url  string
	job  string
}

func TestConformanceAcrossDeployments(t *testing.T) {
	const maxUpload = 256 << 10
	shardCfg := server.Config{MaxUploadBytes: maxUpload, JobQueueDepth: 2}
	startShard := func() string {
		srv := server.NewWith(shardCfg)
		ts := httptest.NewServer(srv)
		t.Cleanup(func() { ts.Close(); srv.Close() })
		return ts.URL
	}
	single := startShard()
	_, oneShard := startCoordinator(t, Config{Peers: []string{startShard()}, MaxUploadBytes: maxUpload, Seed: 1})
	_, threeShard := startCoordinator(t, Config{
		Peers:          []string{startShard(), startShard(), startShard()},
		Replicas:       2,
		MaxUploadBytes: maxUpload,
		Seed:           1,
	})
	deps := []*deployment{{name: "single", url: single}, {name: "1-shard", url: oneShard}, {name: "3-shard", url: threeShard}}

	ref := genImage(t, 1, 96, 64)
	scan := genImage(t, 2, 96, 64)
	tallA := genImage(t, 3, 96, 150)
	tallB := genImage(t, 4, 96, 150)
	zoneA, zoneB := hysteresisPair()
	refID, err := refstore.ContentID(ref)
	if err != nil {
		t.Fatal(err)
	}
	R, S := filePart(t, "image", ref), filePart(t, "image", scan)
	as := func(p part, field string) part { return part{field, field + ".rleb", p.data} }
	garbage := func(field string) part { return part{field, field + ".bin", []byte("not an image")} }
	oversize := func(field string) part { return part{field, field + ".bin", make([]byte, maxUpload+1)} }
	tallAp, tallBp := filePart(t, "a", tallA), filePart(t, "b", tallB)
	zoneAp, zoneBp := filePart(t, "a", zoneA), filePart(t, "b", zoneB)
	var pbm bytes.Buffer
	if err := imageio.Write(&pbm, "pbm", scan); err != nil {
		t.Fatal(err)
	}
	scanPBM := part{"b", "b.pbm", pbm.Bytes()}
	corruptScan, corruptTall := corruptRow(scan, 32), corruptRow(tallB, 75)

	rows := []confRow{
		{name: "put reference", method: "POST", path: "/v1/references", parts: []part{R},
			status: 201, volatile: []string{"created"}},
		{name: "get reference", method: "GET", path: "/v1/references/{ref}",
			status: 200, volatile: []string{"created"}},
		{name: "reference content", method: "GET", path: "/v1/references/{ref}/content", status: 200},
		{name: "inline diff", method: "POST", path: "/v1/diff?format=rleb",
			parts: []part{as(R, "a"), as(S, "b")}, status: 200},
		{name: "tall inline diff", method: "POST", path: "/v1/diff?format=pbm&engine=lockstep",
			parts: []part{tallAp, tallBp}, status: 200},
		{name: "ref diff", method: "POST", path: "/v1/diff?ref={ref}&format=rleb",
			parts: []part{as(S, "b")}, status: 200},
		{name: "ref diff, pbm upload", method: "POST", path: "/v1/diff?ref={ref}&format=rleb",
			parts: []part{scanPBM}, status: 200},
		{name: "ref diff, lockstep", method: "POST", path: "/v1/diff?ref={ref}&format=rleb&engine=lockstep",
			parts: []part{as(S, "b")}, status: 200},
		{name: "tall inline rleb diff", method: "POST", path: "/v1/diff?format=rleb",
			parts: []part{tallAp, tallBp}, status: 200},
		{name: "tall inline diff, planner hysteresis", method: "POST", path: "/v1/diff?format=rleb",
			parts: []part{zoneAp, zoneBp}, status: 200},
		{name: "inline inspect", method: "POST", path: "/v1/inspect?min-area=2",
			parts: []part{as(R, "ref"), as(S, "scan")}, status: 200},
		{name: "ref inspect", method: "POST", path: "/v1/inspect?ref={ref}",
			parts: []part{as(S, "scan")}, status: 200},
		{name: "inline align", method: "POST", path: "/v1/align",
			parts: []part{as(R, "ref"), as(S, "scan")}, status: 200},
		{name: "ref align", method: "POST", path: "/v1/align?ref={ref}&max-shift=2",
			parts: []part{as(S, "scan")}, status: 200},
		{name: "docclean report", method: "POST", path: "/v1/docclean", parts: []part{S}, status: 200},
		{name: "docclean image", method: "POST", path: "/v1/docclean?format=png", parts: []part{S}, status: 200},
		{name: "submit job", method: "POST", path: "/v1/jobs?ref={ref}", parts: []part{as(S, "scan")},
			status: 202, volatile: jobVolatile, captureJob: true},
		{name: "get job", method: "GET", path: "/v1/jobs/{job}", status: 200, volatile: jobVolatile},
		{name: "delete job", method: "DELETE", path: "/v1/jobs/{job}", status: 204},
		{name: "submit job, form ref", method: "POST", path: "/v1/jobs",
			parts: []part{{"ref", "", []byte(refID)}, as(S, "scan")}, status: 202, volatile: jobVolatile},

		{name: "unknown engine", method: "POST", path: "/v1/diff?engine=quantum",
			parts: []part{as(R, "a"), as(S, "b")}, status: 400, code: "invalid_argument"},
		{name: "unknown format", method: "POST", path: "/v1/diff?format=bogus",
			parts: []part{tallAp, tallBp}, status: 400, code: "invalid_argument"},
		{name: "missing upload", method: "POST", path: "/v1/diff", parts: []part{tallAp},
			status: 400, code: "invalid_argument"},
		{name: "undecodable upload", method: "POST", path: "/v1/diff", parts: []part{tallAp, garbage("b")},
			status: 400, code: "invalid_argument"},
		{name: "ref diff, corrupt middle row", method: "POST", path: "/v1/diff?ref={ref}&format=rleb",
			parts: []part{corruptScan}, status: 400, code: "invalid_argument"},
		{name: "inline diff, corrupt middle row", method: "POST", path: "/v1/diff?format=rleb",
			parts: []part{as(R, "a"), corruptScan}, status: 400, code: "invalid_argument"},
		{name: "size mismatch, corrupt upload", method: "POST", path: "/v1/diff?format=rleb",
			parts: []part{as(R, "a"), corruptTall}, status: 400, code: "invalid_argument"},
		{name: "inspect without scan", method: "POST", path: "/v1/inspect", parts: []part{as(R, "ref")},
			status: 400, code: "invalid_argument"},
		{name: "unknown job type", method: "POST", path: "/v1/jobs?type=bogus", parts: []part{as(S, "scan")},
			status: 400, code: "invalid_argument"},
		{name: "undecodable reference", method: "POST", path: "/v1/references", parts: []part{garbage("image")},
			status: 400, code: "invalid_argument"},
		{name: "unknown ref, undecodable upload", method: "POST", path: "/v1/diff?ref=0000beef",
			parts: []part{garbage("b")}, status: 404, code: "not_found"},
		{name: "unknown reference", method: "GET", path: "/v1/references/0000beef", status: 404, code: "not_found"},
		{name: "unknown job", method: "GET", path: "/v1/jobs/nope", status: 404, code: "not_found"},
		{name: "delete unknown job", method: "DELETE", path: "/v1/jobs/nope", status: 404, code: "not_found"},
		// Go's ServeMux answers 405 in plain text on shard and
		// coordinator alike: there is no envelope to compare.
		{name: "wrong method", method: "GET", path: "/v1/diff", status: 405},
		{name: "oversize diff", method: "POST", path: "/v1/diff", parts: []part{oversize("a"), as(S, "b")},
			status: 413, code: "payload_too_large"},
		{name: "oversize reference", method: "POST", path: "/v1/references", parts: []part{oversize("image")},
			status: 413, code: "payload_too_large"},
		{name: "oversize job", method: "POST", path: "/v1/jobs?ref={ref}", parts: []part{oversize("scan")},
			status: 413, code: "payload_too_large"},
		{name: "size mismatch", method: "POST", path: "/v1/diff", parts: []part{as(R, "a"), tallBp},
			status: 422, code: "unprocessable"},
		{name: "tall size mismatch", method: "POST", path: "/v1/diff", parts: []part{tallAp, as(S, "b")},
			status: 422, code: "unprocessable"},
		{name: "align size mismatch", method: "POST", path: "/v1/align",
			parts: []part{as(R, "ref"), part{"scan", "scan.rleb", tallBp.data}}, status: 422, code: "unprocessable"},
		{name: "job queue full", method: "POST", path: "/v1/jobs?ref={ref}",
			parts: []part{as(S, "scan"), as(S, "scan"), as(S, "scan")}, status: 429, code: "resource_exhausted"},
	}

	for i, row := range rows {
		rid := ""
		if i%2 == 1 {
			rid = fmt.Sprintf("conf-%d", i)
		}
		var base answer
		for _, d := range deps {
			path := strings.NewReplacer("{ref}", refID, "{job}", d.job).Replace(row.path)
			got := call(t, row.method, d.url+path, rid, row.parts)
			where := fmt.Sprintf("%s on %s", row.name, d.name)
			if got.status != row.status {
				t.Errorf("%s: status %d, want %d; body %s", where, got.status, row.status, got.body)
				continue
			}
			if rid != "" && got.header.Get("X-Request-Id") != rid {
				t.Errorf("%s: X-Request-Id %q, want %q", where, got.header.Get("X-Request-Id"), rid)
			}
			code, envRID, isEnv := envelope(got.body)
			if isEnv && envRID != got.header.Get("X-Request-Id") {
				t.Errorf("%s: envelope request_id %q, X-Request-Id %q", where, envRID, got.header.Get("X-Request-Id"))
			}
			if row.code != "" && (!isEnv || code != row.code) {
				t.Errorf("%s: envelope code %q (envelope %v), want %q; body %s", where, code, isEnv, row.code, got.body)
			}
			if row.captureJob {
				var st struct {
					ID string `json:"id"`
				}
				json.Unmarshal(got.body, &st)
				d.job = st.ID
			}
			if d.name == "single" {
				base = got
				continue
			}
			if ra, want := got.header.Get("Retry-After"), base.header.Get("Retry-After"); ra != want {
				t.Errorf("%s: Retry-After %q, single node %q", where, ra, want)
			}
			if row.status >= 300 {
				continue
			}
			if g, w := sysrleHeaders(got.header), sysrleHeaders(base.header); fmt.Sprint(g) != fmt.Sprint(w) {
				t.Errorf("%s: X-Sysrle headers %v, single node %v", where, g, w)
			}
			if g, w := normalize(t, got.body, row.volatile), normalize(t, base.body, row.volatile); !bytes.Equal(g, w) {
				t.Errorf("%s: body differs from the single node's (%d vs %d bytes)\n got %.300s\nwant %.300s",
					where, len(g), len(w), g, w)
			}
		}
	}
}
