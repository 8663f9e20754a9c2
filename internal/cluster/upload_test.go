package cluster

import (
	"bytes"
	"encoding/json"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"sysrle/internal/bitmap"
	"sysrle/internal/jobs"
	"sysrle/internal/refstore"
	"sysrle/internal/server"
)

// TestUploadReaderOnShardAndCoordinator runs the upload rules of the
// one /v1 multipart reader against a single node and a 3-shard
// coordinator, which reads the same bodies to place references and to
// follow a job's "ref" form value: 413 over the limit, 400 for a body
// that is not a well-formed multipart form or lacks a file, the first
// of duplicate file parts, PBM and PNG uploads, and a job naming its
// reference in a form value with several scans.
func TestUploadReaderOnShardAndCoordinator(t *testing.T) {
	const maxUpload = 256 << 10
	startShard := func() string {
		srv := server.NewWith(server.Config{MaxUploadBytes: maxUpload})
		ts := httptest.NewServer(srv)
		t.Cleanup(func() { ts.Close(); srv.Close() })
		return ts.URL
	}
	_, coord := startCoordinator(t, Config{
		Peers:          []string{startShard(), startShard(), startShard()},
		MaxUploadBytes: maxUpload,
		Seed:           1,
	})
	ref, scan, other := genImage(t, 11, 64, 40), genImage(t, 12, 64, 40), genImage(t, 13, 64, 40)
	refID, err := refstore.ContentID(ref)
	if err != nil {
		t.Fatal(err)
	}
	var pngData bytes.Buffer
	if err := bitmap.WritePNG(&pngData, bitmap.FromRLE(ref)); err != nil {
		t.Fatal(err)
	}
	var pbm bytes.Buffer
	if err := bitmap.WritePBM(&pbm, bitmap.FromRLE(scan)); err != nil {
		t.Fatal(err)
	}
	B := filePart(t, "b", scan)
	truncated := formBody(t, filePart(t, "a", ref), B)
	truncated = truncated[:len(truncated)-20]

	for _, base := range []string{startShard(), coord} {
		where := "single node"
		if base == coord {
			where = "coordinator"
		}
		// Put the reference as PNG: the coordinator decodes it to place
		// it, and must arrive at the id the shard stores it under.
		put := call(t, "POST", base+"/v1/references", "", []part{{"image", "ref.png", pngData.Bytes()}, filePart(t, "image", other)})
		var meta refstore.Meta
		if err := json.Unmarshal(put.body, &meta); err != nil || put.status != 201 || meta.ID != refID {
			t.Fatalf("%s: put PNG reference: %d %s, want 201 with the first part's id %s", where, put.status, put.body, refID)
		}
		want := call(t, "POST", base+"/v1/diff?format=rleb&ref="+refID, "", []part{B})
		if want.status != 200 {
			t.Fatalf("%s: ref diff: %d %s", where, want.status, want.body)
		}
		for _, c := range []struct {
			name   string
			body   []byte
			ctype  string
			status int
			same   bool // the answer must equal want's
		}{
			{name: "duplicate b, first wins", status: 200, same: true,
				body: formBody(t, filePart(t, "b", scan), filePart(t, "b", other))},
			{name: "pbm upload", status: 200, same: true,
				body: formBody(t, part{"b", "b.pbm", pbm.Bytes()})},
			{name: "missing b", status: 400, body: formBody(t, filePart(t, "a", scan))},
			{name: "over the limit", status: 413,
				body: formBody(t, part{"b", "b.bin", make([]byte, maxUpload+1)})},
			{name: "truncated body", status: 400, body: truncated},
			{name: "not multipart", status: 400, body: []byte("b=1"), ctype: "application/x-www-form-urlencoded"},
		} {
			ctype := c.ctype
			if ctype == "" {
				ctype = "multipart/form-data; boundary=" + testBoundary
			}
			got := rawCall(t, base+"/v1/diff?format=rleb&ref="+refID, ctype, c.body)
			if got.status != c.status || c.same && !bytes.Equal(got.body, want.body) {
				t.Errorf("%s, %s: status %d (%d B), want %d matching the single-b answer: %.200s",
					where, c.name, got.status, len(got.body), c.status, got.body)
			}
		}
		// A job naming its reference in a form value, with three scans:
		// the coordinator must route it to the reference's owner.
		sub := call(t, "POST", base+"/v1/jobs", "", []part{
			{"ref", "", []byte(refID)}, filePart(t, "scan", scan), filePart(t, "scan", ref), filePart(t, "scan", other),
		})
		var st jobs.Status
		if err := json.Unmarshal(sub.body, &st); err != nil || sub.status != 202 {
			t.Fatalf("%s: job submit: %d %s", where, sub.status, sub.body)
		}
		st = waitDone(t, base, st.ID)
		if st.State != jobs.StateDone || len(st.Results) != 3 || !st.Results[1].Clean || st.Results[0].Clean {
			t.Errorf("%s: job %s with results %+v, want done, scan 1 clean and scan 0 not", where, st.State, st.Results)
		}
	}
}

// testBoundary is the boundary formBody writes with.
const testBoundary = "upload-test-boundary"

// formBody is multipartBody with a fixed boundary, so a body can be
// cut short and still be sent with its content type.
func formBody(t *testing.T, parts ...part) []byte {
	t.Helper()
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	if err := mw.SetBoundary(testBoundary); err != nil {
		t.Fatal(err)
	}
	for _, p := range parts {
		w, err := mw.CreateFormFile(p.field, p.name)
		if err != nil {
			t.Fatal(err)
		}
		w.Write(p.data)
	}
	mw.Close()
	return buf.Bytes()
}

func rawCall(t *testing.T, url, ctype string, body []byte) answer {
	t.Helper()
	resp, err := http.Post(url, ctype, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return answer{resp.StatusCode, resp.Header, buf.Bytes()}
}

// waitDone polls a job until every scan is recorded.
func waitDone(t *testing.T, base, id string) jobs.Status {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		var st jobs.Status
		got := call(t, "GET", base+"/v1/jobs/"+id, "", nil)
		if err := json.Unmarshal(got.body, &st); got.status != 200 || err != nil {
			t.Fatalf("job %s: %d %s", id, got.status, got.body)
		}
		if st.State.Terminal() && st.ScansDone == st.ScansTotal {
			return st
		}
	}
	t.Fatalf("job %s never finished", id)
	return jobs.Status{}
}
