package server

// End-to-end durability: the whole service — refstore disk tier, job
// journal, audit log — restarted over a crash-simulating MemFS.

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"sysrle/internal/apiclient"
	"sysrle/internal/auditlog"
	"sysrle/internal/jobs"
	"sysrle/internal/rle"
	"sysrle/internal/store"
	"sysrle/internal/telemetry"
)

// durableServer opens a durable server over the given filesystem.
func durableServer(t *testing.T, fs *store.MemFS) (*httptest.Server, *Server) {
	t.Helper()
	s, err := Open(Config{
		DataDir:            "data",
		FS:                 fs,
		JobWorkers:         2,
		AuditBatch:         4,
		AuditFlushInterval: -1,
		Registry:           telemetry.NewRegistry(),
	})
	if err != nil {
		t.Fatalf("server.Open: %v", err)
	}
	srv := httptest.NewServer(s)
	return srv, s
}

// TestRestartPreservesReferences uploads a reference, crashes the
// machine, restarts — and diffs against the same id with zero
// re-uploads.
func TestRestartPreservesReferences(t *testing.T) {
	fs := store.NewMemFS()
	srv, s := durableServer(t, fs)
	ref, scan, _ := testBoards(t)
	id := postRef(t, srv.URL, ref)
	srv.Close()
	s.Close()

	fs.Crash(store.CrashOpts{})
	srv2, s2 := durableServer(t, fs)
	defer srv2.Close()
	defer s2.Close()

	// Metadata survived.
	resp, err := http.Get(srv2.URL + "/v1/references/" + id)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reference lost across restart: status %d", resp.StatusCode)
	}
	// And the content is live: a diff against the stored id works
	// without re-uploading the reference.
	body, ctype := multipartBody(t, "rleb", map[string]*rle.Image{"b": scan})
	resp, err = http.Post(srv2.URL+"/v1/diff?ref="+id, ctype, body)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("diff against recovered reference: status %d", resp.StatusCode)
	}
}

// TestRestartPreservesFinishedJobs runs a batch to completion, crashes
// and restarts, and expects the job record — results, audit ids — to
// still poll, without any scan re-running.
func TestRestartPreservesFinishedJobs(t *testing.T) {
	fs := store.NewMemFS()
	srv, s := durableServer(t, fs)
	ref, scan, _ := testBoards(t)
	refID := postRef(t, srv.URL, ref)
	form, formType := jobForm(t, []*rle.Image{scan, scan}, nil)
	resp, err := http.Post(srv.URL+"/v1/jobs?min-area=2&ref="+refID, formType, form)
	if err != nil {
		t.Fatal(err)
	}
	var accepted jobs.Status
	decodeJSON(t, resp, &accepted)
	before := pollJob(t, srv.URL, accepted.ID)
	srv.Close()
	s.Close()

	fs.Crash(store.CrashOpts{})
	srv2, s2 := durableServer(t, fs)
	defer srv2.Close()
	defer s2.Close()
	resp, err = http.Get(srv2.URL + "/v1/jobs/" + accepted.ID)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("finished job lost across restart: %d: %s", resp.StatusCode, b)
	}
	var after jobs.Status
	decodeJSON(t, resp, &after)
	if after.State != before.State || after.ScansDone != before.ScansDone {
		t.Fatalf("recovered job = %+v, want %+v", after, before)
	}
	for i := range after.Results {
		if after.Results[i].DiffPixels != before.Results[i].DiffPixels ||
			after.Results[i].AuditID != before.Results[i].AuditID {
			t.Errorf("scan %d changed across restart: %+v vs %+v",
				i, after.Results[i], before.Results[i])
		}
	}
}

// TestAuditProofEndpoint drives a job through the API and then
// verifies one of its verdicts offline from the proof endpoint.
func TestAuditProofEndpoint(t *testing.T) {
	fs := store.NewMemFS()
	srv, s := durableServer(t, fs)
	defer srv.Close()
	defer s.Close()
	ref, scan, _ := testBoards(t)
	refID := postRef(t, srv.URL, ref)
	form, formType := jobForm(t, []*rle.Image{scan}, nil)
	resp, err := http.Post(srv.URL+"/v1/jobs?min-area=2&ref="+refID, formType, form)
	if err != nil {
		t.Fatal(err)
	}
	var accepted jobs.Status
	decodeJSON(t, resp, &accepted)
	st := pollJob(t, srv.URL, accepted.ID)
	auditID := st.Results[0].AuditID
	if auditID == "" {
		t.Fatal("durable inspect scan has no audit id")
	}

	resp, err = http.Get(srv.URL + "/v1/audit/" + auditID + "/proof")
	if err != nil {
		t.Fatal(err)
	}
	var proof auditlog.Proof
	decodeJSON(t, resp, &proof)
	if err := auditlog.VerifyProof(proof); err != nil {
		t.Fatalf("proof from the API does not verify: %v", err)
	}
	if proof.Verdict.JobID != accepted.ID || proof.Verdict.RefID != refID {
		t.Errorf("proof pins the wrong verdict: %+v", proof.Verdict)
	}

	// The summary shows the sealed chain.
	resp, err = http.Get(srv.URL + "/v1/audit")
	if err != nil {
		t.Fatal(err)
	}
	var sum apiclient.AuditSummary
	decodeJSON(t, resp, &sum)
	if sum.ChainHead == "" || len(sum.Batches) == 0 {
		t.Errorf("audit summary after a flushed proof: %+v", sum)
	}

	// Unknown id → 404.
	resp, err = http.Get(srv.URL + "/v1/audit/v0000000000000000/proof")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown verdict: status %d, want 404", resp.StatusCode)
	}
}

// TestAuditDisabledWithoutDataDir: the endpoints exist but answer 404
// on a memory-only server.
func TestAuditDisabledWithoutDataDir(t *testing.T) {
	srv := httptest.NewServer(New())
	defer srv.Close()
	for _, path := range []string{"/v1/audit", "/v1/audit/vdeadbeef/proof"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s without DataDir: status %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestReadyzStorageProbe: a durable server reports the storage probe,
// and a sticky storage error flips it (and overall readiness) to
// false.
func TestReadyzStorageProbe(t *testing.T) {
	fs := store.NewMemFS()
	srv, s := durableServer(t, fs)
	defer srv.Close()
	defer s.Close()

	readyz := func() (int, string) {
		resp, err := http.Get(srv.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(b)
	}
	code, body := readyz()
	if code != http.StatusOK || !strings.Contains(body, `"storage"`) {
		t.Fatalf("healthy durable readyz = %d %s", code, body)
	}

	// Rot a reference blob on disk and touch it: the store notices,
	// quarantines, and holds a sticky error until an operator clears it.
	ref, _, _ := testBoards(t)
	postRef(t, srv.URL, ref)
	ids, err := s.refBlobs.List()
	if err != nil || len(ids) == 0 {
		t.Fatalf("no reference blobs on disk: %v", err)
	}
	if err := fs.Tamper("data/refs/blobs/"+ids[0][:2]+"/"+ids[0], func(data []byte) { data[0] ^= 0x40 }); err != nil {
		t.Fatalf("Tamper: %v", err)
	}
	if _, err := s.refBlobs.Get(ids[0]); err == nil {
		t.Fatal("tampered blob read back clean")
	}
	code, body = readyz()
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "corrupt") {
		t.Fatalf("readyz with corrupt storage = %d %s", code, body)
	}
	s.refBlobs.ClearErr()
	if code, _ = readyz(); code != http.StatusOK {
		t.Fatalf("readyz after ClearErr = %d", code)
	}
}
