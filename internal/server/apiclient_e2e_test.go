package server

// End-to-end coverage of the v1 API through the typed client
// (internal/apiclient) — the same path the CLIs and the cluster
// coordinator use. Wire-level edge cases (malformed multipart, bad
// headers, raw envelope shapes) stay in the hand-rolled tests; this
// file is the "a well-behaved client sees the documented API" suite.

import (
	"bytes"
	"context"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"sysrle/internal/apiclient"
	"sysrle/internal/docclean"
	"sysrle/internal/imageio"
	"sysrle/internal/rle"
)

func e2eClient(t *testing.T) (*apiclient.Client, *Server) {
	t.Helper()
	srv := New()
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return apiclient.MustNew(ts.URL, apiclient.Options{Seed: 1}), srv
}

func TestClientDiffEndToEnd(t *testing.T) {
	c, _ := e2eClient(t)
	ref, scan, _ := testBoards(t)
	res, err := c.Diff(context.Background(), apiclient.DiffRequest{A: ref, B: scan})
	if err != nil {
		t.Fatalf("Diff: %v", err)
	}
	if res.Image.Width != ref.Width || res.Image.Height != ref.Height {
		t.Fatalf("diff dims %dx%d, want %dx%d", res.Image.Width, res.Image.Height, ref.Width, ref.Height)
	}
	if res.DiffPixels == 0 || res.Stats.RowsDiffering == 0 || res.Engine == "" {
		t.Fatalf("stats not decoded: %+v engine=%q pixels=%d", res.Stats, res.Engine, res.DiffPixels)
	}
	if res.DiffPixels != res.Image.Area() {
		t.Fatalf("DiffPixels header %d != image area %d", res.DiffPixels, res.Image.Area())
	}

	// Named engine selection round-trips.
	res2, err := c.Diff(context.Background(), apiclient.DiffRequest{A: ref, B: scan, Engine: "lockstep"})
	if err != nil {
		t.Fatalf("Diff lockstep: %v", err)
	}
	if res2.Engine != "systolic-lockstep" {
		t.Fatalf("engine = %q, want systolic-lockstep", res2.Engine)
	}
}

func TestClientDiffErrorsAreTyped(t *testing.T) {
	c, _ := e2eClient(t)
	ref, _, _ := testBoards(t)
	small := &rle.Image{Width: 8, Height: 2, Rows: make([]rle.Row, 2)}
	_, err := c.Diff(context.Background(), apiclient.DiffRequest{A: ref, B: small})
	ae, ok := err.(*apiclient.Error)
	if !ok {
		t.Fatalf("err = %T %v, want *apiclient.Error", err, err)
	}
	if ae.Status != 422 || ae.Code != apiclient.CodeUnprocessable {
		t.Fatalf("size-mismatch error = %+v", ae)
	}
	if ae.RequestID == "" {
		t.Fatalf("error lost the request id: %+v", ae)
	}
}

func TestClientReferenceLifecycle(t *testing.T) {
	c, _ := e2eClient(t)
	ref, scan, _ := testBoards(t)
	ctx := context.Background()

	meta, err := c.PutReference(ctx, ref)
	if err != nil {
		t.Fatalf("PutReference: %v", err)
	}
	if meta.ID == "" || meta.Width != ref.Width || meta.Height != ref.Height {
		t.Fatalf("meta = %+v", meta)
	}

	// Content round-trips byte-identically through the content endpoint.
	img, err := c.ReferenceContent(ctx, meta.ID)
	if err != nil {
		t.Fatalf("ReferenceContent: %v", err)
	}
	var a, b bytes.Buffer
	if err := imageio.Write(&a, "rleb", ref.Canonicalize()); err != nil {
		t.Fatal(err)
	}
	if err := imageio.Write(&b, "rleb", img); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("reference content round-trip differs (%d vs %d bytes)", a.Len(), b.Len())
	}

	list, err := c.ListReferences(ctx)
	if err != nil || len(list) != 1 || list[0].ID != meta.ID {
		t.Fatalf("ListReferences = %v, %v", list, err)
	}
	got, err := c.GetReference(ctx, meta.ID)
	if err != nil || got.ID != meta.ID {
		t.Fatalf("GetReference = %v, %v", got, err)
	}

	// Diff by reference matches diff by upload.
	byRef, err := c.Diff(ctx, apiclient.DiffRequest{RefID: meta.ID, B: scan})
	if err != nil {
		t.Fatalf("diff by ref: %v", err)
	}
	byUpload, err := c.Diff(ctx, apiclient.DiffRequest{A: ref, B: scan})
	if err != nil {
		t.Fatalf("diff by upload: %v", err)
	}
	if byRef.DiffPixels != byUpload.DiffPixels || byRef.Stats != byUpload.Stats {
		t.Fatalf("ref diff %+v != upload diff %+v", byRef.Stats, byUpload.Stats)
	}

	if err := c.DeleteReference(ctx, meta.ID); err != nil {
		t.Fatalf("DeleteReference: %v", err)
	}
	if _, err := c.GetReference(ctx, meta.ID); !apiclient.IsNotFound(err) {
		t.Fatalf("deleted ref get = %v, want 404", err)
	}
	if _, err := c.ReferenceContent(ctx, meta.ID); !apiclient.IsNotFound(err) {
		t.Fatalf("deleted ref content = %v, want 404", err)
	}
}

func TestClientInspectAndAlign(t *testing.T) {
	c, _ := e2eClient(t)
	ref, scan, injected := testBoards(t)
	ctx := context.Background()

	rep, err := c.Inspect(ctx, apiclient.InspectRequest{Ref: ref, Scan: scan, MinDefectArea: 1})
	if err != nil {
		t.Fatalf("Inspect: %v", err)
	}
	if rep.Clean || len(rep.Defects) == 0 {
		t.Fatalf("inspect found no defects (injected %d): %+v", injected, rep)
	}
	if rep.RowsCompared != ref.Height {
		t.Fatalf("rows compared %d, want %d", rep.RowsCompared, ref.Height)
	}

	al, err := c.Align(ctx, apiclient.AlignRequest{Ref: ref, Scan: ref, MaxShift: 4})
	if err != nil {
		t.Fatalf("Align: %v", err)
	}
	if al.DX != 0 || al.DY != 0 || al.ResidualArea != 0 {
		t.Fatalf("self-align = %+v, want zero offset and residual", al)
	}
}

func TestClientJobLifecycle(t *testing.T) {
	c, _ := e2eClient(t)
	ref, scan, _ := testBoards(t)
	ctx := context.Background()

	meta, err := c.PutReference(ctx, ref)
	if err != nil {
		t.Fatalf("PutReference: %v", err)
	}
	st, err := c.SubmitJob(ctx, apiclient.JobRequest{
		RefID: meta.ID,
		Scans: []*rle.Image{scan, ref},
	})
	if err != nil {
		t.Fatalf("SubmitJob: %v", err)
	}
	if st.ID == "" || st.ScansTotal != 2 {
		t.Fatalf("submitted job = %+v", st)
	}
	wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	final, err := c.WaitJob(wctx, st.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatalf("WaitJob: %v", err)
	}
	if final.State != "done" || len(final.Results) != 2 {
		t.Fatalf("final job = %+v", final)
	}
	// Scan 1 diffs the reference against itself: clean.
	for _, res := range final.Results {
		if res.Index == 1 && !res.Clean {
			t.Fatalf("self-scan not clean: %+v", res)
		}
		if res.Index == 0 && res.Clean {
			t.Fatalf("defect scan reported clean: %+v", res)
		}
	}

	jobs, err := c.ListJobs(ctx)
	if err != nil || len(jobs) != 1 {
		t.Fatalf("ListJobs = %v, %v", jobs, err)
	}
	if err := c.DeleteJob(ctx, st.ID); err != nil {
		t.Fatalf("DeleteJob: %v", err)
	}
	if _, err := c.GetJob(ctx, st.ID); !apiclient.IsNotFound(err) {
		t.Fatalf("deleted job get = %v, want 404", err)
	}
}

func TestClientDocClean(t *testing.T) {
	c, _ := e2eClient(t)
	page := testPage(t)
	rep, err := c.DocClean(context.Background(), apiclient.DocCleanRequest{
		Image: page,
		Config: docclean.Config{MaxSpeckleArea: 4, MinLineLen: 40,
			CloseGapX: 5, CloseGapY: 3, MinBlockArea: 10},
	})
	if err != nil {
		t.Fatalf("DocClean: %v", err)
	}
	if rep.InputArea == 0 || rep.OutputArea == 0 {
		t.Fatalf("docclean report = %+v", rep)
	}
}

func TestClientAuditAndReady(t *testing.T) {
	dir := t.TempDir()
	srv, err := Open(Config{DataDir: filepath.Join(dir, "data"), AuditBatch: 1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); srv.Close() })
	c := apiclient.MustNew(ts.URL, apiclient.Options{Seed: 1})
	ctx := context.Background()

	st, err := c.Ready(ctx)
	if err != nil {
		t.Fatalf("Ready: %v", err)
	}
	if !st.Ready {
		t.Fatalf("durable server not ready: %+v", st.Probes)
	}
	if err := c.Health(ctx); err != nil {
		t.Fatalf("Health: %v", err)
	}

	// Run one inspect job so a verdict lands in the audit log.
	ref, scan, _ := testBoards(t)
	meta, err := c.PutReference(ctx, ref)
	if err != nil {
		t.Fatalf("PutReference: %v", err)
	}
	job, err := c.SubmitJob(ctx, apiclient.JobRequest{RefID: meta.ID, Scans: []*rle.Image{scan}})
	if err != nil {
		t.Fatalf("SubmitJob: %v", err)
	}
	wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	final, err := c.WaitJob(wctx, job.ID, 10*time.Millisecond)
	if err != nil || final.State != "done" {
		t.Fatalf("job = %+v, err %v", final, err)
	}
	sum, err := c.Audit(ctx)
	if err != nil {
		t.Fatalf("Audit: %v", err)
	}
	if sum.ChainHead == "" {
		t.Fatalf("audit chain head empty after a sealed verdict: %+v", sum)
	}
	if final.Results[0].AuditID == "" {
		t.Fatalf("scan result carries no audit id: %+v", final.Results[0])
	}
	proof, err := c.AuditProof(ctx, final.Results[0].AuditID)
	if err != nil {
		t.Fatalf("AuditProof: %v", err)
	}
	if len(proof) == 0 {
		t.Fatalf("empty proof")
	}

	// Telemetry snapshot is reachable through the typed client too.
	vars, err := c.Vars(ctx)
	if err != nil {
		t.Fatalf("Vars: %v", err)
	}
	if _, ok := vars["sysrle_http_requests_total"]; !ok {
		t.Fatalf("vars missing request counter: have %d families", len(vars))
	}
}
