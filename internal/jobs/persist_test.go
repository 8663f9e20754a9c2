package jobs

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"

	"sysrle/internal/auditlog"
	"sysrle/internal/rle"
	"sysrle/internal/store"
	"sysrle/internal/telemetry"
	"sysrle/internal/wal"
)

// durableEnv is one simulated machine: a MemFS hosting the journal,
// the blob store and the audit log, rebuilt after every "crash".
type durableEnv struct {
	t     *testing.T
	fs    *store.MemFS
	wal   *wal.WAL
	blobs *store.Store
	audit *auditlog.Log
	reg   *telemetry.Registry
}

func newDurableEnv(t *testing.T) *durableEnv {
	e := &durableEnv{t: t, fs: store.NewMemFS()}
	e.boot()
	return e
}

// boot (re)opens every store on the current filesystem contents.
func (e *durableEnv) boot() {
	var err error
	e.reg = telemetry.NewRegistry()
	if e.wal, err = wal.Open(e.fs, "data/wal", wal.Options{Policy: wal.SyncAlways}); err != nil {
		e.t.Fatalf("wal.Open: %v", err)
	}
	if e.blobs, err = store.Open(e.fs, "data/blobs", nil); err != nil {
		e.t.Fatalf("store.Open: %v", err)
	}
	if e.audit, _, err = auditlog.Open(e.fs, "data/audit", auditlog.Config{FlushInterval: -1}); err != nil {
		e.t.Fatalf("auditlog.Open: %v", err)
	}
}

func (e *durableEnv) manager() *Manager {
	m, err := Open(Config{
		Workers:   2,
		Retention: -1,
		Registry:  e.reg,
		Journal:   e.wal,
		Blobs:     e.blobs,
		Audit:     e.audit,
	})
	if err != nil {
		e.t.Fatalf("jobs.Open: %v", err)
	}
	return m
}

// crash abandons the open handles (the process died) and drops every
// unsynced byte, then reboots the stores.
func (e *durableEnv) crash() {
	e.fs.Crash(store.CrashOpts{})
	e.boot()
}

func inspectSpec(nScans int) Spec {
	ref := testRefImage()
	spec := Spec{Ref: ref}
	for i := 0; i < nScans; i++ {
		scan := ref.Clone()
		// A deterministic, distinct defect per scan.
		scan.SetRow(2+i, rle.Row{{Start: 1, Length: 3 + i}})
		spec.Scans = append(spec.Scans, scan)
	}
	return spec
}

func testRefImage() *rle.Image {
	img := rle.NewImage(32, 16)
	for y := 0; y < 16; y++ {
		img.SetRow(y, rle.Row{{Start: 4, Length: 8}, {Start: 20, Length: 4}})
	}
	return img
}

// TestRecoveryFinishedJobNeverReruns kills the machine after a job
// completes and checks the reboot restores it as a terminal record
// without running a single scan.
func TestRecoveryFinishedJobNeverReruns(t *testing.T) {
	e := newDurableEnv(t)
	m := e.manager()
	id, err := m.Submit(inspectSpec(3))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	before := waitTerminal(t, m, id)
	if before.State != StateDone {
		t.Fatalf("pre-crash state = %s: %+v", before.State, before)
	}
	m.Close()

	e.crash()
	m2 := e.manager()
	defer m2.Close()
	after, err := m2.Get(id)
	if err != nil {
		t.Fatalf("recovered Get: %v", err)
	}
	if after.State != StateDone || after.ScansDone != 3 || after.ScansTotal != 3 {
		t.Fatalf("recovered status = %+v", after)
	}
	for i, res := range after.Results {
		if res.Clean || res.Defects == 0 {
			t.Errorf("scan %d lost its verdict: %+v", i, res)
		}
		if res.Defects != before.Results[i].Defects || res.DiffPixels != before.Results[i].DiffPixels {
			t.Errorf("scan %d verdict changed across recovery: %+v vs %+v", i, res, before.Results[i])
		}
		if res.AuditID == "" || res.AuditID != before.Results[i].AuditID {
			t.Errorf("scan %d audit id changed: %q vs %q", i, res.AuditID, before.Results[i].AuditID)
		}
	}
	if v := e.reg.Counter("sysrle_jobs_scans_total").Value(); v != 0 {
		t.Errorf("recovery re-ran %d scans of a finished job", v)
	}
}

// TestRecoveryFinishedJobsSurviveTwoRestarts crashes the machine
// twice after an inspect job (one scan clean, with no defects) and a
// docclean job finish. The first recovery replays the history; the
// second replays the checkpoint that the first boot wrote, so a scan
// the checkpoint lost would re-run here. The audit log never seals a
// batch, so the verdicts survive only if every boot re-derives them.
func TestRecoveryFinishedJobsSurviveTwoRestarts(t *testing.T) {
	e := newDurableEnv(t)
	m := e.manager()
	spec := inspectSpec(2)
	spec.Scans = append(spec.Scans, spec.Ref.Clone())
	page := rle.NewImage(40, 20)
	page.Rows[3] = rle.Row{rle.Span(5, 34)}
	page.Rows[10] = rle.Row{rle.Span(8, 8)}
	var ids []string
	for _, sp := range []Spec{spec, {Type: TypeDocClean, Scans: []*rle.Image{page}}} {
		id, err := m.Submit(sp)
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		ids = append(ids, id)
	}
	before := make(map[string]Status)
	for _, id := range ids {
		st := waitTerminal(t, m, id)
		if st.State != StateDone {
			t.Fatalf("pre-crash state of %s = %s: %+v", id, st.State, st)
		}
		before[id] = st
	}
	if r := before[ids[0]].Results[2]; !r.Clean || r.Defects != 0 || r.AuditID == "" {
		t.Fatalf("identical scan: %+v, want clean with an audit id", r)
	}
	m.Close()

	for boot := 2; boot <= 3; boot++ {
		e.crash()
		m = e.manager()
		for _, id := range ids {
			after, err := m.Get(id)
			if err != nil {
				t.Fatalf("boot %d: Get(%s): %v", boot, id, err)
			}
			want := before[id]
			if after.State != want.State || after.ScansDone != want.ScansTotal {
				t.Errorf("boot %d: %s = %s with %d scans done, want %s with %d",
					boot, id, after.State, after.ScansDone, want.State, want.ScansTotal)
			}
			for i, res := range after.Results {
				if res != want.Results[i] {
					t.Errorf("boot %d: %s scan %d = %+v, want %+v", boot, id, i, res, want.Results[i])
				}
			}
		}
		if v := e.reg.Counter("sysrle_jobs_scans_total").Value(); v != 0 {
			t.Errorf("boot %d re-ran %d scans of finished jobs", boot, v)
		}
		m.Close()
	}
	if err := e.audit.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, res := range before[ids[0]].Results {
		p, err := e.audit.Proof(res.AuditID)
		if err != nil {
			t.Errorf("verdict %s lost across two restarts: %v", res.AuditID, err)
			continue
		}
		if err := auditlog.VerifyProof(p); err != nil {
			t.Errorf("proof for %s: %v", res.AuditID, err)
		}
	}
}

// TestRecoveryRequeuesPendingScans hand-writes a journal in which one
// of two scans completed, then boots a manager and expects exactly the
// missing scan to run.
func TestRecoveryRequeuesPendingScans(t *testing.T) {
	e := newDurableEnv(t)
	spec := inspectSpec(2)

	refBlob, err := e.blobs.Put(encodeImage(spec.Ref))
	if err != nil {
		t.Fatal(err)
	}
	p := &persistedSpec{RefBlob: refBlob, Total: 2, ScanBlobs: make([]string, 2)}
	for i, scan := range spec.Scans {
		if p.ScanBlobs[i], err = e.blobs.Put(encodeImage(scan)); err != nil {
			t.Fatal(err)
		}
	}
	admit, err := json.Marshal(&walRecord{Op: opAdmit, JobID: "job-000007", Created: time.Unix(500, 0), Spec: p})
	if err != nil {
		t.Fatal(err)
	}
	// The scan record as older builds wrote it, when a scan could be
	// retried: the fields "attempts" and "quarantined" are gone from
	// ScanResult and must be ignored on replay.
	done := []byte(`{"op":"scan","job_id":"job-000007","result":{"index":0,"clean":false,` +
		`"defects":9,"diff_pixels":41,"diff_runs":0,"iterations":0,"attempts":3,"quarantined":true}}`)
	for _, rec := range [][]byte{admit, done} {
		if err := e.wal.Append(rec); err != nil {
			t.Fatal(err)
		}
	}

	e.crash()
	m := e.manager()
	defer m.Close()

	st := waitTerminal(t, m, "job-000007")
	if st.State != StateDone {
		t.Fatalf("recovered job state = %s: %+v", st.State, st)
	}
	if got := st.Results[0]; got.Defects != 9 || got.DiffPixels != 41 || got.Error != "" {
		t.Errorf("journaled scan 0 was not preserved verbatim: %+v", got)
	}
	if got := st.Results[1]; got.Error != "" || got.Defects == 0 {
		t.Errorf("pending scan 1 did not re-run: %+v", got)
	}
	if v := e.reg.Counter("sysrle_jobs_scans_total").Value(); v != 1 {
		t.Errorf("recovery ran %d scans, want exactly the 1 pending", v)
	}
	// The sequence counter moved past the recovered id.
	id2, err := m.Submit(inspectSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if id2 <= "job-000007" {
		t.Errorf("post-recovery id %s did not advance past recovered job", id2)
	}
}

// TestRecoveryDeleteAndCancelTombstones checks the two tombstone ops:
// a deleted job stays gone, a canceled one comes back canceled without
// running its remaining scans.
func TestRecoveryDeleteAndCancelTombstones(t *testing.T) {
	e := newDurableEnv(t)
	m := e.manager()
	delID, err := m.Submit(inspectSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, m, delID)
	if err := m.Delete(delID); err != nil {
		t.Fatal(err)
	}
	keepID, err := m.Submit(inspectSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, m, keepID)
	m.Close()

	e.crash()
	m2 := e.manager()
	defer m2.Close()
	if _, err := m2.Get(delID); err != ErrNotFound {
		t.Errorf("deleted job resurrected: err = %v", err)
	}
	if _, err := m2.Get(keepID); err != nil {
		t.Errorf("surviving job lost: %v", err)
	}

	// Hand-written canceled job with one scan outstanding.
	appendRec := func(rec walRecord) {
		data, _ := json.Marshal(&rec)
		if err := e.wal.Append(data); err != nil {
			t.Fatal(err)
		}
	}
	appendRec(walRecord{Op: opAdmit, JobID: "job-000090", Created: time.Unix(1, 0),
		Spec: &persistedSpec{Total: 1, ScanBlobs: []string{"ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff"}}})
	appendRec(walRecord{Op: opCancel, JobID: "job-000090"})
	m2.Close()

	e.crash()
	m3 := e.manager()
	defer m3.Close()
	st, err := m3.Get("job-000090")
	if err != nil {
		t.Fatalf("canceled job not recovered: %v", err)
	}
	if st.State != StateCanceled {
		t.Errorf("recovered canceled job state = %s", st.State)
	}
	if v := e.reg.Counter("sysrle_jobs_scans_total").Value(); v != 0 {
		t.Errorf("canceled job ran %d scans after recovery", v)
	}
}

// TestRecoveryMissingBlobFailsScanVisibly: a pending scan whose
// archived image rotted away fails with an explanatory error — the
// job still terminates, recovery itself does not.
func TestRecoveryMissingBlobFailsScanVisibly(t *testing.T) {
	e := newDurableEnv(t)
	refBlob, err := e.blobs.Put(encodeImage(testRefImage()))
	if err != nil {
		t.Fatal(err)
	}
	rec := walRecord{Op: opAdmit, JobID: "job-000003", Created: time.Unix(1, 0), Spec: &persistedSpec{
		RefBlob:   refBlob,
		Total:     1,
		ScanBlobs: []string{"ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff"},
	}}
	data, _ := json.Marshal(&rec)
	if err := e.wal.Append(data); err != nil {
		t.Fatal(err)
	}

	e.crash()
	m := e.manager()
	defer m.Close()
	st := waitTerminal(t, m, "job-000003")
	if st.State != StateFailed {
		t.Fatalf("state = %s, want failed", st.State)
	}
	if st.Results[0].Error == "" {
		t.Error("lost-blob scan carries no error")
	}
}

// TestRecoveryAuditIdempotent crashes with flushed-and-pending audit
// verdicts; after reboot the re-appended verdicts must dedupe against
// the flushed batch and restore the pending ones — same content ids,
// no duplicates.
func TestRecoveryAuditIdempotent(t *testing.T) {
	e := newDurableEnv(t)
	m := e.manager()
	// Default audit batch is 64, so all verdicts stay pending and die
	// with the process unless jobs recovery re-derives them.
	var ids []string
	for i := 0; i < 3; i++ {
		id, err := m.Submit(inspectSpec(2))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	var auditIDs []string
	for _, id := range ids {
		st := waitTerminal(t, m, id)
		for _, res := range st.Results {
			auditIDs = append(auditIDs, res.AuditID)
		}
	}
	// Flush half the verdicts so recovery sees both regimes.
	if err := e.audit.Flush(); err != nil {
		t.Fatal(err)
	}
	m.Close()

	e.crash()
	m2 := e.manager()
	defer m2.Close()
	if err := e.audit.Flush(); err != nil {
		t.Fatal(err)
	}
	rep, err := e.audit.VerifyAll()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("recovered audit log fails verification: %+v", rep)
	}
	if rep.Verdicts != len(auditIDs) {
		t.Fatalf("recovered audit log has %d verdicts, want %d (no dupes, no losses)", rep.Verdicts, len(auditIDs))
	}
	for _, aid := range auditIDs {
		p, err := e.audit.Proof(aid)
		if err != nil {
			t.Errorf("verdict %s lost across crash: %v", aid, err)
			continue
		}
		if err := auditlog.VerifyProof(p); err != nil {
			t.Errorf("proof for %s: %v", aid, err)
		}
	}
}

// TestCheckpointBoundsJournalGrowth: Open compacts replayed history
// into a snapshot, so journal size is a function of live state, not
// lifetime.
func TestCheckpointBoundsJournalGrowth(t *testing.T) {
	e := newDurableEnv(t)
	var lastID string
	for cycle := 0; cycle < 3; cycle++ {
		m := e.manager()
		id, err := m.Submit(inspectSpec(1))
		if err != nil {
			t.Fatal(err)
		}
		lastID = id
		waitTerminal(t, m, id)
		m.Close()
		e.crash()
	}
	// After the final boot's checkpoint the journal replays to the
	// same state from a bounded record count: 1 admit + 1 scan +
	// 1 done per retained job.
	m := e.manager()
	defer m.Close()
	if _, err := m.Get(lastID); err != nil {
		t.Fatalf("job lost after %d crash cycles: %v", 3, err)
	}
	stats, err := wal.Open(e.fs, "data/wal", wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	if _, err := stats.Replay(func([]byte) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	_ = stats.Close()
	if want := 3 * 3; n > want {
		t.Errorf("journal holds %d records after compaction, want <= %d", n, want)
	}
}

// TestSubmitFailsClosedWhenJournalRejects: an admission the journal
// cannot make durable must not be acknowledged.
func TestSubmitFailsClosedWhenJournalRejects(t *testing.T) {
	e := newDurableEnv(t)
	m := e.manager()
	defer m.Close()
	if _, err := m.Submit(inspectSpec(1)); err != nil {
		t.Fatalf("healthy submit: %v", err)
	}
	// Kill the journal's backing store out from under it.
	if err := e.wal.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(inspectSpec(1)); err == nil {
		t.Fatal("Submit acked a job the journal could not record")
	}
	// The failed admission must not leak a visible job.
	for _, st := range m.List() {
		if st.State == StateQueued && st.ScansDone == 0 && st.Created.IsZero() {
			t.Errorf("ghost job leaked: %+v", st)
		}
	}
}

// scanGate blocks the journal write of the first scan record until
// released, holding the recording worker inside the window between a
// scan's verdict and its journal record.
type scanGate struct {
	once             sync.Once
	entered, release chan struct{}
}

type gatedFS struct {
	store.FS
	gate *scanGate
}

func (g gatedFS) Create(p string) (store.File, error) {
	f, err := g.FS.Create(p)
	return gatedFile{f, g.gate}, err
}

type gatedFile struct {
	store.File
	gate *scanGate
}

func (f gatedFile) Write(b []byte) (int, error) {
	if bytes.Contains(b, []byte(`"op":"scan"`)) {
		f.gate.once.Do(func() { close(f.gate.entered) })
		<-f.gate.release
	}
	return f.File.Write(b)
}

// TestRecoveryVerdictVisibleOnlyOnceJournaled kills the machine while
// a scan's journal record is being written. A verdict Get showed
// before the crash must be the one served after it: recovery re-runs
// an unjournaled scan under a new audit id, so none may be visible
// until its record is in the journal.
func TestRecoveryVerdictVisibleOnlyOnceJournaled(t *testing.T) {
	e := newDurableEnv(t)
	gate := &scanGate{entered: make(chan struct{}), release: make(chan struct{})}
	journal, err := wal.Open(gatedFS{e.fs, gate}, "data/wal-gated", wal.Options{Policy: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Open(Config{Workers: 1, Retention: -1, Journal: journal, Blobs: e.blobs, Audit: e.audit})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { close(gate.release); m.Close() })
	id, err := m.Submit(inspectSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-gate.entered:
	case <-time.After(30 * time.Second):
		t.Fatal("the scan record was never written")
	}
	// Get may wait for the record (the worker holds the job); if it
	// answers, it must not show the scan.
	got := make(chan Status, 1)
	go func() {
		st, _ := m.Get(id)
		got <- st
	}()
	var seen Status
	select {
	case seen = <-got:
		if seen.ScansDone != 0 || seen.State.Terminal() || seen.Results[0].AuditID != "" {
			t.Errorf("scan visible before its journal record: %+v", seen)
		}
	case <-time.After(200 * time.Millisecond):
	}

	// kill -9: the blocked worker lives on in the old namespace.
	e.fs = e.fs.Reboot(store.CrashOpts{})
	e.boot()
	if e.wal, err = wal.Open(e.fs, "data/wal-gated", wal.Options{Policy: wal.SyncAlways}); err != nil {
		t.Fatal(err)
	}
	m2 := e.manager()
	defer m2.Close()
	after := waitTerminal(t, m2, id)
	if len(seen.Results) > 0 && seen.Results[0].AuditID != "" && seen.Results[0].AuditID != after.Results[0].AuditID {
		t.Errorf("audit id %q served before the crash, %q after", seen.Results[0].AuditID, after.Results[0].AuditID)
	}
}
