package main

import (
	"bytes"
	"flag"
	"strings"
	"testing"
	"time"

	"sysrle/internal/auditlog"
	"sysrle/internal/store"
	"sysrle/internal/wal"
)

// populateDataDir builds a small but complete durable tier: one blob
// per store, a few journal records, one sealed audit batch. Returns
// the id of a reference blob for the corruption case.
func populateDataDir(t *testing.T, fs *store.MemFS) string {
	t.Helper()
	refs, err := store.Open(fs, "data/refs", nil)
	if err != nil {
		t.Fatal(err)
	}
	id, err := refs.Put([]byte("golden reference bytes"))
	if err != nil {
		t.Fatal(err)
	}
	blobs, err := store.Open(fs, "data/blobs", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := blobs.Put([]byte("archived scan bytes")); err != nil {
		t.Fatal(err)
	}
	j, err := wal.Open(fs, "data/wal", wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []string{"one", "two", "three"} {
		if err := j.Append([]byte(rec)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	log, _, err := auditlog.Open(fs, "data/audit", auditlog.Config{FlushInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := log.Append(auditlog.Verdict{
			Time: time.Unix(int64(1000+i), 0), JobID: "job-000001",
			ScanIndex: i, RefID: id, Engine: "planner", Defects: i,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	return id
}

func TestRunFsckCleanAndCorrupt(t *testing.T) {
	fs := store.NewMemFS()
	id := populateDataDir(t, fs)

	var out bytes.Buffer
	if err := runFsck(fs, "data", &out); err != nil {
		t.Fatalf("fsck on a healthy data dir: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "clean") {
		t.Errorf("clean run output:\n%s", out.String())
	}

	if err := fs.Tamper("data/refs/blobs/"+id[:2]+"/"+id, func(b []byte) { b[0] ^= 0x01 }); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := runFsck(fs, "data", &out); err == nil {
		t.Fatalf("fsck passed a corrupt blob:\n%s", out.String())
	}

	// A second pass sees the quarantine and a clean store again.
	out.Reset()
	if err := runFsck(fs, "data", &out); err != nil {
		t.Fatalf("fsck after quarantine: %v\n%s", err, out.String())
	}
}

// TestRunFsckReportsRerunScan: a scan with two verdicts (the second
// appended after a restart lost its journal record) is reported by
// its job and scan index, and fsck still exits clean.
func TestRunFsckReportsRerunScan(t *testing.T) {
	fs := store.NewMemFS()
	id := populateDataDir(t, fs)
	log, _, err := auditlog.Open(fs, "data/audit", auditlog.Config{FlushInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := log.Append(auditlog.Verdict{
		Time: time.Unix(2000, 0), JobID: "job-000001", ScanIndex: 1, RefID: id, Engine: "planner", Defects: 1,
	}); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := runFsck(fs, "data", &out); err != nil {
		t.Fatalf("fsck: %v\n%s", err, out.String())
	}
	if got := strings.Count(out.String(), "verdicts (re-run"); got != 1 ||
		!strings.Contains(out.String(), "job job-000001 scan 1 has 2 verdicts") {
		t.Errorf("want one report line for scan 1:\n%s", out.String())
	}
}

func TestRunFsckNeedsDataDir(t *testing.T) {
	if err := runFsck(store.NewMemFS(), "", &bytes.Buffer{}); err == nil {
		t.Fatal("fsck without -data-dir must fail")
	}
}

func TestFsckFlagParses(t *testing.T) {
	fset := flag.NewFlagSet("sysdiffd", flag.ContinueOnError)
	o, err := parseFlags(fset, []string{"-fsck", "-data-dir", "/tmp/x", "-wal-sync", "batch", "-audit-batch", "32"})
	if err != nil {
		t.Fatal(err)
	}
	if !o.fsck || o.dataDir != "/tmp/x" || o.walSync != "batch" || o.auditBatch != 32 {
		t.Fatalf("parsed options = %+v", o)
	}
}
