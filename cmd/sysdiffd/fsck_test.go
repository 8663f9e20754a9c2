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
