package server

// The crash-recovery chaos suite: randomized kill -9 at arbitrary
// points in a live workload, with torn tails and bit-rotted torn
// sectors, asserting the recovered state is always a durable prefix:
//
//   - no acknowledged reference is lost or altered
//   - no acknowledged job submission is lost; completed scans keep
//     their exact verdicts; incomplete ones re-run to completion
//   - the audit log verifies end to end and every verdict id observed
//     before the crash still proves inclusion after it
//
// A second suite runs the same workload under a seeded disk-fault
// plan (torn writes, ENOSPC, bit rot, fsync failures) and asserts the
// weaker but still absolute property: the service may fail loudly,
// it never lies.

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"sysrle/internal/auditlog"
	"sysrle/internal/fault"
	"sysrle/internal/jobs"
	"sysrle/internal/refstore"
	"sysrle/internal/rle"
	"sysrle/internal/store"
	"sysrle/internal/telemetry"
)

// chaosImage builds a deterministic image distinct per seed.
func chaosImage(rng *rand.Rand, w, h int) *rle.Image {
	img := rle.NewImage(w, h)
	for y := 0; y < h; y++ {
		var row rle.Row
		x := rng.Intn(3)
		for x < w-3 {
			length := 1 + rng.Intn(5)
			if x+length > w {
				break
			}
			row = append(row, rle.Run{Start: x, Length: length})
			x += length + 1 + rng.Intn(4)
		}
		img.SetRow(y, row)
	}
	return img
}

func openChaosServer(t *testing.T, fs store.FS) *Server {
	t.Helper()
	s, err := Open(Config{
		DataDir:            "data",
		FS:                 fs,
		JobWorkers:         2,
		JobRetention:       -1,
		AuditBatch:         3,
		AuditFlushInterval: -1,
		Registry:           telemetry.NewRegistry(),
	})
	if err != nil {
		t.Fatalf("server.Open: %v", err)
	}
	return s
}

func TestCrashRecoveryChaos(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			runCrashChaosIteration(t, seed)
		})
	}
}

func runCrashChaosIteration(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	fs := store.NewMemFS()
	s := openChaosServer(t, fs)
	// The dying process: never Closed — its goroutines are "killed" by
	// the Crash below, which orphans every file handle they hold.

	ackedRefs := make(map[string]*rle.Image)
	type ackedJob struct {
		scans int
	}
	acked := make(map[string]ackedJob)
	completed := make(map[string]jobs.Status)

	nRefs := 1 + rng.Intn(3)
	for i := 0; i < nRefs; i++ {
		img := chaosImage(rng, 48, 24)
		meta, err := s.refs.Put(img)
		if err != nil {
			t.Fatalf("ref put: %v", err)
		}
		ackedRefs[meta.ID] = img.Canonicalize()
	}
	refIDs := make([]string, 0, len(ackedRefs))
	for id := range ackedRefs {
		refIDs = append(refIDs, id)
	}

	nJobs := 1 + rng.Intn(4)
	for i := 0; i < nJobs; i++ {
		n := 1 + rng.Intn(3)
		spec := jobs.Spec{RefID: refIDs[rng.Intn(len(refIDs))], MinDefectArea: 1}
		for k := 0; k < n; k++ {
			spec.Scans = append(spec.Scans, chaosImage(rng, 48, 24))
		}
		id, err := s.jobs.Submit(spec)
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		acked[id] = ackedJob{scans: n}
	}

	// Let a random subset of the work finish before the power goes.
	waitFor := rng.Intn(nJobs + 1)
	deadline := time.Now().Add(5 * time.Second)
	for id := range acked {
		if len(completed) >= waitFor {
			break
		}
		for time.Now().Before(deadline) {
			st, err := s.jobs.Get(id)
			if err != nil {
				t.Fatalf("pre-crash get: %v", err)
			}
			if st.State.Terminal() && st.ScansDone == st.ScansTotal {
				completed[id] = st
				break
			}
			time.Sleep(time.Millisecond)
		}
	}

	// kill -9: Reboot (not Crash) forks the durable view, so the
	// abandoned server's still-running goroutines are left writing
	// into a detached namespace — just like a dead process.
	fs = fs.Reboot(store.CrashOpts{Torn: seed%2 == 0, BitRot: seed%4 == 0, Seed: seed})
	s2 := openChaosServer(t, fs)
	defer s2.Close()

	// Durable prefix, part 1: every acknowledged reference survives
	// bit-identically.
	for id, want := range ackedRefs {
		got, err := s2.refs.Get(id)
		if err != nil {
			t.Fatalf("acked reference %s lost: %v", id[:8], err)
		}
		if !got.Equal(want) {
			t.Fatalf("acked reference %s corrupted across crash", id[:8])
		}
	}

	// Part 2: every acknowledged job exists and reaches a terminal
	// state; scans completed before the crash keep their verdicts.
	deadline = time.Now().Add(10 * time.Second)
	for id, aj := range acked {
		var st jobs.Status
		for {
			var err error
			st, err = s2.jobs.Get(id)
			if err != nil {
				t.Fatalf("acked job %s lost: %v", id, err)
			}
			if st.State.Terminal() && st.ScansDone == st.ScansTotal {
				break
			}
			if !time.Now().Before(deadline) {
				t.Fatalf("job %s never finished after recovery: %+v", id, st)
			}
			time.Sleep(time.Millisecond)
		}
		if st.ScansTotal != aj.scans {
			t.Fatalf("job %s scan count changed: %d vs %d", id, st.ScansTotal, aj.scans)
		}
		if pre, ok := completed[id]; ok {
			if st.State != pre.State {
				t.Fatalf("completed job %s changed state: %s vs %s", id, st.State, pre.State)
			}
			for i := range pre.Results {
				a, b := pre.Results[i], st.Results[i]
				if a.Defects != b.Defects || a.DiffPixels != b.DiffPixels || a.Clean != b.Clean || a.AuditID != b.AuditID {
					t.Fatalf("completed job %s scan %d re-ran or changed: %+v vs %+v", id, i, a, b)
				}
			}
		}
	}

	// Part 3: the audit log verifies, and every verdict acknowledged
	// before the crash still proves inclusion.
	if err := s2.audit.Flush(); err != nil {
		t.Fatalf("audit flush: %v", err)
	}
	rep, err := s2.audit.VerifyAll()
	if err != nil {
		t.Fatalf("audit verify: %v", err)
	}
	if !rep.OK() {
		t.Fatalf("audit log failed verification after crash: %+v", rep)
	}
	for id, st := range completed {
		for _, res := range st.Results {
			if res.AuditID == "" {
				continue
			}
			p, err := s2.audit.Proof(res.AuditID)
			if err != nil {
				t.Fatalf("verdict %s of job %s lost: %v", res.AuditID, id, err)
			}
			if err := auditlog.VerifyProof(p); err != nil {
				t.Fatalf("proof for %s no longer verifies: %v", res.AuditID, err)
			}
		}
	}

	// Part 4: verdicts grouped by (job, scan), the way sysdiffd -fsck
	// does. A verdict can be sealed before the crash while its scan
	// record is lost; recovery then re-runs the scan and seals a second
	// one. No client saw the first, so only a scan acknowledged as
	// finished before the crash must never have two.
	seen := make(map[string]string)
	for _, info := range s2.audit.Batches() {
		b, err := s2.audit.Batch(info.Seq)
		if err != nil {
			t.Fatalf("audit batch %d: %v", info.Seq, err)
		}
		for _, v := range b.Verdicts {
			k := fmt.Sprintf("job %s scan %d", v.JobID, v.ScanIndex)
			first, dup := seen[k]
			seen[k] = v.ID
			if !dup {
				continue
			}
			if _, acked := completed[v.JobID]; acked {
				t.Fatalf("%s was finished before the crash and has two verdicts: %s and %s", k, first, v.ID)
			}
			t.Logf("seed %d: %s has two verdicts after recovery: %s and %s", seed, k, first, v.ID)
		}
	}
}

// TestDiskFaultChaos runs the reference workload with every disk
// fault kind injected at a rate high enough to hit all paths, and
// asserts the service never returns wrong data: every operation
// either fails visibly or its result reads back bit-identical.
func TestDiskFaultChaos(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		inner := store.NewMemFS()
		inj := fault.NewDiskInjector(fault.DiskPlan{
			Seed: seed,
			Rate: 0.05,
			Kinds: []fault.DiskKind{
				fault.DiskTornWrite, fault.DiskENOSPC, fault.DiskBitRot, fault.DiskSyncFail,
			},
		}, nil)
		fsys := fault.WrapFS(inner, inj)

		blobs, err := store.Open(fsys, "data/refs", nil)
		if err != nil {
			// Injected fault during Open: loud failure is acceptable.
			continue
		}
		refs := refstore.New(refstore.Config{Disk: blobs, CacheBytes: -1})
		put, failed, lied := 0, 0, 0
		for i := 0; i < 60; i++ {
			img := chaosImage(rng, 32, 16)
			meta, err := refs.Put(img)
			if err != nil {
				failed++
				continue
			}
			put++
			got, err := refs.Get(meta.ID)
			if err != nil {
				// Visible failure (quarantined rot, injected read
				// fault) — allowed. ErrNotFound after quarantine too.
				if !errors.Is(err, store.ErrCorrupt) && !errors.Is(err, refstore.ErrNotFound) && !errors.Is(err, fault.ErrInjected) {
					t.Fatalf("seed %d: unexpected error class: %v", seed, err)
				}
				continue
			}
			if !got.Equal(img.Canonicalize()) {
				lied++
			}
		}
		if lied > 0 {
			t.Fatalf("seed %d: %d silent corruptions (put=%d failed=%d)", seed, lied, put, failed)
		}
		if inj.Total() == 0 {
			t.Fatalf("seed %d: fault plan injected nothing — the suite tested nothing", seed)
		}
	}
}
