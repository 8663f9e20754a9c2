package main

// sysdiffd -fsck: the offline integrity pass over a -data-dir. Runs
// with the server stopped (it opens the same directories) and checks
// every durability invariant the online paths rely on:
//
//   - both blob stores re-hash every blob; corrupt ones are moved to
//     quarantine/ so the next start serves only verified content
//   - the job journal replays, counting records and noting whether a
//     torn tail was truncated (expected after a crash, not an error)
//   - the audit log re-verifies every batch root and chain link, then
//     re-derives and checks the inclusion proof of every verdict
//   - a scan with more than one verdict is reported: its verdict
//     reached a sealed batch but its journal record did not, so
//     recovery ran it again. Both verdicts verify, so this is not a
//     problem for the exit status.
//
// Exit 0 when everything verifies; 1 when anything is corrupt.

import (
	"fmt"
	"io"
	"path"

	"sysrle/internal/auditlog"
	"sysrle/internal/store"
	"sysrle/internal/wal"
)

// runFsck checks dataDir and writes a human-readable report. The
// returned error is non-nil when any component failed verification.
func runFsck(fsys store.FS, dataDir string, out io.Writer) error {
	if dataDir == "" {
		return fmt.Errorf("-fsck needs -data-dir")
	}
	bad := 0

	for _, tier := range []string{"refs", "blobs"} {
		st, err := store.Open(fsys, path.Join(dataDir, tier), nil)
		if err != nil {
			return fmt.Errorf("%s: %w", tier, err)
		}
		rep, err := st.Fsck()
		if err != nil {
			return fmt.Errorf("%s: fsck: %w", tier, err)
		}
		fmt.Fprintf(out, "%-6s %d blobs, %d bytes: %d corrupt, %d misnamed, %d quarantined\n",
			tier, rep.Checked, rep.Bytes, len(rep.Corrupt), len(rep.Misnamed), rep.Quarantined)
		bad += len(rep.Corrupt) + len(rep.Misnamed)
	}

	j, err := wal.Open(fsys, path.Join(dataDir, "wal"), wal.Options{})
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	records := 0
	stats, err := j.Replay(func([]byte) error { records++; return nil })
	_ = j.Close()
	if err != nil {
		return fmt.Errorf("wal: replay: %w", err)
	}
	fmt.Fprintf(out, "wal    %d records in %d segments", records, stats.Segments)
	if stats.Truncated {
		fmt.Fprintf(out, " (torn tail truncated — normal after a crash)")
	}
	fmt.Fprintln(out)

	log, loaded, err := auditlog.Open(fsys, path.Join(dataDir, "audit"), auditlog.Config{FlushInterval: -1})
	if err != nil {
		return fmt.Errorf("audit: %w", err)
	}
	defer log.Close()
	if len(loaded.Orphaned) > 0 {
		fmt.Fprintf(out, "audit  %d batch file(s) failed chain verification and were orphaned: %v\n",
			len(loaded.Orphaned), loaded.Orphaned)
		bad += len(loaded.Orphaned)
	}
	rep, err := log.VerifyAll()
	if err != nil {
		return fmt.Errorf("audit: verify: %w", err)
	}
	proofs, badProofs := 0, 0
	verdicts := map[string][]string{} // "job J scan N" → verdict ids
	var rerun []string                // the keys with a second verdict
	for _, info := range log.Batches() {
		b, err := log.Batch(info.Seq)
		if err != nil {
			badProofs++
			continue
		}
		for _, v := range b.Verdicts {
			k := fmt.Sprintf("job %s scan %d", v.JobID, v.ScanIndex)
			if verdicts[k] = append(verdicts[k], v.ID); len(verdicts[k]) == 2 {
				rerun = append(rerun, k)
			}
			proofs++
			p, err := log.Proof(v.ID)
			if err != nil {
				badProofs++
				continue
			}
			if err := auditlog.VerifyProof(p); err != nil {
				badProofs++
			}
		}
	}
	fmt.Fprintf(out, "audit  %d batches, %d verdicts, %d proofs re-verified: %d chain errors, %d bad proofs\n",
		rep.Batches, rep.Verdicts, proofs, len(rep.Errors), badProofs)
	bad += len(rep.Errors) + badProofs
	for _, k := range rerun {
		fmt.Fprintf(out, "audit  %s has %d verdicts (re-run after recovery): %v\n", k, len(verdicts[k]), verdicts[k])
	}

	if bad > 0 {
		return fmt.Errorf("fsck: %d problem(s) found", bad)
	}
	fmt.Fprintln(out, "clean")
	return nil
}
