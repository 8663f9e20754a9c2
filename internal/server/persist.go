package server

// The durable tier of the service: opened by Open when Config.DataDir
// is set, invisible otherwise. Layout under the data directory:
//
//	refs/   content-addressed reference blobs (the refstore's disk
//	        tier — references survive restarts, the LRU stays a cache)
//	blobs/  archived job images (what journal replay re-runs scans from)
//	wal/    the job-lifecycle write-ahead journal
//	audit/  the Merkle-batched verdict log
//
// The audit endpoints live here too: GET /v1/audit lists sealed
// batches (the chain), GET /v1/audit/{id}/proof returns the inclusion
// proof for one verdict — everything a client needs to verify the
// verdict offline against a pinned chain head.

import (
	"errors"
	"fmt"
	"net/http"
	"path"
	"strings"

	"sysrle/internal/apiclient"
	"sysrle/internal/auditlog"
	"sysrle/internal/fault"
	"sysrle/internal/store"
	"sysrle/internal/wal"
)

// openStorage builds the durable tier per Config.DataDir; a no-op
// when the service is memory-only.
func (s *Server) openStorage() error {
	if s.cfg.DataDir == "" {
		return nil
	}
	fsys := s.cfg.FS
	if fsys == nil {
		fsys = store.OS()
	}
	if s.cfg.DiskFaultPlan != nil {
		s.log.Warn("disk fault injection enabled (chaos mode)", "plan", s.cfg.DiskFaultPlan.String())
		fsys = fault.WrapFS(fsys, fault.NewDiskInjector(*s.cfg.DiskFaultPlan, s.reg))
	}
	var err error
	if s.refBlobs, err = store.Open(fsys, path.Join(s.cfg.DataDir, "refs"), s.reg); err != nil {
		return fmt.Errorf("server: reference store: %w", err)
	}
	if s.jobBlobs, err = store.Open(fsys, path.Join(s.cfg.DataDir, "blobs"), s.reg); err != nil {
		return fmt.Errorf("server: job blob store: %w", err)
	}
	if s.journal, err = wal.Open(fsys, path.Join(s.cfg.DataDir, "wal"), wal.Options{
		Policy:     s.cfg.WALSync,
		BatchEvery: s.cfg.WALSyncEvery,
		Registry:   s.reg,
	}); err != nil {
		return fmt.Errorf("server: job journal: %w", err)
	}
	var rep auditlog.LoadReport
	if s.audit, rep, err = auditlog.Open(fsys, path.Join(s.cfg.DataDir, "audit"), auditlog.Config{
		BatchSize:     s.cfg.AuditBatch,
		FlushInterval: s.cfg.AuditFlushInterval,
		Registry:      s.reg,
	}); err != nil {
		return fmt.Errorf("server: audit log: %w", err)
	}
	s.log.Info("durable storage open", "dir", s.cfg.DataDir,
		"audit_batches", rep.Batches, "audit_verdicts", rep.Verdicts)
	if len(rep.Orphaned) > 0 {
		s.log.Warn("audit log verification orphaned batches", "orphaned", rep.Orphaned)
	}
	s.AddProbe("storage", s.storageProbe)
	return nil
}

// storageProbe fails readiness while any persistence component holds
// a sticky write error — the instance can still answer reads, but an
// orchestrator should stop routing work whose durability guarantee is
// already broken.
func (s *Server) storageProbe() (bool, string) {
	var faults []string
	for _, c := range []struct {
		name string
		err  error
	}{
		{"refs", s.refBlobs.Err()},
		{"blobs", s.jobBlobs.Err()},
		{"wal", s.journal.Err()},
		{"audit", s.audit.Err()},
	} {
		if c.err != nil {
			faults = append(faults, fmt.Sprintf("%s: %v", c.name, c.err))
		}
	}
	if len(faults) > 0 {
		return false, strings.Join(faults, "; ")
	}
	return true, fmt.Sprintf("dir=%s audit_batches=%d", s.cfg.DataDir, len(s.audit.Batches()))
}

func (s *Server) handleAuditBatches(w http.ResponseWriter, r *http.Request) {
	if s.audit == nil {
		s.httpError(w, r, http.StatusNotFound, errors.New("audit log not enabled (start with -data-dir)"))
		return
	}
	batches := s.audit.Batches()
	if batches == nil {
		batches = []auditlog.BatchInfo{}
	}
	apiclient.WriteJSON(w, http.StatusOK, apiclient.AuditSummary{
		ChainHead: s.audit.ChainHead(),
		Pending:   s.audit.Pending(),
		Batches:   batches,
	})
}

func (s *Server) handleAuditProof(w http.ResponseWriter, r *http.Request) {
	if s.audit == nil {
		s.httpError(w, r, http.StatusNotFound, errors.New("audit log not enabled (start with -data-dir)"))
		return
	}
	id := r.PathValue("id")
	proof, err := s.audit.Proof(id)
	if err != nil {
		code := http.StatusInternalServerError
		if errors.Is(err, auditlog.ErrNotFound) {
			code = http.StatusNotFound
		}
		s.httpError(w, r, code, fmt.Errorf("verdict %q: %w", id, err))
		return
	}
	apiclient.WriteJSON(w, http.StatusOK, proof)
}
