package jobs

// Journal persistence for the jobs subsystem. The contract, enforced
// by the chaos suite in crash_test.go:
//
//   - An acknowledged submission survives kill -9: the admit record
//     (spec + content addresses of the archived scan/reference blobs)
//     is journaled before Submit returns the id.
//   - A finished job never re-runs: its done record restores it as a
//     terminal, pollable snapshot.
//   - An interrupted job re-queues exactly its incomplete scans, once,
//     ahead of new work.
//   - Audit verdicts are re-appended from scan records at recovery;
//     content-derived verdict ids make that idempotent, so a batch
//     lost from the audit log's pending buffer is re-derived rather
//     than lost.
//
// Records are JSON — the journal layer below provides framing,
// checksums and the durable-prefix replay; this file only decides
// what the records mean.

import (
	"encoding/json"
	"fmt"
	"time"

	"sysrle/internal/auditlog"
	"sysrle/internal/docclean"
	"sysrle/internal/rle"
)

// Journal record ops.
const (
	opAdmit  = "admit"
	opScan   = "scan"
	opDone   = "done"
	opCancel = "cancel"
	opDelete = "delete"
)

// persistedSpec is the durable form of a Spec: images are replaced by
// the content addresses of their archived blobs.
type persistedSpec struct {
	Type          string          `json:"type,omitempty"`
	RefID         string          `json:"ref_id,omitempty"`
	RefBlob       string          `json:"ref_blob,omitempty"`
	ScanBlobs     []string        `json:"scan_blobs"`
	Engine        string          `json:"engine,omitempty"`
	MinDefectArea int             `json:"min_defect_area,omitempty"`
	MaxAlignShift int             `json:"max_align_shift,omitempty"`
	Doc           docclean.Config `json:"doc,omitempty"`
	Total         int             `json:"total"`
}

// walRecord is one journal entry.
type walRecord struct {
	Op        string         `json:"op"`
	JobID     string         `json:"job_id"`
	Created   time.Time      `json:"created,omitempty"`    // admit
	Spec      *persistedSpec `json:"spec,omitempty"`       // admit
	Index     int            `json:"index,omitempty"`      // scan
	Result    *ScanResult    `json:"result,omitempty"`     // scan
	AuditTime time.Time      `json:"audit_time,omitempty"` // scan: verdict timestamp, for idempotent re-append
	State     State          `json:"state,omitempty"`      // done
	Finished  time.Time      `json:"finished,omitempty"`   // done
}

// encodeImage returns the canonical RLEB bytes of an image — the same
// bytes (and therefore the same content address) the refstore would
// assign it.
func encodeImage(img *rle.Image) []byte { return rle.AppendBinary(nil, img.Canonicalize()) }

// archiveSpec stores a submission's images as content-addressed blobs
// and returns the durable spec. Without a journal it returns nil
// (nothing to persist); without a blob store the spec is journaled
// with empty blob ids and recovery fails the pending scans instead of
// re-running them.
func (m *Manager) archiveSpec(spec Spec) (*persistedSpec, error) {
	if m.cfg.Journal == nil {
		return nil, nil
	}
	p := &persistedSpec{
		Type:          spec.Type,
		RefID:         spec.RefID,
		Engine:        spec.Engine,
		MinDefectArea: spec.MinDefectArea,
		MaxAlignShift: spec.MaxAlignShift,
		Doc:           spec.Doc,
		Total:         len(spec.Scans),
		ScanBlobs:     make([]string, len(spec.Scans)),
	}
	if m.cfg.Blobs == nil {
		return p, nil
	}
	if spec.Ref != nil {
		var err error
		if p.RefBlob, err = m.cfg.Blobs.Put(encodeImage(spec.Ref)); err != nil {
			return nil, fmt.Errorf("jobs: archive reference: %w", err)
		}
	}
	for i, scan := range spec.Scans {
		var err error
		if p.ScanBlobs[i], err = m.cfg.Blobs.Put(encodeImage(scan)); err != nil {
			return nil, fmt.Errorf("jobs: archive scan %d: %w", i, err)
		}
	}
	return p, nil
}

// journalAdmit appends (and, per policy, syncs) a job's admission.
// Called under m.mu, before the job becomes visible.
func (m *Manager) journalAdmit(j *job) error {
	if m.cfg.Journal == nil {
		return nil
	}
	rec := walRecord{Op: opAdmit, JobID: j.id, Created: j.created, Spec: j.persist}
	data, err := json.Marshal(&rec)
	if err != nil {
		return fmt.Errorf("jobs: journal admit: %w", err)
	}
	if err := m.cfg.Journal.Append(data); err != nil {
		return fmt.Errorf("jobs: journal admit: %w", err)
	}
	return nil
}

// journalAppend appends a lifecycle record, best-effort: a failed
// append degrades durability (the journal's sticky Err flips the
// readiness probe) but never fails live work that already happened.
func (m *Manager) journalAppend(rec walRecord) {
	if m.cfg.Journal == nil {
		return
	}
	if data, err := json.Marshal(&rec); err == nil {
		_ = m.cfg.Journal.Append(data)
	}
}

// verdict builds the audit-log entry for one successful inspect scan.
// The reference is pinned by content: the refstore id, or the archived
// inline reference's blob id (the same hash by construction).
func (j *job) verdict(res ScanResult, at time.Time) auditlog.Verdict {
	refID := j.spec.RefID
	if refID == "" && j.persist != nil {
		refID = j.persist.RefBlob
	}
	return auditlog.Verdict{
		Time:       at,
		JobID:      j.id,
		ScanIndex:  res.Index,
		RefID:      refID,
		Engine:     engineName(j.spec.Type, j.spec.Engine),
		Clean:      res.Clean,
		Defects:    res.Defects,
		DiffPixels: res.DiffPixels,
	}
}

// recoveredJob accumulates one job's state during replay.
type recoveredJob struct {
	created    time.Time
	spec       *persistedSpec
	results    map[int]ScanResult
	auditTimes map[int]time.Time
	state      State
	finished   time.Time
	canceled   bool
	deleted    bool
	order      int
}

// recoverJournal replays the journal (when configured) into restored
// job records plus the tasks to re-queue. Replay is last-write-wins
// per (job, scan), which makes the post-checkpoint duplication window
// harmless.
func recoverJournal(cfg Config) (jobs []*job, pending []task, maxSeq uint64, err error) {
	if cfg.Journal == nil {
		return nil, nil, 0, nil
	}
	recovered := make(map[string]*recoveredJob)
	order := 0
	_, err = cfg.Journal.Replay(func(payload []byte) error {
		var rec walRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			// A record that framed and checksummed correctly but does
			// not parse is from a future or corrupt writer; skip it
			// rather than abort the whole recovery.
			return nil
		}
		r := recovered[rec.JobID]
		if r == nil {
			r = &recoveredJob{results: make(map[int]ScanResult), auditTimes: make(map[int]time.Time), order: order}
			order++
			recovered[rec.JobID] = r
		}
		switch rec.Op {
		case opAdmit:
			r.created, r.spec, r.deleted = rec.Created, rec.Spec, false
		case opScan:
			if rec.Result != nil {
				r.results[rec.Result.Index] = *rec.Result
				if !rec.AuditTime.IsZero() {
					r.auditTimes[rec.Result.Index] = rec.AuditTime
				}
			}
		case opDone:
			r.state, r.finished = rec.State, rec.Finished
		case opCancel:
			r.canceled = true
		case opDelete:
			r.deleted = true
		}
		return nil
	})
	if err != nil {
		return nil, nil, 0, fmt.Errorf("jobs: journal replay: %w", err)
	}

	ids := make([]string, 0, len(recovered))
	for id := range recovered {
		ids = append(ids, id)
	}
	// Restore in admission order so recovered backlog re-queues the
	// way it was submitted.
	sortByOrder(ids, recovered)
	for _, id := range ids {
		r := recovered[id]
		var n uint64
		if _, serr := fmt.Sscanf(id, "job-%06d", &n); serr == nil && n > maxSeq {
			maxSeq = n
		}
		if r.deleted || r.spec == nil {
			continue
		}
		j, tasks := rebuildJob(cfg, id, r)
		jobs = append(jobs, j)
		pending = append(pending, tasks...)
	}
	return jobs, pending, maxSeq, nil
}

func sortByOrder(ids []string, recovered map[string]*recoveredJob) {
	for i := 1; i < len(ids); i++ {
		for k := i; k > 0 && recovered[ids[k-1]].order > recovered[ids[k]].order; k-- {
			ids[k-1], ids[k] = ids[k], ids[k-1]
		}
	}
}

// rebuildJob turns one recovered record set into a live job plus the
// tasks that still need to run.
func rebuildJob(cfg Config, id string, r *recoveredJob) (*job, []task) {
	p := r.spec
	j := &job{
		id: id,
		spec: Spec{
			Type:          p.Type,
			RefID:         p.RefID,
			Engine:        p.Engine,
			MinDefectArea: p.MinDefectArea,
			MaxAlignShift: p.MaxAlignShift,
			Doc:           p.Doc,
		},
		total:    p.Total,
		persist:  p,
		created:  r.created,
		canceled: r.canceled,
		state:    StateQueued,
	}
	j.initScans(p.Total)
	for i, res := range r.results {
		if i < 0 || i >= p.Total {
			continue
		}
		j.results[i] = res
		j.recorded[i] = true
		j.auditTimes[i] = r.auditTimes[i]
		j.done++
		if res.Error != "" && res.Error != "canceled" {
			j.failed++
		}
		// Re-derive the audit entry: if its batch flushed before the
		// crash this is a content-addressed no-op, and if it was
		// pending it is restored.
		if cfg.Audit != nil && res.Error == "" && typeName(p.Type) == TypeInspect {
			if at := j.auditTimes[i]; !at.IsZero() {
				if aid, err := cfg.Audit.Append(j.verdict(res, at)); err == nil {
					j.results[i].AuditID = aid
				}
			}
		}
	}

	var tasks []task
	if j.done < j.total && !r.canceled {
		// Decode what the pending scans need. A blob lost to rot fails
		// the scan — visibly, in its result — rather than the recovery.
		ref, refErr := loadImage(cfg, p.RefBlob, p.RefID)
		j.ref = ref
		for i := 0; i < j.total; i++ {
			if j.recorded[i] {
				continue
			}
			var scanErr error
			var scan *rle.Image
			if refErr != nil && typeName(p.Type) == TypeInspect {
				scanErr = fmt.Errorf("recovery: reference unavailable: %v", refErr)
			} else if i < len(p.ScanBlobs) {
				scan, scanErr = loadImage(cfg, p.ScanBlobs[i], "")
			} else {
				scanErr = fmt.Errorf("recovery: scan %d was not archived", i)
			}
			if scanErr != nil {
				j.results[i] = ScanResult{Index: i, Error: scanErr.Error()}
				j.recorded[i] = true
				j.done++
				j.failed++
				continue
			}
			// Grow spec.Scans sparsely to hold re-runnable images at
			// their original indices.
			for len(j.spec.Scans) <= i {
				j.spec.Scans = append(j.spec.Scans, nil)
			}
			j.spec.Scans[i] = scan
			tasks = append(tasks, task{job: j, scan: i})
		}
	}

	// Finalize: jobs with every scan accounted for (including those we
	// just failed above), canceled jobs with no queue presence, and
	// jobs whose done record survived.
	if j.done >= j.total || (r.canceled && len(tasks) == 0) {
		switch {
		case r.state.Terminal():
			j.state = r.state
		case j.canceled:
			j.state = StateCanceled
		case j.failed > 0:
			j.state = StateFailed
		default:
			j.state = StateDone
		}
		j.finished = r.finished
		if j.finished.IsZero() {
			j.finished = cfg.Clock.Now()
		}
	} else if r.canceled {
		j.state = StateCanceled
	}
	if j.done > 0 && !j.state.Terminal() {
		j.state = StateRunning
		j.started = r.created
	}
	return j, tasks
}

// loadImage fetches and decodes an archived image: from the blob
// store by content address, or from the refstore by reference id.
func loadImage(cfg Config, blobID, refID string) (*rle.Image, error) {
	if refID != "" {
		if cfg.Store == nil {
			return nil, fmt.Errorf("no reference store")
		}
		return cfg.Store.Get(refID)
	}
	if blobID == "" {
		return nil, nil // docclean pending scans carry no reference
	}
	if cfg.Blobs == nil {
		return nil, fmt.Errorf("no blob store")
	}
	data, err := cfg.Blobs.Get(blobID)
	if err != nil {
		return nil, err
	}
	return rle.DecodeBinary(data)
}

// snapshotRecords serializes the full retained state as journal
// records — the Checkpoint payload.
func (m *Manager) snapshotRecords() [][]byte {
	m.mu.Lock()
	js := make([]*job, 0, len(m.jobs))
	for _, j := range m.jobs {
		js = append(js, j)
	}
	m.mu.Unlock()
	// Admission order, so a recovery of the snapshot preserves it.
	for i := 1; i < len(js); i++ {
		for k := i; k > 0 && js[k-1].id > js[k].id; k-- {
			js[k-1], js[k] = js[k], js[k-1]
		}
	}
	var out [][]byte
	add := func(rec walRecord) {
		if data, err := json.Marshal(&rec); err == nil {
			out = append(out, data)
		}
	}
	for _, j := range js {
		j.mu.Lock()
		if j.persist == nil {
			j.mu.Unlock()
			continue
		}
		add(walRecord{Op: opAdmit, JobID: j.id, Created: j.created, Spec: j.persist})
		if j.canceled {
			add(walRecord{Op: opCancel, JobID: j.id})
		}
		for i, done := range j.recorded {
			if done {
				res := j.results[i]
				add(walRecord{Op: opScan, JobID: j.id, Index: i, Result: &res, AuditTime: j.auditTimes[i]})
			}
		}
		if j.state.Terminal() {
			add(walRecord{Op: opDone, JobID: j.id, State: j.state, Finished: j.finished})
		}
		j.mu.Unlock()
	}
	return out
}
