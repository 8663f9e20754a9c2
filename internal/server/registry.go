package server

// The reference-registry and batch-job endpoints. The synchronous
// compare endpoints live in server.go; everything here is the async
// side: register a golden reference once, then submit batches of
// scans against it and poll.

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"sysrle/internal/apiclient"
	"sysrle/internal/jobs"
	"sysrle/internal/refstore"
)

func (s *Server) handleRefPut(w http.ResponseWriter, r *http.Request) {
	up, ok := s.readUpload(w, r)
	if !ok {
		return
	}
	defer up.Close()
	img, err := up.Image("image")
	if err != nil {
		s.httpError(w, r, http.StatusBadRequest, err)
		return
	}
	meta, err := s.refs.Put(img)
	if err != nil {
		s.httpError(w, r, http.StatusUnprocessableEntity, err)
		return
	}
	apiclient.WriteJSON(w, http.StatusCreated, meta)
}

func (s *Server) handleRefList(w http.ResponseWriter, r *http.Request) {
	apiclient.WriteJSON(w, http.StatusOK, apiclient.ReferenceList{References: s.refs.List()})
}

func (s *Server) handleRefGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	meta, ok := s.refs.Meta(id)
	if !ok {
		s.httpError(w, r, http.StatusNotFound, fmt.Errorf("reference %q: %w", id, refstore.ErrNotFound))
		return
	}
	apiclient.WriteJSON(w, http.StatusOK, meta)
}

// handleRefContent streams the canonical RLEB encoding of a stored
// reference — what a cluster coordinator moves during rebalancing,
// and exactly the bytes whose SHA-256 is the reference id.
func (s *Server) handleRefContent(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	enc, ok := s.refs.Encoded(id)
	if !ok {
		s.httpError(w, r, http.StatusNotFound, fmt.Errorf("reference %q: %w", id, refstore.ErrNotFound))
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(enc)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(enc)
}

func (s *Server) handleRefDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.refs.Delete(id) {
		s.httpError(w, r, http.StatusNotFound, fmt.Errorf("reference %q: %w", id, refstore.ErrNotFound))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// intQuery parses an optional bounded integer query parameter.
func intQuery(r *http.Request, name string, lo, hi int) (int, error) {
	q := r.URL.Query().Get(name)
	if q == "" {
		return 0, nil
	}
	v, err := strconv.Atoi(q)
	if err != nil || v < lo || v > hi {
		return 0, fmt.Errorf("bad %s %q (want %d..%d)", name, q, lo, hi)
	}
	return v, nil
}

// inspectQuery parses the inspect parameters shared by POST
// /v1/inspect and POST /v1/jobs: min-area and align.
func inspectQuery(r *http.Request) (minDefectArea, maxAlignShift int, err error) {
	if minDefectArea, err = intQuery(r, "min-area", 0, 1<<30); err != nil {
		return 0, 0, err
	}
	maxAlignShift, err = intQuery(r, "align", 0, 256)
	return minDefectArea, maxAlignShift, err
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	spec := jobs.Spec{
		Type:   r.URL.Query().Get("type"),
		Engine: r.URL.Query().Get("engine"),
	}
	switch spec.Type {
	case "", jobs.TypeInspect:
		var err error
		if spec.MinDefectArea, spec.MaxAlignShift, err = inspectQuery(r); err != nil {
			s.httpError(w, r, http.StatusBadRequest, err)
			return
		}
	case jobs.TypeDocClean:
		var err error
		if spec.Doc, err = docCleanConfigFromQuery(r); err != nil {
			s.httpError(w, r, http.StatusBadRequest, err)
			return
		}
	default:
		s.httpError(w, r, http.StatusBadRequest, fmt.Errorf("unknown job type %q (have inspect, docclean)", spec.Type))
		return
	}
	up, ok := s.readUpload(w, r)
	if !ok {
		return
	}
	defer up.Close()

	if spec.Type == jobs.TypeDocClean {
		// Per-page cleanup takes no reference; reject rather than
		// silently ignore one (same strictness as jobs.Submit applies
		// to the engine parameter).
		if _, file := up.File("ref"); r.URL.Query().Get("ref") != "" || up.Value("ref") != "" || file {
			s.httpError(w, r, http.StatusBadRequest, errors.New("docclean jobs take no reference"))
			return
		}
	} else {
		spec.RefID = r.URL.Query().Get("ref")
		if spec.RefID == "" {
			spec.RefID = up.Value("ref")
		}
		if spec.RefID == "" {
			// No registered reference named: accept one uploaded inline.
			ref, err := up.Image("ref")
			if err != nil {
				s.httpError(w, r, http.StatusBadRequest,
					fmt.Errorf("need ?ref=<id>, form value \"ref\", or an uploaded \"ref\" file: %v", err))
				return
			}
			spec.Ref = ref
		}
	}

	var err error
	if spec.Scans, err = up.Images("scan"); err != nil {
		s.httpError(w, r, http.StatusBadRequest, err)
		return
	}
	if len(spec.Scans) == 0 {
		s.httpError(w, r, http.StatusBadRequest, errors.New(`no "scan" uploads in form`))
		return
	}

	id, err := s.jobs.Submit(spec)
	switch {
	case err == nil:
	case errors.Is(err, jobs.ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		s.httpError(w, r, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, refstore.ErrNotFound):
		s.httpError(w, r, http.StatusNotFound, fmt.Errorf("reference %q: %w", spec.RefID, err))
		return
	case errors.Is(err, jobs.ErrClosed):
		s.httpError(w, r, http.StatusServiceUnavailable, err)
		return
	default:
		s.httpError(w, r, http.StatusBadRequest, err)
		return
	}
	status, err := s.jobs.Get(id)
	if err != nil {
		// Submitted and already collected is impossible within one
		// request; report it rather than hide it.
		s.httpError(w, r, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+id)
	apiclient.WriteJSON(w, http.StatusAccepted, status)
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	apiclient.WriteJSON(w, http.StatusOK, apiclient.JobList{Jobs: s.jobs.List()})
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	status, err := s.jobs.Get(id)
	if err != nil {
		s.httpError(w, r, http.StatusNotFound, fmt.Errorf("job %q: %w", id, jobs.ErrNotFound))
		return
	}
	apiclient.WriteJSON(w, http.StatusOK, status)
}

func (s *Server) handleJobDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.jobs.Delete(id); err != nil {
		s.httpError(w, r, http.StatusNotFound, fmt.Errorf("job %q: %w", id, jobs.ErrNotFound))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}
