package server

import (
	"fmt"
	"net/http"
	"strconv"

	"sysrle/internal/apiclient"
	"sysrle/internal/docclean"
	"sysrle/internal/imageio"
)

// docCleanConfigFromQuery parses the docclean tuning parameters shared
// by POST /v1/docclean and POST /v1/jobs?type=docclean. Absent
// parameters stay zero and get page-size-derived defaults inside the
// pipeline.
func docCleanConfigFromQuery(r *http.Request) (docclean.Config, error) {
	var cfg docclean.Config
	var err error
	if cfg.MaxSpeckleArea, err = intQuery(r, "max-speckle", 0, 1<<30); err != nil {
		return cfg, err
	}
	if cfg.MinLineLen, err = intQuery(r, "min-line", 0, 1<<30); err != nil {
		return cfg, err
	}
	if cfg.CloseGapX, err = intQuery(r, "close-x", 0, 1<<20); err != nil {
		return cfg, err
	}
	if cfg.CloseGapY, err = intQuery(r, "close-y", 0, 1<<20); err != nil {
		return cfg, err
	}
	if cfg.MinBlockArea, err = intQuery(r, "min-block", 0, 1<<30); err != nil {
		return cfg, err
	}
	switch q := r.URL.Query().Get("keep-lines"); q {
	case "", "0", "false":
	case "1", "true":
		cfg.KeepLines = true
	default:
		return cfg, fmt.Errorf("bad keep-lines %q (want true or false)", q)
	}
	return cfg, nil
}

// handleDocClean is the synchronous document-cleanup endpoint: one
// page in, either a JSON report (default) or the cleaned image
// (format=pbm|png|rlet|...) out, with the report folded into
// X-Sysrle-* headers. Batch-scale cleanup goes through
// /v1/jobs?type=docclean instead.
func (s *Server) handleDocClean(w http.ResponseWriter, r *http.Request) {
	cfg, err := docCleanConfigFromQuery(r)
	if err != nil {
		s.httpError(w, r, http.StatusBadRequest, err)
		return
	}
	format := r.URL.Query().Get("format")
	if format != "" && !imageio.IsFormat(format) {
		s.httpError(w, r, http.StatusBadRequest, fmt.Errorf("unknown format %q (have %v)", format, imageio.Formats()))
		return
	}
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
	res, err := docclean.Clean(r.Context(), img, cfg)
	if err != nil {
		s.httpError(w, r, http.StatusUnprocessableEntity, err)
		return
	}
	w.Header().Set("X-Sysrle-Speckles-Removed", strconv.Itoa(res.SpecklesRemoved))
	w.Header().Set("X-Sysrle-Lines-H", strconv.Itoa(res.LinesH))
	w.Header().Set("X-Sysrle-Lines-V", strconv.Itoa(res.LinesV))
	w.Header().Set("X-Sysrle-Blocks", strconv.Itoa(len(res.Blocks)))
	w.Header().Set("X-Sysrle-Output-Area", strconv.Itoa(res.OutputArea))
	if format == "" {
		if res.Blocks == nil {
			res.Blocks = []docclean.Block{}
		}
		apiclient.WriteJSON(w, http.StatusOK, res)
		return
	}
	w.Header().Set("Content-Type", imageio.ContentType(format))
	// Format validated up front; a write error is a broken connection.
	_ = imageio.Write(w, format, res.Cleaned)
}
