package server

// The health subsystem: /healthz stays a static liveness check (the
// process is up and serving), while /readyz aggregates real readiness
// probes — worker-pool liveness, job-queue saturation, reference-cache
// budget pressure and load-shed state — into a per-probe JSON
// breakdown, 200 when everything passes and 503 otherwise. The split
// matches the paper's termination design: liveness is the wired-AND
// ("the array answered"), readiness is the per-cell status vector
// ("every cell can accept the next row").

import (
	"fmt"
	"net/http"

	"sysrle/internal/apiclient"
)

// Saturation thresholds for the built-in probes, in tenths: the queue
// probe fails at ≥90% occupancy, the reference-cache probe at ≥95%
// of its byte budget.
const (
	queueSaturationTenths = 9
	refPressureTwentieths = 19
)

// probe is one registered readiness check.
type probe struct {
	name  string
	check func() (ok bool, detail string)
}

// AddProbe registers an additional readiness probe (embedding
// deployments: disk space, upstream dependencies). Probes run on
// every GET /readyz, so checks must be cheap; all registered probes
// must pass for the service to report ready.
func (s *Server) AddProbe(name string, check func() (ok bool, detail string)) {
	s.probeMu.Lock()
	defer s.probeMu.Unlock()
	s.probes = append(s.probes, probe{name: name, check: check})
}

// registerBuiltinProbes wires the probes every deployment gets.
func (s *Server) registerBuiltinProbes() {
	s.AddProbe("workers", func() (bool, string) {
		h := s.jobs.Health()
		detail := fmt.Sprintf("pool=%d busy=%d stuck=%d", h.Workers, h.Busy, h.Stuck)
		return h.Stuck == 0, detail
	})
	s.AddProbe("job-queue", func() (bool, string) {
		h := s.jobs.Health()
		detail := fmt.Sprintf("depth=%d cap=%d", h.QueueDepth, h.QueueCap)
		saturated := h.QueueCap > 0 && h.QueueDepth*10 >= h.QueueCap*queueSaturationTenths
		return !saturated, detail
	})
	s.AddProbe("ref-cache", func() (bool, string) {
		budget := s.refs.CacheBudget()
		resident := s.refs.ResidentBytes()
		if budget <= 0 {
			return true, "caching disabled"
		}
		detail := fmt.Sprintf("resident=%d budget=%d", resident, budget)
		return resident*20 < budget*refPressureTwentieths, detail
	})
	s.AddProbe("load-shed", func() (bool, string) {
		if s.cfg.MaxInFlight <= 0 {
			return true, "limiter disabled"
		}
		inFlight := s.inFlight.Value()
		detail := fmt.Sprintf("in_flight=%d max=%d", inFlight, s.cfg.MaxInFlight)
		return inFlight < int64(s.cfg.MaxInFlight), detail
	})
}

// handleReadyz evaluates every probe and reports readiness: 200 with
// the per-probe breakdown when all pass, 503 (same JSON body) when
// any fails, so orchestrators pull the instance from rotation while
// the breakdown says exactly why.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	s.probeMu.Lock()
	probes := make([]probe, len(s.probes))
	copy(probes, s.probes)
	s.probeMu.Unlock()
	resp := apiclient.ReadyStatus{Ready: true, Probes: make([]apiclient.ReadyProbe, 0, len(probes))}
	for _, p := range probes {
		ok, detail := p.check()
		if !ok {
			resp.Ready = false
		}
		resp.Probes = append(resp.Probes, apiclient.ReadyProbe{Name: p.name, OK: ok, Detail: detail})
	}
	code := http.StatusOK
	if !resp.Ready {
		code = http.StatusServiceUnavailable
		if s.notReadyC != nil {
			s.notReadyC.Inc()
		}
	}
	apiclient.WriteJSON(w, code, resp)
}
