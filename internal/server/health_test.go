package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sysrle/internal/apiclient"
	"sysrle/internal/fault"
	"sysrle/internal/jobs"
	"sysrle/internal/perf"
	"sysrle/internal/rle"
	"sysrle/internal/telemetry"
)

// getReadyz fetches /readyz and decodes the per-probe breakdown.
func getReadyz(t *testing.T, base string) (int, apiclient.ReadyStatus) {
	t.Helper()
	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body apiclient.ReadyStatus
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("readyz body did not decode: %v", err)
	}
	return resp.StatusCode, body
}

func probeByName(t *testing.T, body apiclient.ReadyStatus, name string) apiclient.ReadyProbe {
	t.Helper()
	for _, p := range body.Probes {
		if p.Name == name {
			return p
		}
	}
	t.Fatalf("probe %q missing from %+v", name, body.Probes)
	return apiclient.ReadyProbe{}
}

// pollReadyz polls until /readyz returns want (sampling the body at
// that moment) or the deadline passes.
func pollReadyz(t *testing.T, base string, want int, timeout time.Duration) apiclient.ReadyStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	var code int
	var body apiclient.ReadyStatus
	for time.Now().Before(deadline) {
		code, body = getReadyz(t, base)
		if code == want {
			return body
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("readyz never returned %d (last: %d %+v)", want, code, body)
	return apiclient.ReadyStatus{}
}

// flatImage builds a trivial h-row image pair that differs everywhere.
func flatImages(h int) (*rle.Image, *rle.Image) {
	a := rle.NewImage(24, h)
	b := rle.NewImage(24, h)
	for y := 0; y < h; y++ {
		a.Rows[y] = rle.Row{rle.Span(0, 5)}
		b.Rows[y] = rle.Row{rle.Span(3, 8)}
	}
	return a, b
}

func TestReadyzHealthy(t *testing.T) {
	s := New()
	defer s.Close()
	srv := httptest.NewServer(s)
	defer srv.Close()

	code, body := getReadyz(t, srv.URL)
	if code != http.StatusOK || !body.Ready {
		t.Fatalf("healthy server readyz = %d %+v", code, body)
	}
	for _, name := range []string{"workers", "job-queue", "ref-cache", "load-shed"} {
		if p := probeByName(t, body, name); !p.OK {
			t.Errorf("probe %s failing on an idle server: %+v", name, p)
		}
	}
}

// TestReadyzQueueSaturation is the e2e acceptance path: fill the job
// queue past the saturation threshold, watch /readyz flip to 503 with
// the job-queue probe failing, then drain and watch it recover to 200.
func TestReadyzQueueSaturation(t *testing.T) {
	plan := fault.Plan{Seed: 1, Rate: 1, Kinds: []fault.Kind{fault.KindSlow}, SlowFor: 300 * time.Millisecond}
	s := NewWith(Config{JobWorkers: 1, JobQueueDepth: 4, FaultPlan: &plan})
	defer s.Close()
	srv := httptest.NewServer(s)
	defer srv.Close()

	ref, scan := flatImages(1)
	// One scan occupies the lone worker (each row sleeps 300ms under
	// the slow fault); four more fill the queue to 100% ≥ the 90%
	// saturation threshold.
	if _, err := s.jobs.Submit(jobs.Spec{Ref: ref, Scans: []*rle.Image{scan}}); err != nil {
		t.Fatal(err)
	}
	// Admission is all-or-nothing, so wait for the worker to pull the
	// first scan off the queue before filling it completely.
	for deadline := time.Now().Add(5 * time.Second); ; {
		if h := s.jobs.Health(); h.QueueDepth == 0 && h.Busy == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker never picked up the blocking scan: %+v", s.jobs.Health())
		}
		time.Sleep(time.Millisecond)
	}
	id, err := s.jobs.Submit(jobs.Spec{Ref: ref, Scans: []*rle.Image{scan, scan, scan, scan}})
	if err != nil {
		t.Fatal(err)
	}

	body := pollReadyz(t, srv.URL, http.StatusServiceUnavailable, 5*time.Second)
	if body.Ready {
		t.Errorf("503 body claims ready: %+v", body)
	}
	if p := probeByName(t, body, "job-queue"); p.OK || !strings.Contains(p.Detail, "depth=") {
		t.Errorf("job-queue probe during saturation: %+v", p)
	}

	// Recovery: the queue drains and readiness returns.
	waitJob(t, s, id)
	pollReadyz(t, srv.URL, http.StatusOK, 10*time.Second)

	// The outage was counted.
	if n := s.reg.Counter("sysrle_http_not_ready_total").Value(); n < 1 {
		t.Errorf("not-ready counter = %d, want >= 1", n)
	}
}

// TestReadyzStuckWorker: a worker stuck on one scan past StuckAfter
// fails the workers probe, and readiness recovers when it finishes.
func TestReadyzStuckWorker(t *testing.T) {
	plan := fault.Plan{Seed: 2, Rate: 1, Kinds: []fault.Kind{fault.KindSlow}, SlowFor: 400 * time.Millisecond}
	s := NewWith(Config{JobWorkers: 1, StuckAfter: time.Millisecond, FaultPlan: &plan})
	defer s.Close()
	srv := httptest.NewServer(s)
	defer srv.Close()

	ref, scan := flatImages(1)
	id, err := s.jobs.Submit(jobs.Spec{Ref: ref, Scans: []*rle.Image{scan}})
	if err != nil {
		t.Fatal(err)
	}
	body := pollReadyz(t, srv.URL, http.StatusServiceUnavailable, 5*time.Second)
	if p := probeByName(t, body, "workers"); p.OK || !strings.Contains(p.Detail, "stuck=1") {
		t.Errorf("workers probe with a stuck worker: %+v", p)
	}
	waitJob(t, s, id)
	pollReadyz(t, srv.URL, http.StatusOK, 10*time.Second)
}

// TestReadyzCustomProbe: embedders can add probes, and one failing
// probe is enough to pull the instance from rotation.
func TestReadyzCustomProbe(t *testing.T) {
	s := New()
	defer s.Close()
	s.AddProbe("upstream", func() (bool, string) { return false, "dependency down" })
	srv := httptest.NewServer(s)
	defer srv.Close()

	code, body := getReadyz(t, srv.URL)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("readyz = %d, want 503", code)
	}
	if p := probeByName(t, body, "upstream"); p.OK || p.Detail != "dependency down" {
		t.Errorf("custom probe: %+v", p)
	}
}

// TestFaultInjectionEndToEnd exercises the -fault-inject wiring: with
// a chaos plan configured on the server, injected faults are detected
// and recovered by the verified engine, jobs still converge to the
// correct answer, and the fault telemetry is exported.
func TestFaultInjectionEndToEnd(t *testing.T) {
	plan := fault.Plan{Seed: 7, Rate: 0.5, Kinds: []fault.Kind{
		fault.KindCorruptRun, fault.KindDropRun, fault.KindStuckEmpty, fault.KindError,
	}}
	s := NewWith(Config{JobWorkers: 2, FaultPlan: &plan})
	defer s.Close()
	srv := httptest.NewServer(s)
	defer srv.Close()

	ref, scan := flatImages(48)
	id, err := s.jobs.Submit(jobs.Spec{Ref: ref, Scans: []*rle.Image{scan, ref.Clone()}})
	if err != nil {
		t.Fatal(err)
	}
	st := waitJob(t, s, id)
	if st.State != jobs.StateDone {
		t.Fatalf("chaos job state = %s (results %+v)", st.State, st.Results)
	}
	// Scan 0 differs on every row; scan 1 is identical to the
	// reference. Faults must not change either verdict.
	if st.Results[0].Clean || st.Results[0].DiffPixels != 48*6 {
		t.Errorf("scan 0 result %+v, want 288 differing pixels", st.Results[0])
	}
	if !st.Results[1].Clean {
		t.Errorf("scan 1 result %+v, want clean", st.Results[1])
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	metrics, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(metrics), "sysrle_fault_injected_total") {
		t.Error("metrics missing sysrle_fault_injected_total")
	}
	if !strings.Contains(string(metrics), "sysrle_fault_recovered_total") {
		t.Error("metrics missing sysrle_fault_recovered_total")
	}
}

// TestFaultInjectionPublishesPlannerTallies: in chaos mode a job's
// planner runs inside the verified and fault-injecting wrappers, which
// forward the row loop's flush to it, so its routing decisions reach
// the registry: one per scanned row. The faults drawn here all let the
// planner run its row before corrupting the answer.
func TestFaultInjectionPublishesPlannerTallies(t *testing.T) {
	plan := fault.Plan{Seed: 3, Rate: 0.5, Kinds: []fault.Kind{fault.KindCorruptRun, fault.KindDropRun, fault.KindStuckEmpty}}
	reg := telemetry.NewRegistry()
	s := NewWith(Config{JobWorkers: 1, FaultPlan: &plan, Registry: reg})
	defer s.Close()
	const height = 40
	ref, scan := flatImages(height)
	rows, ratios := plannerTallies(reg)
	id, err := s.jobs.Submit(jobs.Spec{Ref: ref, Scans: []*rle.Image{scan, ref.Clone()}})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitJob(t, s, id); st.State != jobs.StateDone {
		t.Fatalf("chaos job state = %s (results %+v)", st.State, st.Results)
	}
	if reg.Counter("sysrle_fault_recovered_total").Value() == 0 {
		t.Fatal("no fault was injected and recovered; the plan does not exercise the wrappers")
	}
	gotRows, gotRatios := plannerTallies(reg)
	if gotRows-rows != 2*height || gotRatios-ratios != 2*height {
		t.Errorf("planner published %d rows and %d ratios over 2 scans of %d rows, want %d each",
			gotRows-rows, gotRatios-ratios, height, 2*height)
	}
}

// TestFaultInjectionKeepsLockstepCellCap: chaos mode answers as
// production does when the served lockstep refuses a row pair too wide
// for its array. The refusal is not a fault, so the verified engine
// neither recovers it on the sequential merge nor counts it, and the
// scan fails naming the capacity.
func TestFaultInjectionKeepsLockstepCellCap(t *testing.T) {
	plan, err := fault.ParsePlan("rate=0.01,seed=1,kinds=slow")
	if err != nil {
		t.Fatal(err)
	}
	s := NewWith(Config{JobWorkers: 1, FaultPlan: &plan})
	defer s.Close()
	// One 4096-wide row pair of alternating pixels needs 4097 cells.
	wide, err := perf.GeneratePair("worst", 4096, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	id, err := s.jobs.Submit(jobs.Spec{Engine: "lockstep", Ref: wide.A, Scans: []*rle.Image{wide.B}})
	if err != nil {
		t.Fatal(err)
	}
	st := waitJob(t, s, id)
	if st.State != jobs.StateFailed || !strings.Contains(st.Results[0].Error, "exceeds array capacity") {
		t.Errorf("chaos job: state %s, results %+v; want a failed scan naming the capacity", st.State, st.Results)
	}
	if n := s.reg.Counter("sysrle_fault_recovered_total").Value(); n != 0 {
		t.Errorf("the refusal was counted as %d recovered faults", n)
	}
}

// waitJob polls the manager until the job is terminal.
func waitJob(t *testing.T, s *Server, id string) jobs.Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st, err := s.jobs.Get(id)
		if err != nil {
			t.Fatalf("job %s vanished: %v", id, err)
		}
		if st.State.Terminal() && st.ScansDone == st.ScansTotal {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return jobs.Status{}
}
