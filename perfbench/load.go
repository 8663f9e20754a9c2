package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// pollInterval is the pause between a batch client's job polls. A
// job of two 128² scans takes a few milliseconds; a coarser interval
// would round its latency up to whole polls, so a small slowdown that
// costs one more poll would show as a jump in p50_ms.
const pollInterval = 500 * time.Microsecond

// client drives the /v1 API as an inspection line would: HTTP/1.1 over
// loopback, at most conns keep-alive connections, every answer checked.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string, conns int) *client {
	return &client{base: base, hc: &http.Client{
		Timeout: time.Minute,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

type outcome int

const (
	succeeded outcome = iota
	failed            // transport error or unexpected status
	shed              // 429: the service refused the work
	wrong             // answered, but not the expected answer
)

// opResult is one op's outcome. sent and answered bound its first
// request (the diff, the write or the job submission); done is when
// its answer was complete (for a job, the poll that saw it end).
type opResult struct {
	out                  outcome
	err                  string
	units                int // work completed: 1, or a job's scans
	polls, defects       int
	engine               string // the engine a job ran on
	sent, answered, done time.Time
}

func (c *client) send(method, path, ctype string, body []byte, rid string) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	req.Header.Set("X-Request-Id", rid)
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// do runs one op and checks its answer: a diff byte for byte against
// the sequential merge, a write by the content id it must return, a
// job scan by scan against a sequential-engine inspector.
func (c *client) do(o *op, rid string) opResult {
	if o.kind == opJob {
		return c.job(o, rid)
	}
	r := opResult{sent: time.Now()}
	status, body, err := c.send(http.MethodPost, o.path, o.ctype, o.body, rid)
	r.answered = time.Now()
	r.done = r.answered
	want := http.StatusOK
	if o.kind == opWrite {
		want = http.StatusCreated
	}
	switch {
	case err != nil:
		r.out, r.err = failed, err.Error()
	case status == http.StatusTooManyRequests:
		r.out, r.err = shed, "POST "+o.path+": 429"
	case status != want:
		r.out, r.err = failed, fmt.Sprintf("POST %s: status %d: %.200s", o.path, status, body)
	case o.kind == opDiff && !bytes.Equal(body, o.want):
		r.out, r.err = wrong, fmt.Sprintf("POST %s: %d-byte answer differs from the sequential merge", o.path, len(body))
	case o.kind == opWrite:
		var meta struct {
			ID string `json:"id"`
		}
		if json.Unmarshal(body, &meta) != nil || meta.ID != o.wantID {
			r.out, r.err = wrong, fmt.Sprintf("POST %s: id %q, want %q", o.path, meta.ID, o.wantID)
		}
	}
	if r.out == succeeded {
		r.units = 1
	}
	return r
}

// jobStatus is the part of a job snapshot the checker reads.
type jobStatus struct {
	ID      string `json:"id"`
	State   string `json:"state"`
	Engine  string `json:"engine"`
	Results []struct {
		Index      int    `json:"index"`
		Clean      bool   `json:"clean"`
		Defects    int    `json:"defects"`
		DiffPixels int    `json:"diff_pixels"`
		Error      string `json:"error"`
	} `json:"results"`
}

// job submits a batch, polls it to a terminal state, checks every
// scan's verdict and deletes the record, so finished jobs do not pile
// up in memory over a run.
func (c *client) job(o *op, rid string) opResult {
	r := opResult{sent: time.Now()}
	status, body, err := c.send(http.MethodPost, o.path, o.ctype, o.body, rid)
	r.answered = time.Now()
	fail := func(out outcome, format string, args ...any) opResult {
		r.out, r.err, r.done = out, fmt.Sprintf(format, args...), time.Now()
		return r
	}
	switch {
	case err != nil:
		return fail(failed, "POST %s: %v", o.path, err)
	case status == http.StatusTooManyRequests:
		return fail(shed, "POST %s: 429", o.path)
	case status != http.StatusAccepted:
		return fail(failed, "POST %s: status %d: %.200s", o.path, status, body)
	}
	var st jobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		return fail(failed, "POST %s: %v", o.path, err)
	}
	giveUp := time.Now().Add(time.Minute)
	for st.State != "done" && st.State != "failed" && st.State != "canceled" {
		if time.Now().After(giveUp) {
			return fail(failed, "job %s still %s after a minute", st.ID, st.State)
		}
		time.Sleep(pollInterval)
		r.polls++
		status, body, err = c.send(http.MethodGet, "/v1/jobs/"+st.ID, "", nil, fmt.Sprintf("%s-p%d", rid, r.polls))
		if err != nil || status != http.StatusOK {
			return fail(failed, "GET job %s: status %d: %v", st.ID, status, err)
		}
		if err := json.Unmarshal(body, &st); err != nil {
			return fail(failed, "GET job %s: %v", st.ID, err)
		}
	}
	r.done = time.Now()
	r.engine = st.Engine
	if st.State != "done" || len(st.Results) != len(o.wantScans) {
		return fail(wrong, "job %s ended %s with %d of %d results", st.ID, st.State, len(st.Results), len(o.wantScans))
	}
	for _, got := range st.Results {
		if got.Index < 0 || got.Index >= len(o.wantScans) {
			return fail(wrong, "job %s: result index %d", st.ID, got.Index)
		}
		w := o.wantScans[got.Index]
		if got.Error != "" || got.DiffPixels != w.diffPixels || got.Defects != w.defects || got.Clean != w.clean {
			return fail(wrong, "job %s scan %d: got %+v, want %+v", st.ID, got.Index, got, w)
		}
		r.defects += got.Defects
	}
	status, _, err = c.send(http.MethodDelete, "/v1/jobs/"+st.ID, "", nil, rid+"-d")
	if err != nil || status != http.StatusNoContent {
		return fail(failed, "DELETE job %s: status %d: %v", st.ID, status, err)
	}
	r.units = len(o.wantScans)
	return r
}

// stream is the seeded request sequence. Op i of every phase is the
// same read, except that every writeEvery-th op (when writeEvery > 0)
// writes the next fresh image. A traced run's writes never repeat, so
// its traced half's writes cost what the untraced half's did; a
// measured run's closed loop may cycle through them, and a repeat
// takes the service's de-duplicated path.
type stream struct {
	c          *corpus
	order      []int
	writeEvery int
	writes     atomic.Int64
}

func newStream(c *corpus, seed int64, writeEvery int) *stream {
	rng := rand.New(rand.NewSource(seed + 1))
	order := make([]int, 4096)
	for i := range order {
		order[i] = rng.Intn(len(c.reads))
	}
	return &stream{c: c, order: order, writeEvery: writeEvery}
}

func (s *stream) at(i int) *op {
	if s.writeEvery > 0 && i%s.writeEvery == s.writeEvery-1 {
		n := int(s.writes.Add(1) - 1)
		return s.c.writes[n%len(s.c.writes)]
	}
	return s.c.reads[s.order[i%len(s.order)]]
}

// sample is one op of a phase. due is when it was scheduled (open
// loop) or sent (closed loop); latency counts from due, so a stall
// charges every op it delays.
type sample struct {
	op  *op
	rid string
	due time.Time
	res opResult
}

func (s sample) latencyMs() float64 { return ms(s.res.done.Sub(s.due)) }
func (s sample) lateMs() float64    { return ms(s.res.sent.Sub(s.due)) }

type phase struct {
	samples []sample
	elapsed time.Duration
}

// closedLoop runs workers clients, each sending its next op as soon as
// the previous one is answered, for dur.
func closedLoop(cl *client, st *stream, tag string, workers int, dur time.Duration) *phase {
	var (
		mu      sync.Mutex
		samples []sample
		next    atomic.Int64
		wg      sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(dur)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []sample
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				s := sample{op: st.at(i), rid: fmt.Sprintf("%s-%d", tag, i), due: time.Now()}
				s.res = cl.do(s.op, s.rid)
				mine = append(mine, s)
			}
			mu.Lock()
			samples = append(samples, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return &phase{samples: samples, elapsed: time.Since(start)}
}

// openLoop offers ops at a fixed rate for dur. Op i is due at
// start + i/rate; workers (one connection each, no goroutine per
// request) take ops in order and send each when due, or at once when
// running late, and its latency counts from the due time.
func openLoop(cl *client, st *stream, tag string, workers int, rate float64, dur time.Duration) *phase {
	n := max(1, int(rate*dur.Seconds()))
	interval := time.Duration(float64(time.Second) / rate)
	samples := make([]sample, n)
	start := time.Now().Add(10 * time.Millisecond)
	giveUp := start.Add(2*dur + 10*time.Second)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				s := sample{op: st.at(i), rid: fmt.Sprintf("%s-%d", tag, i), due: start.Add(time.Duration(i) * interval)}
				time.Sleep(time.Until(s.due))
				if now := time.Now(); now.After(giveUp) {
					s.res = opResult{out: failed, err: "generator fell too far behind", sent: now, answered: now, done: now}
				} else {
					s.res = cl.do(s.op, s.rid)
				}
				samples[i] = s
			}
		}()
	}
	wg.Wait()
	return &phase{samples: samples, elapsed: time.Since(start)}
}

// sequential sends ops one at a time: the warm-up.
func sequential(cl *client, ops []*op, tag string) []sample {
	var out []sample
	for i, o := range ops {
		s := sample{op: o, rid: fmt.Sprintf("%s-%d", tag, i), due: time.Now()}
		s.res = cl.do(o, s.rid)
		out = append(out, s)
	}
	return out
}

// tally counts ops by outcome.
type tally struct {
	attempted, failed, shed, wrong, units int
	firstErr                              string
}

func (t *tally) add(samples []sample) {
	for _, s := range samples {
		t.attempted++
		switch s.res.out {
		case succeeded:
			t.units += s.res.units
		case failed:
			t.failed++
		case shed:
			t.shed++
		case wrong:
			t.wrong++
		}
		if s.res.err != "" && t.firstErr == "" {
			t.firstErr = s.res.err
		}
	}
}

func (t tally) bad() int { return t.failed + t.shed + t.wrong }
