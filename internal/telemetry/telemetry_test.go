package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total", L("endpoint", "/v1/diff"))
	c.Inc()
	c.Add(4)
	c.Add(-10) // ignored: counters are monotone
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	// Same name+labels yields the same series.
	if r.Counter("requests_total", L("endpoint", "/v1/diff")) != c {
		t.Error("get-or-create returned a different series")
	}
	// Different labels yield a different series.
	if r.Counter("requests_total", L("endpoint", "/v1/inspect")) == c {
		t.Error("distinct labels shared a series")
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("in_flight")
	g.Inc()
	g.Inc()
	g.Dec()
	if got := g.Value(); got != 1 {
		t.Errorf("gauge = %d, want 1", got)
	}
	g.Set(42)
	if got := g.Value(); got != 42 {
		t.Errorf("gauge = %d, want 42", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("latency_seconds", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Errorf("count = %d, want 4", h.Count())
	}
	if got, want := h.Sum(), 5.555; got < want-1e-9 || got > want+1e-9 {
		t.Errorf("sum = %g, want %g", got, want)
	}
	cum := h.cumulative()
	for i, want := range []int64{1, 2, 3} {
		if cum[i] != want {
			t.Errorf("bucket %d cumulative = %d, want %d", i, cum[i], want)
		}
	}
	h.ObserveDuration(50 * time.Millisecond)
	if h.Count() != 5 {
		t.Errorf("count after ObserveDuration = %d", h.Count())
	}
}

func TestHistogramBoundaryGoesToLowerBucket(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []float64{1, 2})
	h.Observe(1) // le="1" is inclusive
	if cum := h.cumulative(); cum[0] != 1 {
		t.Errorf("bucket le=1 cumulative = %d, want 1", cum[0])
	}
}

// TestHistogramMergeMatchesObserve: merging a batch tallied per band
// leaves the histogram as observing each value would, and a batch of
// the wrong shape is refused.
func TestHistogramMergeMatchesObserve(t *testing.T) {
	r := NewRegistry()
	bounds := []float64{0.01, 0.1, 1}
	obs, merged := r.Histogram("observed", bounds), r.Histogram("merged", bounds)
	values := []float64{0.005, 0.05, 0.05, 1, 5, 7}
	for _, v := range values {
		obs.Observe(v)
	}
	merged.Merge([]int64{1, 2, 1, 2}, 0.005+0.05+0.05+1+5+7)
	merged.Merge([]int64{0, 0, 0, 0}, 0) // an empty batch is a no-op
	if merged.Count() != obs.Count() || merged.Sum() != obs.Sum() {
		t.Errorf("merged count %d sum %g, observed count %d sum %g", merged.Count(), merged.Sum(), obs.Count(), obs.Sum())
	}
	for i, want := range obs.cumulative() {
		if got := merged.cumulative()[i]; got != want {
			t.Errorf("bucket %d cumulative = %d, want %d", i, got, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Merge accepted 3 bands for a 3-bound histogram (want 4)")
		}
	}()
	merged.Merge([]int64{1, 1, 1}, 1)
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("http_requests_total", L("endpoint", "/v1/diff"), L("class", "2xx")).Add(3)
	r.Help("http_requests_total", "Requests served.")
	r.Gauge("http_in_flight").Set(2)
	h := r.Histogram("http_request_seconds", []float64{0.1, 1}, L("endpoint", "/v1/diff"))
	h.Observe(0.05)
	h.Observe(0.5)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP http_requests_total Requests served.",
		"# TYPE http_requests_total counter",
		`http_requests_total{class="2xx",endpoint="/v1/diff"} 3`,
		"# TYPE http_in_flight gauge",
		"http_in_flight 2",
		"# TYPE http_request_seconds histogram",
		`http_request_seconds_bucket{endpoint="/v1/diff",le="0.1"} 1`,
		`http_request_seconds_bucket{endpoint="/v1/diff",le="1"} 2`,
		`http_request_seconds_bucket{endpoint="/v1/diff",le="+Inf"} 2`,
		`http_request_seconds_sum{endpoint="/v1/diff"} 0.55`,
		`http_request_seconds_count{endpoint="/v1/diff"} 2`,
	} {
		if !strings.Contains(out, want+"\n") && !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestLabelOrderIsCanonical(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("c", L("b", "2"), L("a", "1"))
	b := r.Counter("c", L("a", "1"), L("b", "2"))
	if a != b {
		t.Error("label order created distinct series")
	}
}

func TestWriteJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("requests_total", L("endpoint", "/v1/diff")).Add(7)
	r.Histogram("latency_seconds", []float64{1}).Observe(0.5)

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var got map[string]map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if string(got["requests_total"][`{endpoint="/v1/diff"}`]) != "7" {
		t.Errorf("counter JSON = %s", got["requests_total"])
	}
	var hist struct {
		Count   int64            `json:"count"`
		Buckets map[string]int64 `json:"buckets"`
	}
	if err := json.Unmarshal(got["latency_seconds"][""], &hist); err != nil {
		t.Fatal(err)
	}
	if hist.Count != 1 || hist.Buckets["+Inf"] != 1 {
		t.Errorf("histogram JSON = %+v", hist)
	}
}

// TestConcurrentAccess exercises every mutation path against renders;
// meaningful under -race.
func TestConcurrentAccess(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				r.Counter("c", L("w", "x")).Inc()
				r.Gauge("g").Inc()
				r.Histogram("h", nil).Observe(float64(j) / 100)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 50; j++ {
			var buf bytes.Buffer
			_ = r.WritePrometheus(&buf)
			_ = r.WriteJSON(&buf)
		}
	}()
	wg.Wait()
	if got := r.Counter("c", L("w", "x")).Value(); got != 8*500 {
		t.Errorf("counter = %d, want %d", got, 8*500)
	}
	if got := r.Histogram("h", nil).Count(); got != 8*500 {
		t.Errorf("histogram count = %d, want %d", got, 8*500)
	}
}
