// Package telemetry is a small, dependency-free metrics registry for
// the inspection service: atomic counters, gauges and fixed-bucket
// histograms, addressable by name plus label pairs, rendered in
// Prometheus text exposition format (GET /metrics) and as expvar-style
// JSON (GET /debug/vars).
//
// All mutation paths are lock-free (atomics) after the first
// get-or-create of a series, so instrumenting the request hot path
// costs a few atomic adds. Rendering takes a read lock and observes
// each series atomically, which is the usual Prometheus consistency
// contract: a scrape may interleave with concurrent updates but never
// sees torn values.
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one name=value metric dimension.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (n must be non-negative; negative
// deltas are ignored to keep the counter monotone).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Inc increments the gauge.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec decrements the gauge.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Add moves the gauge by n (either sign).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram accumulates observations into fixed cumulative buckets —
// the Prometheus histogram shape. Observations and bucket bounds are
// float64 (seconds, for the latency histograms the service exports).
type Histogram struct {
	bounds  []float64      // ascending upper bounds; +Inf is implicit
	buckets []atomic.Int64 // len(bounds)+1, non-cumulative per band
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits, CAS-accumulated
}

// DefBuckets are the default latency bounds in seconds, spanning the
// sub-millisecond row diffs to multi-second full-board inspections.
var DefBuckets = []float64{0.0005, 0.001, 0.005, 0.025, 0.1, 0.25, 1, 2.5, 10}

func newHistogram(bounds []float64) *Histogram {
	bs := make([]float64, len(bounds))
	copy(bs, bounds)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, buckets: make([]atomic.Int64, len(bs)+1)}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound ≥ v
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.addSum(v)
}

// Merge records a batch of observations tallied elsewhere: counts[i]
// of them fell in band i, the band Observe would have picked (one per
// bound, then +Inf, so len(counts) is one more than the number of
// bounds), and their values add up to sum. It costs one atomic add per
// non-empty band, one for the count and one sum CAS, however large the
// batch. Negative counts are ignored, as in Counter.Add.
func (h *Histogram) Merge(counts []int64, sum float64) {
	if len(counts) != len(h.buckets) {
		panic(fmt.Sprintf("telemetry: Merge of %d bands into a histogram of %d", len(counts), len(h.buckets)))
	}
	var n int64
	for i, c := range counts {
		if c > 0 {
			h.buckets[i].Add(c)
			n += c
		}
	}
	if n > 0 {
		h.count.Add(n)
		h.addSum(sum)
	}
}

// addSum adds v to the observation sum.
func (h *Histogram) addSum(v float64) {
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// cumulative returns the cumulative per-bound counts (excluding +Inf).
func (h *Histogram) cumulative() []int64 {
	out := make([]int64, len(h.bounds))
	var acc int64
	for i := range h.bounds {
		acc += h.buckets[i].Load()
		out[i] = acc
	}
	return out
}

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

// family is all series of one metric name.
type family struct {
	name   string
	kind   metricKind
	help   string
	mu     sync.RWMutex
	series map[string]any // label-string → *Counter | *Gauge | *Histogram
}

// Registry holds a set of metric families. The zero value is not
// usable; call NewRegistry.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (r *Registry) family(name string, kind metricKind) *family {
	r.mu.RLock()
	f := r.families[name]
	r.mu.RUnlock()
	if f == nil {
		r.mu.Lock()
		if f = r.families[name]; f == nil {
			f = &family{name: name, kind: kind, series: make(map[string]any)}
			r.families[name] = f
		}
		r.mu.Unlock()
	}
	if f.kind != kind {
		panic(fmt.Sprintf("telemetry: %s registered with two kinds", name))
	}
	return f
}

// labelString renders labels sorted by key, in exposition syntax
// ({k="v",...}), or "" for no labels.
func labelString(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

func (f *family) get(labels []Label, make func() any) any {
	key := labelString(labels)
	f.mu.RLock()
	m := f.series[key]
	f.mu.RUnlock()
	if m == nil {
		f.mu.Lock()
		if m = f.series[key]; m == nil {
			m = make()
			f.series[key] = m
		}
		f.mu.Unlock()
	}
	return m
}

// Counter returns (creating if needed) the counter series for the
// given name and labels.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	return r.family(name, kindCounter).get(labels, func() any { return new(Counter) }).(*Counter)
}

// Gauge returns (creating if needed) the gauge series.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	return r.family(name, kindGauge).get(labels, func() any { return new(Gauge) }).(*Gauge)
}

// Histogram returns (creating if needed) the histogram series. The
// bounds are fixed by the first creation of the family; pass nil for
// DefBuckets.
func (r *Registry) Histogram(name string, bounds []float64, labels ...Label) *Histogram {
	if bounds == nil {
		bounds = DefBuckets
	}
	return r.family(name, kindHistogram).get(labels, func() any { return newHistogram(bounds) }).(*Histogram)
}

// Help sets the HELP text emitted for a metric name.
func (r *Registry) Help(name, help string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f := r.families[name]; f != nil {
		f.help = help
	}
}

func (f *family) typeName() string {
	switch f.kind {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// sortedFamilies snapshots the family list in name order.
func (r *Registry) sortedFamilies() []*family {
	r.mu.RLock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

func (f *family) sortedKeys() []string {
	keys := make([]string, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// formatFloat renders a float the way the exposition format expects.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// WritePrometheus renders every series in Prometheus text exposition
// format (version 0.0.4), families and series in sorted order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, f := range r.sortedFamilies() {
		f.mu.RLock()
		if f.help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typeName())
		for _, key := range f.sortedKeys() {
			switch m := f.series[key].(type) {
			case *Counter:
				fmt.Fprintf(w, "%s%s %d\n", f.name, key, m.Value())
			case *Gauge:
				fmt.Fprintf(w, "%s%s %d\n", f.name, key, m.Value())
			case *Histogram:
				writeHistogram(w, f.name, key, m)
			}
		}
		f.mu.RUnlock()
	}
	return nil
}

// writeHistogram emits the _bucket/_sum/_count triplet for one series.
func writeHistogram(w io.Writer, name, key string, h *Histogram) {
	// Splice le="..." into the existing label set.
	open := func(le string) string {
		if key == "" {
			return fmt.Sprintf("{le=%q}", le)
		}
		return fmt.Sprintf("%s,le=%q}", strings.TrimSuffix(key, "}"), le)
	}
	cum := h.cumulative()
	for i, bound := range h.bounds {
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, open(formatFloat(bound)), cum[i])
	}
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, open("+Inf"), h.Count())
	fmt.Fprintf(w, "%s_sum%s %s\n", name, key, formatFloat(h.Sum()))
	fmt.Fprintf(w, "%s_count%s %d\n", name, key, h.Count())
}

// histogramJSON is the JSON shape of one histogram series.
type histogramJSON struct {
	Count   int64            `json:"count"`
	Sum     float64          `json:"sum"`
	Buckets map[string]int64 `json:"buckets"`
}

// Snapshot returns every series as a plain map: family name → label
// string → value (int64 for counters/gauges, histogramJSON-shaped map
// for histograms). Unlabelled series use the "" key.
func (r *Registry) Snapshot() map[string]map[string]any {
	out := make(map[string]map[string]any)
	for _, f := range r.sortedFamilies() {
		fm := make(map[string]any)
		f.mu.RLock()
		for key, s := range f.series {
			switch m := s.(type) {
			case *Counter:
				fm[key] = m.Value()
			case *Gauge:
				fm[key] = m.Value()
			case *Histogram:
				buckets := make(map[string]int64, len(m.bounds))
				for i, c := range m.cumulative() {
					buckets[formatFloat(m.bounds[i])] = c
				}
				buckets["+Inf"] = m.Count()
				fm[key] = histogramJSON{Count: m.Count(), Sum: m.Sum(), Buckets: buckets}
			}
		}
		f.mu.RUnlock()
		out[f.name] = fm
	}
	return out
}

// WriteJSON renders the Snapshot as indented JSON — the /debug/vars
// style view of the same data.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
