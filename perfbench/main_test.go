package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"
)

// contract is the part of BENCHMARK.json the smoke test checks.
type contract struct {
	Workloads []struct{ Name, Why string }  `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmoke runs every workload at toy size, untraced and traced, and
// checks what every real run must satisfy: no failed op, no wrong
// answer, exactly the metrics BENCHMARK.json names with their units,
// and one reference decode per reference registered.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the program has %d", len(c.Workloads), len(workloads))
	}
	for _, wl := range c.Workloads {
		w := workloads[wl.Name]
		if w == nil {
			t.Errorf("BENCHMARK.json workload %q is not in the program", wl.Name)
			continue
		}
		// The offered rate is fixed in the program and stated in BENCHMARK.json.
		if rate := fmt.Sprintf("%g/s", w.rate); !strings.Contains(wl.Why, rate) {
			t.Errorf("BENCHMARK.json workload %q: why %q does not state the rate %s", wl.Name, wl.Why, rate)
		}
	}
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			want, label := c.EndToEnd, name+"/e2e"
			if trace {
				want, label = c.PerLayer, name+"/trace"
			}
			t.Run(label, func(t *testing.T) {
				out, err := run(config{workload: name, seed: 7, measure: time.Second,
					trace: trace, root: "..", scratch: t.TempDir(), tiny: true})
				if err != nil {
					t.Fatal(err)
				}
				r := out.Result
				if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d; report %v", r.Correct, r.Attempted, r.Failed, out.Report)
				}
				if got := out.Report["wrong_answers"]; got != 0 {
					t.Errorf("wrong_answers = %v", got)
				}
				if len(r.Metrics) != len(want) {
					t.Errorf("%d metrics, BENCHMARK.json names %d", len(r.Metrics), len(want))
				}
				for _, m := range want {
					if got, ok := r.Metrics[m.Name]; !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
					}
				}
				if !trace {
					for name, m := range r.Metrics {
						if m.Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
						}
					}
					return
				}
				refs := out.Report["corpus"].(map[string]any)["refs_registered"].(int)
				if got := r.Metrics["refstore.decodes"].Value; got != float64(refs) {
					t.Errorf("refstore.decodes = %v, want one per reference registered (%d)", got, refs)
				}
			})
		}
	}
}
