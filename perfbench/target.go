package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"sysrle/internal/cluster"
	"sysrle/internal/server"
	"sysrle/internal/telemetry"
	"sysrle/internal/wal"
)

// target is one booted deployment, served over loopback from this
// process.
type target struct {
	url      string
	nodes    []*server.Server // the single node, or the shards
	regs     []*telemetry.Registry
	coord    *cluster.Coordinator
	coordReg *telemetry.Registry
	https    []*http.Server
	serving  sync.WaitGroup
	dataDir  string
}

// boot starts the workload's deployment: one node, or three shards
// behind a coordinator with Replicas 2. Every handler is wrapped by the
// tracer, which passes requests straight through while it is off.
func boot(w *workloadSpec, scratch string, tr *tracer) (*target, error) {
	t := &target{}
	shards := 1
	if w.cluster {
		shards = 3
	}
	var urls []string
	for i := 0; i < shards; i++ {
		cfg := server.Config{Registry: telemetry.NewRegistry()}
		if w.durable {
			dir, err := os.MkdirTemp(scratch, "durable-")
			if err != nil {
				t.close()
				return nil, err
			}
			t.dataDir = dir
			// The journal leaves flushing to the OS (WAL sync "none"): on
			// shared virtual disks, journal fsyncs hit occasional ~200 ms
			// commit stalls that swamp the latency tail. Blob and audit
			// writes still fsync.
			cfg.DataDir, cfg.WALSync = dir, wal.SyncNone
		}
		srv, err := server.Open(cfg)
		if err != nil {
			t.close()
			return nil, err
		}
		t.nodes = append(t.nodes, srv)
		t.regs = append(t.regs, cfg.Registry)
		url, err := t.serve(tr.wrap("server", i, srv))
		if err != nil {
			t.close()
			return nil, err
		}
		urls = append(urls, url)
	}
	if !w.cluster {
		t.url = urls[0]
		return t, nil
	}
	t.coordReg = telemetry.NewRegistry()
	coord, err := cluster.New(cluster.Config{Peers: urls, Replicas: 2, Registry: t.coordReg})
	if err != nil {
		t.close()
		return nil, err
	}
	t.coord = coord
	if t.url, err = t.serve(tr.wrap("cluster", -1, coord)); err != nil {
		t.close()
		return nil, err
	}
	return t, nil
}

func (t *target) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("listening on loopback: %w", err)
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	t.https = append(t.https, hs)
	t.serving.Add(1)
	go func() {
		defer t.serving.Done()
		_ = hs.Serve(ln) // ErrServerClosed once shut down
	}()
	return "http://" + ln.Addr().String(), nil
}

// close stops the listeners (coordinator first), waits for their
// goroutines, closes the servers and removes the durable directory.
func (t *target) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i := len(t.https) - 1; i >= 0; i-- {
		if err := t.https[i].Shutdown(ctx); err != nil {
			_ = t.https[i].Close()
		}
	}
	t.serving.Wait()
	if t.coord != nil {
		t.coord.Close()
	}
	for _, n := range t.nodes {
		n.Close()
	}
	// The coordinator's peer clients share the default transport.
	if dt, ok := http.DefaultTransport.(*http.Transport); ok {
		dt.CloseIdleConnections()
	}
	if t.dataDir != "" {
		_ = os.RemoveAll(t.dataDir)
	}
}

// snapshot is one scrape of telemetry registries: counters and gauges
// summed over their label series, histograms merged.
type snapshot struct {
	vals  map[string]float64
	hists map[string]histo
}

type histo struct {
	Count   float64            `json:"count"`
	Buckets map[string]float64 `json:"buckets"` // cumulative, by upper bound
}

func scrape(regs ...*telemetry.Registry) (snapshot, error) {
	s := snapshot{vals: map[string]float64{}, hists: map[string]histo{}}
	for _, reg := range regs {
		if reg == nil {
			continue
		}
		var buf bytes.Buffer
		if err := reg.WriteJSON(&buf); err != nil {
			return s, err
		}
		var fams map[string]map[string]json.RawMessage
		if err := json.Unmarshal(buf.Bytes(), &fams); err != nil {
			return s, fmt.Errorf("scraping registry: %w", err)
		}
		for name, series := range fams {
			for _, raw := range series {
				var v float64
				if json.Unmarshal(raw, &v) == nil {
					s.vals[name] += v
					continue
				}
				var h histo
				if err := json.Unmarshal(raw, &h); err != nil {
					return s, fmt.Errorf("scraping %s: %w", name, err)
				}
				m := s.hists[name]
				if m.Buckets == nil {
					m.Buckets = map[string]float64{}
				}
				m.Count += h.Count
				for le, c := range h.Buckets {
					m.Buckets[le] += c
				}
				s.hists[name] = m
			}
		}
	}
	return s, nil
}

func (s snapshot) delta(before snapshot, name string) float64 {
	return s.vals[name] - before.vals[name]
}

// quantileDelta estimates the q-quantile of the observations a
// histogram gained since before, interpolating linearly inside the
// bucket that holds it.
func (s snapshot) quantileDelta(before snapshot, name string, q float64) float64 {
	after, prev := s.hists[name], before.hists[name]
	type bucket struct{ le, n float64 }
	var bs []bucket
	for le, c := range after.Buckets {
		bound, err := strconv.ParseFloat(le, 64)
		if err != nil || le == "+Inf" {
			continue
		}
		bs = append(bs, bucket{bound, c - prev.Buckets[le]})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	total := after.Count - prev.Count
	if total <= 0 || len(bs) == 0 {
		return 0
	}
	target, lo, below := q*total, 0.0, 0.0
	for _, b := range bs {
		if b.n >= target {
			if b.n == below {
				return b.le
			}
			return lo + (b.le-lo)*(target-below)/(b.n-below)
		}
		lo, below = b.le, b.n
	}
	return bs[len(bs)-1].le
}

// scrapeAll scrapes the nodes (summed) and the coordinator.
func (t *target) scrapeAll() (nodes, coord snapshot, err error) {
	if nodes, err = scrape(t.regs...); err != nil {
		return nodes, coord, err
	}
	coord, err = scrape(t.coordReg)
	return nodes, coord, err
}

// gauge sums one gauge over the nodes.
func (t *target) gauge(name string) int64 {
	var v int64
	for _, reg := range t.regs {
		v += reg.Gauge(name).Value()
	}
	return v
}
