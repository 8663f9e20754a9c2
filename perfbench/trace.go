package main

// Tracing for the per-layer run. Every span comes from this package:
//
//   - a wrapper http.Handler around each server.Server and the
//     cluster.Coordinator times every request they serve;
//   - an httptrace.ClientTrace attached to the coordinator's inbound
//     request context times every coordinator→shard call, because
//     apiclient builds peer requests from that context; the
//     coordinator's transport is left as it is;
//   - after the traced phase, each traced request is replayed through
//     the layers' public functions in handler order, each step a child
//     span of the handler span that served the original.
//
// Spans are kept in memory and written out when the run ends.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sysrle"
	"sysrle/internal/imageio"
	"sysrle/internal/inspect"
	"sysrle/internal/rle"
	"sysrle/internal/server"
)

// linking says how spans are joined, for readers of the span file.
const linking = "Handler spans carry the client's X-Request-Id. " +
	"Coordinator-to-shard calls carry no X-Request-Id, so an apiclient.peer span is the child of the " +
	"cluster.handler span whose request context carried the ClientTrace, and a shard's server.handler " +
	"span is the child of the peer call whose connection it arrived on (its remote address is the " +
	"call's local address) and that was in flight when it started. Replay spans are children of the " +
	"handler span that served the original request."

type span struct {
	ID     uint64        `json:"id"`
	Parent uint64        `json:"parent,omitempty"`
	Name   string        `json:"name"`
	Req    string        `json:"req,omitempty"` // X-Request-Id, on handler spans
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	// Addr is a handler's client address or a peer call's local
	// address; Node is the server that handled it (-1: coordinator).
	Addr   string `json:"addr,omitempty"`
	Node   int    `json:"node"`
	Reused bool   `json:"reused,omitempty"`
	// Rows, Iterations and Cells describe a sysrle.diff span.
	Rows       int `json:"rows,omitempty"`
	Iterations int `json:"iterations,omitempty"`
	Cells      int `json:"cells,omitempty"`
}

func (s span) ms() float64 { return ms(s.End - s.Start) }

type peerEvent struct {
	parent uint64
	at     time.Duration
	kind   byte   // 'g' GetConn, 'c' GotConn, 'f' GotFirstResponseByte
	addr   string // 'g': host:port asked for; 'c': the connection's remote address
	local  string // 'c': the connection's local address
	reused bool
}

type tracer struct {
	on    atomic.Bool
	epoch time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
	peers []peerEvent
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// wrap times every request next serves while tracing is on. Around the
// coordinator it also attaches the ClientTrace that times peer calls.
func (t *tracer) wrap(layer string, node int, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		id := t.ids.Add(1)
		if layer == "cluster" {
			r = r.WithContext(httptrace.WithClientTrace(r.Context(), t.peerTrace(id)))
		}
		start := t.now()
		next.ServeHTTP(w, r)
		// Read after serving: the middleware assigns an id when the
		// caller sent none.
		t.add(span{ID: id, Name: layer + ".handler", Req: r.Header.Get("X-Request-Id"),
			Start: start, End: t.now(), Addr: r.RemoteAddr, Node: node})
	})
}

func (t *tracer) peerTrace(parent uint64) *httptrace.ClientTrace {
	ev := func(e peerEvent) {
		e.parent, e.at = parent, t.now()
		t.mu.Lock()
		t.peers = append(t.peers, e)
		t.mu.Unlock()
	}
	return &httptrace.ClientTrace{
		GetConn: func(hostPort string) { ev(peerEvent{kind: 'g', addr: hostPort}) },
		GotConn: func(info httptrace.GotConnInfo) {
			ev(peerEvent{kind: 'c', addr: info.Conn.RemoteAddr().String(),
				local: info.Conn.LocalAddr().String(), reused: info.Reused})
		},
		GotFirstResponseByte: func() { ev(peerEvent{kind: 'f'}) },
	}
}

// linkPeers turns the recorded peer events into apiclient.peer spans
// (GetConn to first response byte) and parents each shard handler span
// on the call it served; see linking. httptrace does not say which of
// two concurrent calls a first response byte belongs to, so within one
// coordinator request the first-byte times go to the calls in the
// order their shard handlers finished.
func (t *tracer) linkPeers() {
	t.mu.Lock()
	defer t.mu.Unlock()
	byAddr := map[string][]int{} // shard handler spans by client address
	for i, s := range t.spans {
		if s.Name == "server.handler" {
			byAddr[s.Addr] = append(byAddr[s.Addr], i)
		}
	}
	for _, idx := range byAddr {
		sort.Slice(idx, func(a, b int) bool { return t.spans[idx[a]].Start < t.spans[idx[b]].Start })
	}
	type call struct {
		s     span
		host  string
		shard int // index into t.spans, or -1
	}
	byParent := map[uint64][]peerEvent{}
	var parents []uint64
	for _, e := range t.peers {
		if _, seen := byParent[e.parent]; !seen {
			parents = append(parents, e.parent)
		}
		byParent[e.parent] = append(byParent[e.parent], e)
	}
	claimed := map[int]bool{}
	for _, parent := range parents {
		evs := byParent[parent]
		sort.SliceStable(evs, func(a, b int) bool { return evs[a].at < evs[b].at })
		var calls []*call
		var firsts []time.Duration
		for _, e := range evs {
			switch e.kind {
			case 'g':
				calls = append(calls, &call{s: span{Parent: parent, Name: "apiclient.peer", Start: e.at, Node: -1}, host: e.addr, shard: -1})
			case 'c':
				for _, c := range calls {
					if c.s.Addr == "" && c.host == e.addr {
						c.s.Addr, c.s.Reused = e.local, e.reused
						break
					}
				}
			case 'f':
				firsts = append(firsts, e.at)
			}
		}
		for _, c := range calls {
			for _, i := range byAddr[c.s.Addr] {
				if !claimed[i] && t.spans[i].Start >= c.s.Start {
					c.shard, claimed[i] = i, true
					break
				}
			}
		}
		end := func(c *call) time.Duration {
			if c.shard < 0 {
				return 1<<62 + c.s.Start
			}
			return t.spans[c.shard].End
		}
		sort.SliceStable(calls, func(a, b int) bool { return end(calls[a]) < end(calls[b]) })
		for i, c := range calls {
			c.s.ID = t.ids.Add(1)
			switch {
			case i < len(firsts):
				c.s.End = firsts[i]
			case c.shard >= 0:
				c.s.End = t.spans[c.shard].End
			default:
				c.s.End = c.s.Start
			}
			if c.shard >= 0 {
				t.spans[c.shard].Parent = c.s.ID
			}
			t.spans = append(t.spans, c.s)
		}
	}
}

// writeSpans writes every span, with the linking note, as JSON.
func (t *tracer) writeSpans(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(map[string]any{"linking": linking, "spans": t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// children indexes spans by parent, each list in start order.
func (t *tracer) children() map[uint64][]span {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := map[uint64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	for _, k := range kids {
		sort.Slice(k, func(a, b int) bool { return k[a].Start < k[b].Start })
	}
	return kids
}

// replayer re-runs traced requests through the layers' public
// functions, recording each step as a child span.
type replayer struct {
	t   *tracer
	tgt *target
}

func (rp *replayer) timed(parent uint64, name string, f func() error) error {
	s := span{ID: rp.t.ids.Add(1), Parent: parent, Name: name, Start: rp.t.now()}
	err := f()
	s.End = rp.t.now()
	rp.t.add(s)
	return err
}

func (rp *replayer) decode(parent uint64, name string, fh *multipart.FileHeader) (*rle.Image, error) {
	f, err := fh.Open()
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var img *rle.Image
	err = rp.timed(parent, name, func() (err error) {
		img, err = imageio.Read(f)
		return err
	})
	return img, err
}

func (rp *replayer) parse(parent uint64, name string, o *op, body []byte, ctype string) (*http.Request, error) {
	req := httptest.NewRequest(http.MethodPost, o.path, bytes.NewReader(body))
	req.Header.Set("Content-Type", ctype)
	err := rp.timed(parent, name, func() error { return req.ParseMultipartForm(8 << 20) })
	return req, err
}

func part(req *http.Request, field string) (*multipart.FileHeader, error) {
	fhs := req.MultipartForm.File[field]
	if len(fhs) == 0 {
		return nil, fmt.Errorf("no %q part", field)
	}
	return fhs[0], nil
}

func (rp *replayer) diff(parent uint64, a, b *rle.Image, eng sysrle.Engine, workers int) (*rle.Image, error) {
	s := span{ID: rp.t.ids.Add(1), Parent: parent, Name: "sysrle.diff", Start: rp.t.now(), Rows: a.Height}
	diff, stats, err := sysrle.DiffImage(a, b, sysrle.WithEngine(eng), sysrle.WithWorkers(workers))
	s.End = rp.t.now()
	if err != nil {
		return nil, err
	}
	s.Iterations, s.Cells = stats.TotalIterations, stats.TotalCells
	rp.t.add(s)
	return diff, nil
}

// node replays a request the way server.Server handles it: parse the
// form, resolve the stored reference or decode the first upload,
// decode the scan, diff on the serving default engine (requests never
// set engine=) and encode the answer. A job's scans are then inspected
// as a jobs worker does, under one jobs.scan span each: that work runs
// after the submission is answered, outside the handler.
func (rp *replayer) node(parent uint64, srv *server.Server, o *op, body []byte, ctype, jobEngine string) error {
	req, err := rp.parse(parent, "server.multipart", o, body, ctype)
	if err != nil {
		return err
	}
	defer req.MultipartForm.RemoveAll()
	refGet := func() (img *rle.Image, err error) {
		err = rp.timed(parent, "refstore.get", func() (err error) {
			img, err = srv.Refs().Get(o.refID)
			return err
		})
		return img, err
	}
	if o.kind == opJob {
		var scans []*rle.Image
		for _, fh := range req.MultipartForm.File["scan"] {
			img, err := rp.decode(parent, "imageio.decode", fh)
			if err != nil {
				return err
			}
			scans = append(scans, img)
		}
		ref, err := refGet()
		if err != nil {
			return err
		}
		eng, err := sysrle.NewEngineByName(jobEngine)
		if err != nil {
			return err
		}
		ins := &inspect.Inspector{Engine: eng, Workers: 1}
		for _, scan := range scans {
			js := span{ID: rp.t.ids.Add(1), Parent: parent, Name: "jobs.scan", Start: rp.t.now()}
			if err := rp.timed(js.ID, "inspect.compare", func() error {
				_, err := ins.Compare(ref, scan)
				return err
			}); err != nil {
				return err
			}
			if _, err := rp.diff(js.ID, ref, scan, eng, 1); err != nil {
				return err
			}
			js.End = rp.t.now()
			rp.t.add(js)
		}
		return nil
	}
	var a *rle.Image
	if o.refID != "" {
		a, err = refGet()
	} else {
		var fh *multipart.FileHeader
		if fh, err = part(req, "a"); err == nil {
			a, err = rp.decode(parent, "imageio.decode", fh)
		}
	}
	if err != nil {
		return err
	}
	fh, err := part(req, "b")
	if err != nil {
		return err
	}
	b, err := rp.decode(parent, "imageio.decode", fh)
	if err != nil {
		return err
	}
	eng, err := sysrle.NewEngineByName("")
	if err != nil {
		return err
	}
	diff, err := rp.diff(parent, a, b, eng, 0)
	if err != nil {
		return err
	}
	return rp.timed(parent, "imageio.encode", func() error {
		var buf bytes.Buffer
		return imageio.Write(&buf, "rleb", diff)
	})
}

// coordinator replays a ref-routed diff the way cluster.Coordinator
// serves it: parse the form and decode the upload, encode it again for
// the shard, the shard's own handler chain (under the shard span the
// original call reached), then decode the shard's answer and encode it
// for the client. The four cluster.decode/encode spans are the codec
// passes that forwarding one request costs.
func (rp *replayer) coordinator(h span, o *op, kids map[uint64][]span) error {
	req, err := rp.parse(h.ID, "cluster.multipart", o, o.body, o.ctype)
	if err != nil {
		return err
	}
	defer req.MultipartForm.RemoveAll()
	fh, err := part(req, "b")
	if err != nil {
		return err
	}
	b, err := rp.decode(h.ID, "cluster.decode", fh)
	if err != nil {
		return err
	}
	var body []byte
	var ctype string
	if err := rp.timed(h.ID, "cluster.encode", func() (err error) {
		body, ctype, err = multipartBody(filePart{"b", b})
		return err
	}); err != nil {
		return err
	}
	// The shard that answered is the one under the last peer call.
	peers := kids[h.ID]
	for i := len(peers) - 1; i >= 0; i-- {
		if shards := kids[peers[i].ID]; len(shards) > 0 {
			sh := shards[0]
			if err := rp.node(sh.ID, rp.tgt.nodes[sh.Node], o, body, ctype, ""); err != nil {
				return err
			}
			break
		}
	}
	var ans *rle.Image
	if err := rp.timed(h.ID, "cluster.decode", func() (err error) {
		ans, err = imageio.Read(bytes.NewReader(o.want))
		return err
	}); err != nil {
		return err
	}
	return rp.timed(h.ID, "cluster.encode", func() error {
		var buf bytes.Buffer
		return imageio.Write(&buf, "rleb", ans)
	})
}

// replay re-runs the traced phase's answered reads and jobs until the
// budget is spent, and returns how many it replayed.
func replay(t *tracer, tgt *target, samples []sample, budget time.Duration) (int, error) {
	rp := &replayer{t: t, tgt: tgt}
	top := "server.handler"
	if tgt.coord != nil {
		top = "cluster.handler"
	}
	handlers := map[string]span{}
	t.mu.Lock()
	for _, s := range t.spans {
		if s.Name == top {
			handlers[s.Req] = s
		}
	}
	t.mu.Unlock()
	kids := t.children()
	deadline := time.Now().Add(budget)
	n := 0
	for _, s := range samples {
		if time.Now().After(deadline) {
			break
		}
		h, ok := handlers[s.rid]
		if !ok || s.res.out != succeeded || s.op.kind == opWrite {
			continue
		}
		var err error
		if tgt.coord != nil {
			err = rp.coordinator(h, s.op, kids)
		} else {
			err = rp.node(h.ID, tgt.nodes[0], s.op, s.op.body, s.op.ctype, s.res.engine)
		}
		if err != nil {
			return n, fmt.Errorf("replaying %s: %w", s.rid, err)
		}
		n++
	}
	return n, nil
}
