package cluster

// The coordinator's HTTP surface. Clients cannot tell it from a single
// node: every /v1 call that one shard can answer is forwarded to that
// shard byte for byte (method, path, query, Content-Type, X-Request-Id
// and body), and the shard's status, headers and body come back
// unchanged, errors included. The coordinator owns routing, failover
// and merging; the shard owns every /v1 behaviour. Two cluster-admin
// endpoints are its own:
//
//	GET  /v1/cluster/ring       → membership and vnode count
//	POST /v1/cluster/rebalance  → optional {"peers":[...]} body applies
//	                              a membership change, then misplaced
//	                              references move to their ring owner;
//	                              {"moved": n, "scanned": m, "peers": [...]}
//
// Every request body is read once, under MaxUploadBytes (413 beyond
// it), and the same bytes are replayed on each retry and failover.
// Routing policy:
//
//	?ref=<id> on /v1/diff, /v1/inspect, /v1/align and /v1/jobs (for
//	jobs also a "ref" form value), GET /v1/references/{id}[/content]
//	    → forwarded to the reference's replica set, primary first,
//	      failing over to the next replica on an unreachable peer, a
//	      5xx or a 404 (a replica may hold the copy the primary lost).
//	      Route hits and misses and failovers are counted.
//	/v1/diff, /v1/inspect, /v1/align, /v1/docclean, /v1/jobs with
//	inline uploads
//	    → forwarded whole, round-robin. A request runs on one shard;
//	      requests are the parallelism, so no call is split.
//	GET, DELETE /v1/jobs/{id}
//	    → tried on each shard in ring order until one does not 404:
//	      a job lives on the shard that took it, and ids are unique
//	      across shards.
//	POST /v1/references
//	    → decoded once to compute the content id (the coordinator's
//	      only decode), then the raw body is forwarded to every owner
//	      (quorum = all).
//	GET /v1/references, GET /v1/jobs, DELETE /v1/references/{id},
//	GET /readyz
//	    → asked of every relevant shard and merged.
//	/v1/audit
//	    → not routed, so 404 in the envelope like any unknown path:
//	      the audit chain is a per-shard artifact, query shards.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"mime/multipart"
	"net/http"
	"sync"

	"sysrle/internal/apiclient"
	"sysrle/internal/imageio"
	"sysrle/internal/jobs"
	"sysrle/internal/refstore"
)

// multipartMemory is the in-memory threshold for the forms the
// coordinator parses itself; larger parts spill to temp files.
const multipartMemory = 8 << 20

func (c *Coordinator) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", c.handleReadyz)
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_ = c.reg.WritePrometheus(w)
	})
	mux.HandleFunc("GET /debug/vars", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = c.reg.WriteJSON(w)
	})
	mux.HandleFunc("POST /v1/diff", c.handleForward)
	mux.HandleFunc("POST /v1/inspect", c.handleForward)
	mux.HandleFunc("POST /v1/align", c.handleForward)
	mux.HandleFunc("POST /v1/docclean", c.handleForward)
	mux.HandleFunc("POST /v1/references", c.handleRefPut)
	mux.HandleFunc("GET /v1/references", c.handleRefList)
	mux.HandleFunc("GET /v1/references/{id}", c.handleRefRead)
	mux.HandleFunc("GET /v1/references/{id}/content", c.handleRefRead)
	mux.HandleFunc("DELETE /v1/references/{id}", c.handleRefDelete)
	mux.HandleFunc("POST /v1/jobs", c.handleJobSubmit)
	mux.HandleFunc("GET /v1/jobs", c.handleJobList)
	mux.HandleFunc("GET /v1/jobs/{id}", c.handleJobByID)
	mux.HandleFunc("DELETE /v1/jobs/{id}", c.handleJobByID)
	mux.HandleFunc("GET /v1/cluster/ring", c.handleRing)
	mux.HandleFunc("POST /v1/cluster/rebalance", c.handleRebalance)
	return apiclient.EnvelopeUnrouted(mux)
}

// readBody buffers the request body under MaxUploadBytes, answering
// 413 itself beyond it, and rewinds r.Body over the same bytes for the
// handlers that parse the form.
func (c *Coordinator) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, c.cfg.MaxUploadBytes))
	if err != nil {
		status := http.StatusBadRequest
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			status = http.StatusRequestEntityTooLarge
		}
		apiclient.WriteError(w, status, fmt.Sprintf("reading body: %v", err), apiclient.RequestID(r))
		return nil, false
	}
	r.Body = io.NopCloser(bytes.NewReader(body))
	return body, true
}

// formValue scans the buffered multipart body for a plain form field,
// skipping file parts unread.
func formValue(r *http.Request, field string) string {
	_, params, err := mime.ParseMediaType(r.Header.Get("Content-Type"))
	if err != nil {
		return ""
	}
	mr := multipart.NewReader(r.Body, params["boundary"])
	for {
		p, err := mr.NextPart()
		if err != nil {
			return ""
		}
		if p.FormName() == field && p.FileName() == "" {
			v, _ := io.ReadAll(io.LimitReader(p, 1<<10))
			return string(v)
		}
	}
}

// forward relays a buffered call to one shard: the owners of ref when
// it names one, else the next shard round-robin.
func (c *Coordinator) forward(w http.ResponseWriter, r *http.Request, body []byte, ref string) {
	var resp *http.Response
	var peer string
	var err error
	if ref == "" {
		var cl *apiclient.Client
		peer, cl = c.nextClient()
		resp, err = cl.Forward(r, body)
	} else {
		peer, err = c.readOwners(ref, func(cl *apiclient.Client) (err error) {
			resp, err = cl.Forward(r, body)
			return err
		})
		switch {
		case err == nil:
			c.routeHits.Inc()
		case apiclient.IsNotFound(err):
			c.routeMisses.Inc()
		}
	}
	if err != nil {
		c.relayError(w, r, peer, err)
		return
	}
	defer resp.Body.Close()
	relay(w, resp.StatusCode, resp.Header, resp.Body)
}

// handleForward serves diff, inspect, align and docclean.
func (c *Coordinator) handleForward(w http.ResponseWriter, r *http.Request) {
	if body, ok := c.readBody(w, r); ok {
		c.forward(w, r, body, r.URL.Query().Get("ref"))
	}
}

func (c *Coordinator) handleRefRead(w http.ResponseWriter, r *http.Request) {
	c.forward(w, r, nil, r.PathValue("id"))
}

// handleJobSubmit follows the reference named in the query or the form
// to its owners; jobs with an inline reference go round-robin.
func (c *Coordinator) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	body, ok := c.readBody(w, r)
	if !ok {
		return
	}
	ref := r.URL.Query().Get("ref")
	if ref == "" {
		ref = formValue(r, "ref")
	}
	c.forward(w, r, body, ref)
}

// handleJobByID asks each shard in ring order until one knows the job:
// each shard mints ids with its own random suffix, so exactly one shard
// claims any id.
func (c *Coordinator) handleJobByID(w http.ResponseWriter, r *http.Request) {
	var peer string
	var err error
	for _, peer = range c.ring.Peers() {
		var resp *http.Response
		if resp, err = c.client(peer).Forward(r, nil); err == nil {
			relay(w, resp.StatusCode, resp.Header, resp.Body)
			resp.Body.Close()
			return
		}
		if !apiclient.IsNotFound(err) {
			break
		}
	}
	c.relayError(w, r, peer, err)
}

// handleRefPut places a reference by content id: the upload is decoded
// once to compute the id, then the raw body goes to every ring owner
// concurrently, and all of them must accept it (quorum = all). Content
// addressing makes the write idempotent — a partial write retried by
// the client re-registers the already-placed copies as no-ops, so
// there is no partial-failure cleanup to do here. An upload the
// coordinator cannot place is forwarded to one shard, whose error is
// the answer.
func (c *Coordinator) handleRefPut(w http.ResponseWriter, r *http.Request) {
	body, ok := c.readBody(w, r)
	if !ok {
		return
	}
	id, err := uploadID(r)
	if err != nil {
		c.forward(w, r, body, "")
		return
	}
	owners := c.ownerRefs(id)
	if len(owners) == 0 {
		apiclient.WriteError(w, http.StatusServiceUnavailable, "no shards in the ring", apiclient.RequestID(r))
		return
	}
	type putResult struct {
		resp *http.Response
		err  error
	}
	results := make([]putResult, len(owners))
	var wg sync.WaitGroup
	for i, o := range owners {
		wg.Add(1)
		go func(i int, cl *apiclient.Client) {
			defer wg.Done()
			resp, err := cl.Forward(r, body)
			results[i] = putResult{resp, err}
		}(i, o.cl)
	}
	wg.Wait()
	defer func() {
		for _, res := range results {
			if res.resp != nil {
				res.resp.Body.Close()
			}
		}
	}()
	for i, res := range results {
		if res.err != nil {
			c.relayError(w, r, owners[i].peer, res.err)
			return
		}
	}
	relay(w, results[0].resp.StatusCode, results[0].resp.Header, results[0].resp.Body)
}

// uploadID decodes the "image" upload of a reference put and returns
// its content id.
func uploadID(r *http.Request) (string, error) {
	if err := r.ParseMultipartForm(multipartMemory); err != nil {
		return "", err
	}
	defer r.MultipartForm.RemoveAll()
	f, _, err := r.FormFile("image")
	if err != nil {
		return "", err
	}
	defer f.Close()
	img, err := imageio.Read(f)
	if err != nil {
		return "", err
	}
	return refstore.ContentID(img)
}

func (c *Coordinator) handleRefList(w http.ResponseWriter, r *http.Request) {
	type peerRefs struct {
		refs []refstore.Meta
		peer string
		err  error
	}
	peers := c.ring.Peers()
	results := make([]peerRefs, len(peers))
	var wg sync.WaitGroup
	for i, peer := range peers {
		cl := c.client(peer)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			refs, err := cl.ListReferences(r.Context())
			results[i] = peerRefs{refs, peers[i], err}
		}(i)
	}
	wg.Wait()
	// With replication every reference appears on R shards; dedupe by
	// content id so clients see each reference once.
	all := []refstore.Meta{}
	seen := make(map[string]bool)
	for _, pr := range results {
		if pr.err != nil {
			c.relayError(w, r, pr.peer, pr.err)
			return
		}
		for _, ref := range pr.refs {
			if seen[ref.ID] {
				continue
			}
			seen[ref.ID] = true
			all = append(all, ref)
		}
	}
	refstore.SortMetas(all)
	apiclient.WriteJSON(w, http.StatusOK, apiclient.ReferenceList{References: all})
}

// handleRefDelete removes the reference from every ring owner. A 404
// from an individual owner is fine (a replica may have died and been
// repaired elsewhere); only if every owner 404s does the delete itself
// report not-found.
func (c *Coordinator) handleRefDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	owners := c.ownerRefs(id)
	if len(owners) == 0 {
		apiclient.WriteError(w, http.StatusServiceUnavailable, "no shards in the ring", apiclient.RequestID(r))
		return
	}
	notFound := 0
	for _, o := range owners {
		err := o.cl.DeleteReference(r.Context(), id)
		switch {
		case err == nil:
		case apiclient.IsNotFound(err):
			notFound++
		default:
			c.relayError(w, r, o.peer, err)
			return
		}
	}
	if notFound == len(owners) {
		apiclient.WriteError(w, http.StatusNotFound,
			fmt.Sprintf("reference %s not found on any owner", id), apiclient.RequestID(r))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (c *Coordinator) handleJobList(w http.ResponseWriter, r *http.Request) {
	peers := c.ring.Peers()
	type peerJobs struct {
		jobs []jobs.Status
		peer string
		err  error
	}
	results := make([]peerJobs, len(peers))
	var wg sync.WaitGroup
	for i, peer := range peers {
		cl := c.client(peer)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			list, err := cl.ListJobs(r.Context())
			results[i] = peerJobs{list, peers[i], err}
		}(i)
	}
	wg.Wait()
	all := []jobs.Status{}
	for _, pj := range results {
		if pj.err != nil {
			c.relayError(w, r, pj.peer, pj.err)
			return
		}
		all = append(all, pj.jobs...)
	}
	jobs.SortStatuses(all)
	apiclient.WriteJSON(w, http.StatusOK, apiclient.JobList{Jobs: all})
}

// handleReadyz aggregates per-shard readiness: probe "peer:<host>"
// for each shard (its own /readyz verdict) plus a "ring" probe with
// the membership summary. The shape matches a shard's /readyz so
// orchestrators need one parser.
func (c *Coordinator) handleReadyz(w http.ResponseWriter, r *http.Request) {
	peers := c.ring.Peers()
	probes := make([]apiclient.ReadyProbe, len(peers)+1)
	var wg sync.WaitGroup
	for i, peer := range peers {
		cl := c.client(peer)
		wg.Add(1)
		go func(i int, peer string) {
			defer wg.Done()
			p := apiclient.ReadyProbe{Name: "peer:" + peerLabel(peer)}
			st, err := cl.Ready(r.Context())
			switch {
			case err != nil:
				p.Detail = "unreachable"
			case !st.Ready:
				for _, sp := range st.Probes {
					if !sp.OK {
						p.Detail = sp.Name + ": " + sp.Detail
						break
					}
				}
			default:
				p.OK = true
			}
			probes[i] = p
		}(i, peer)
	}
	wg.Wait()
	probes[len(peers)] = apiclient.ReadyProbe{
		Name: "ring", OK: len(peers) > 0,
		Detail: fmt.Sprintf("peers=%d vnodes=%d", len(peers), c.ring.vnodes),
	}
	st := apiclient.ReadyStatus{Ready: true, Probes: probes}
	for _, p := range probes[:len(peers)] {
		if !p.OK {
			st.Ready = false
		}
	}
	status := http.StatusOK
	if !st.Ready {
		status = http.StatusServiceUnavailable
	}
	apiclient.WriteJSON(w, status, st)
}

func (c *Coordinator) handleRing(w http.ResponseWriter, r *http.Request) {
	apiclient.WriteJSON(w, http.StatusOK, map[string]any{
		"peers":         c.ring.Peers(),
		"virtual_nodes": c.ring.vnodes,
		"replicas":      c.replicas,
		"suspects":      c.suspectList(),
	})
}

// handleRebalance optionally applies a membership change first: a
// JSON body {"peers": ["http://...", ...]} replaces the ring (removed
// peers drain; unreachable ones are dropped without evacuation — a
// dead shard's data died with it). An empty body keeps the current
// membership and just repairs placement. Overlapping rebalances would
// work from stale listings and double-move references, so a second
// concurrent caller gets 409 instead of queueing behind the first —
// the lock covers the membership change too, keeping change+repair
// atomic with respect to other rebalances.
func (c *Coordinator) handleRebalance(w http.ResponseWriter, r *http.Request) {
	rid := apiclient.RequestID(r)
	// Read one byte past the cap to tell "exactly 1 MiB" from
	// "truncated at 1 MiB": a truncated JSON body must be 413, not a
	// confusing parse error.
	const maxBody = 1 << 20
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBody+1))
	if err != nil {
		apiclient.WriteError(w, http.StatusBadRequest, fmt.Sprintf("reading body: %v", err), rid)
		return
	}
	if len(body) > maxBody {
		apiclient.WriteError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("body exceeds %d bytes", maxBody), rid)
		return
	}
	if !c.rebalanceMu.TryLock() {
		apiclient.WriteError(w, http.StatusConflict, "a rebalance is already running", rid)
		return
	}
	defer c.rebalanceMu.Unlock()
	if len(body) > 0 {
		var req struct {
			Peers []string `json:"peers"`
		}
		if err := json.Unmarshal(body, &req); err != nil {
			apiclient.WriteError(w, http.StatusBadRequest, fmt.Sprintf("parsing body: %v", err), rid)
			return
		}
		if req.Peers != nil {
			if err := c.SetPeers(req.Peers); err != nil {
				apiclient.WriteError(w, http.StatusBadRequest, err.Error(), rid)
				return
			}
		}
	}
	moved, scanned, err := c.rebalance(r.Context())
	if err != nil {
		apiclient.WriteError(w, http.StatusServiceUnavailable, err.Error(), rid)
		return
	}
	apiclient.WriteJSON(w, http.StatusOK, map[string]any{
		"moved": moved, "scanned": scanned, "peers": c.ring.Peers(),
	})
}
