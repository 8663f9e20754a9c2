package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sysrle/internal/apiclient"
	"sysrle/internal/telemetry"
)

// Defaults for Config zero values.
const (
	// DefaultPeerTimeout bounds one coordinator→shard call.
	DefaultPeerTimeout = 30 * time.Second
	// DefaultMaxUploadBytes caps one inbound request body.
	DefaultMaxUploadBytes = 64 << 20
	// DefaultProbeInterval is the health prober's period when probing
	// is enabled implicitly by AutoEject.
	DefaultProbeInterval = 2 * time.Second
	// DefaultProbeFailures is how many consecutive probe failures mark
	// a peer suspect.
	DefaultProbeFailures = 3
)

// Config tunes a Coordinator.
type Config struct {
	// Peers are the shard base URLs (scheme://host:port). At least one
	// is required.
	Peers []string
	// VirtualNodes per peer on the ring; 0 means DefaultVirtualNodes.
	VirtualNodes int
	// Replicas is the replication factor R: each reference is written
	// to this many distinct ring successors, and reads fail over along
	// the same set. 0 or 1 means no replication. More replicas than
	// peers degrades gracefully to every peer.
	Replicas int
	// ProbeInterval is the background health prober's period; 0
	// disables probing (unless AutoEject forces DefaultProbeInterval).
	ProbeInterval time.Duration
	// ProbeFailures is how many consecutive failed probes mark a peer
	// suspect; 0 means DefaultProbeFailures.
	ProbeFailures int
	// AutoEject, when set, drops a suspect peer from the ring
	// automatically — the same drain path as an explicit membership
	// change — and kicks a background replica repair. Opt-in: a
	// flapping network ejecting healthy shards is worse than a dead
	// one answering 503s.
	AutoEject bool
	// PeerTimeout bounds each shard call; 0 means DefaultPeerTimeout.
	PeerTimeout time.Duration
	// HedgeDelay arms the client's slow-shard hedging for idempotent
	// calls; 0 disables it.
	HedgeDelay time.Duration
	// Retries is the per-call retry budget for idempotent shard calls
	// (see apiclient.Options.Retries).
	Retries int
	// Seed pins the client's retry jitter (chaos tests); 0 uses the clock.
	Seed int64
	// MaxUploadBytes caps one inbound body; 0 means DefaultMaxUploadBytes.
	MaxUploadBytes int64
	// Transport, when non-nil, is installed in every peer client —
	// chaos tests wrap it with fault.WrapTransport.
	Transport http.RoundTripper
	// Registry receives the coordinator's telemetry; nil means a
	// private registry.
	Registry *telemetry.Registry
	// Logger receives structured logs; nil discards them.
	Logger *slog.Logger
}

// Coordinator fronts a ring of sysdiffd shards as a thin proxy:
// references are placed by consistent hashing, every other call is
// forwarded whole to one shard, and everything a shard answers flows
// back through the same v1 API surface the shards themselves expose.
type Coordinator struct {
	cfg      Config
	ring     *Ring
	replicas int
	log      *slog.Logger
	reg      *telemetry.Registry

	mu      sync.RWMutex
	clients map[string]*apiclient.Client
	// draining holds clients for peers removed from the ring whose
	// references have not yet been moved off by Rebalance.
	draining map[string]*apiclient.Client

	// rebalanceMu serializes rebalances: overlapping runs would work
	// from stale listings, double-count moves, and delete strays the
	// other run is mid-fetching. The HTTP handler TryLocks and answers
	// 409 when one is already running.
	rebalanceMu sync.Mutex

	// probeMu guards the health prober's bookkeeping. Never held while
	// calling SetPeers (which takes mu) — the prober releases it before
	// ejecting.
	probeMu    sync.Mutex
	probeFails map[string]int
	suspects   map[string]bool

	probeStop chan struct{}
	probeDone chan struct{}
	closeOnce sync.Once

	rr      atomic.Uint64 // round-robin cursor for unplaced work
	handler http.Handler

	routeHits    *telemetry.Counter
	routeMisses  *telemetry.Counter
	movedRefs    *telemetry.Counter
	failovers    *telemetry.Counter
	suspectPeers *telemetry.Gauge
	ejections    *telemetry.Counter
}

// New returns a coordinator for the given shard set.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Peers) == 0 {
		return nil, fmt.Errorf("cluster: no peers configured")
	}
	if cfg.PeerTimeout <= 0 {
		cfg.PeerTimeout = DefaultPeerTimeout
	}
	if cfg.MaxUploadBytes <= 0 {
		cfg.MaxUploadBytes = DefaultMaxUploadBytes
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 1
	}
	if cfg.ProbeFailures <= 0 {
		cfg.ProbeFailures = DefaultProbeFailures
	}
	if cfg.AutoEject && cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = DefaultProbeInterval
	}
	c := &Coordinator{
		cfg:        cfg,
		ring:       NewRing(nil, cfg.VirtualNodes),
		replicas:   cfg.Replicas,
		log:        cfg.Logger,
		reg:        cfg.Registry,
		clients:    make(map[string]*apiclient.Client),
		draining:   make(map[string]*apiclient.Client),
		probeFails: make(map[string]int),
		suspects:   make(map[string]bool),
	}
	if c.log == nil {
		c.log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if c.reg == nil {
		c.reg = telemetry.NewRegistry()
	}
	c.reg.Help("sysrle_cluster_ref_route_hits_total",
		"Requests routed to a reference's owners (ref= calls, reference reads) that an owner answered.")
	c.reg.Help("sysrle_cluster_ref_route_misses_total",
		"Requests routed to a reference's owners that every owner 404ed (placement miss).")
	c.reg.Help("sysrle_cluster_rebalance_moved_total",
		"Reference copies created on ring owners by rebalancing (moves and replica repairs).")
	c.reg.Help("sysrle_cluster_peer_request_seconds",
		"Coordinator→shard call latency, by peer.")
	c.reg.Help("sysrle_cluster_peer_requests_total",
		"Coordinator→shard calls, by peer and status class.")
	c.reg.Help("sysrle_cluster_failover_total",
		"Reference reads served by a replica after the primary failed or missed.")
	c.reg.Help("sysrle_cluster_suspect_peers",
		"Peers currently suspected dead by the health prober.")
	c.reg.Help("sysrle_cluster_auto_ejections_total",
		"Suspect peers dropped from the ring by the prober under AutoEject.")
	c.routeHits = c.reg.Counter("sysrle_cluster_ref_route_hits_total")
	c.routeMisses = c.reg.Counter("sysrle_cluster_ref_route_misses_total")
	c.movedRefs = c.reg.Counter("sysrle_cluster_rebalance_moved_total")
	c.failovers = c.reg.Counter("sysrle_cluster_failover_total")
	c.suspectPeers = c.reg.Gauge("sysrle_cluster_suspect_peers")
	c.ejections = c.reg.Counter("sysrle_cluster_auto_ejections_total")
	if err := c.SetPeers(cfg.Peers); err != nil {
		return nil, err
	}
	c.handler = c.middleware(c.routes())
	if cfg.ProbeInterval > 0 {
		c.probeStop = make(chan struct{})
		c.probeDone = make(chan struct{})
		go c.probeLoop(cfg.ProbeInterval)
	}
	return c, nil
}

// Close stops the background health prober, if one is running. Safe to
// call more than once; the HTTP handler keeps working.
func (c *Coordinator) Close() {
	c.closeOnce.Do(func() {
		if c.probeStop != nil {
			close(c.probeStop)
			<-c.probeDone
		}
	})
}

// peerLabel folds a base URL to host:port for bounded metric labels.
func peerLabel(base string) string {
	if u, err := url.Parse(base); err == nil && u.Host != "" {
		return u.Host
	}
	return base
}

// newClient builds the typed client for one peer, feeding the
// per-peer latency histogram from the client's Observe hook.
func (c *Coordinator) newClient(peer string) (*apiclient.Client, error) {
	label := telemetry.L("peer", peerLabel(peer))
	hist := c.reg.Histogram("sysrle_cluster_peer_request_seconds", nil, label)
	return apiclient.New(peer, apiclient.Options{
		HTTPClient: &http.Client{Transport: c.cfg.Transport},
		Timeout:    c.cfg.PeerTimeout,
		Retries:    c.cfg.Retries,
		HedgeDelay: c.cfg.HedgeDelay,
		Seed:       c.cfg.Seed,
		UserAgent:  "sysrle-cluster/1",
		Observe: func(route string, d time.Duration, status int) {
			hist.ObserveDuration(d)
			c.reg.Counter("sysrle_cluster_peer_requests_total",
				label, telemetry.L("class", statusClass(status))).Inc()
		},
	})
}

func statusClass(status int) string {
	switch {
	case status == 0:
		return "error"
	case status < 300:
		return "2xx"
	case status < 400:
		return "3xx"
	case status < 500:
		return "4xx"
	default:
		return "5xx"
	}
}

// SetPeers replaces the membership. Existing clients for surviving
// peers are kept (their metrics series stay hot); removed peers move
// to a draining set so the next Rebalance can pull their references
// onto the survivors. Placement follows the ring's
// bounded-rebalancing property, and actually moving the misplaced
// references is Rebalance's job.
//
// The change is all-or-nothing: every new peer's client is staged
// before any coordinator state mutates, so a failed change (bad peer
// URL) leaves clients, the draining set and the ring exactly as they
// were. An earlier version deleted peers from the draining set while
// iterating, before client construction could fail — a rejected
// membership change silently un-drained peers whose references then
// never got evacuated.
func (c *Coordinator) SetPeers(peers []string) error {
	if err := c.setPeers(peers); err != nil {
		return err
	}
	c.pruneProbeState()
	return nil
}

func (c *Coordinator) setPeers(peers []string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	// Stage: build the complete next client set without touching
	// anything. A re-added draining peer gets its old client back.
	fresh := make(map[string]*apiclient.Client, len(peers))
	for _, p := range peers {
		if p == "" {
			continue
		}
		if cl, ok := c.clients[p]; ok {
			fresh[p] = cl
			continue
		}
		if cl, ok := c.draining[p]; ok {
			fresh[p] = cl
			continue
		}
		cl, err := c.newClient(p)
		if err != nil {
			return err
		}
		fresh[p] = cl
	}
	if len(fresh) == 0 {
		return fmt.Errorf("cluster: no valid peers")
	}
	// Commit: nothing below can fail.
	for p := range fresh {
		delete(c.draining, p) // re-added peer is no longer draining
	}
	for p, cl := range c.clients {
		if _, kept := fresh[p]; !kept {
			c.draining[p] = cl
		}
	}
	c.clients = fresh
	c.ring.SetPeers(peers)
	c.log.Info("cluster membership set", "peers", c.ring.Peers(), "draining", len(c.draining))
	return nil
}

// pruneProbeState drops prober bookkeeping for peers no longer on the
// ring, so a removed peer cannot linger as suspect.
func (c *Coordinator) pruneProbeState() {
	member := make(map[string]bool)
	for _, p := range c.ring.Peers() {
		member[p] = true
	}
	c.probeMu.Lock()
	for p := range c.probeFails {
		if !member[p] {
			delete(c.probeFails, p)
		}
	}
	for p := range c.suspects {
		if !member[p] {
			delete(c.suspects, p)
		}
	}
	c.suspectPeers.Set(int64(len(c.suspects)))
	c.probeMu.Unlock()
}

// drainingPeers snapshots the draining set.
func (c *Coordinator) drainingPeers() map[string]*apiclient.Client {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make(map[string]*apiclient.Client, len(c.draining))
	for p, cl := range c.draining {
		out[p] = cl
	}
	return out
}

// drained marks a removed peer as fully evacuated.
func (c *Coordinator) drained(peer string) {
	c.mu.Lock()
	delete(c.draining, peer)
	c.mu.Unlock()
}

// Peers returns the current membership.
func (c *Coordinator) Peers() []string { return c.ring.Peers() }

// client returns the typed client for a peer URL.
func (c *Coordinator) client(peer string) *apiclient.Client {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.clients[peer]
}

// ownerRef is one member of a key's replica set.
type ownerRef struct {
	peer string
	cl   *apiclient.Client
}

// ownerRefs resolves a placement key to its replica set — the R ring
// successors, primary first — with their clients.
func (c *Coordinator) ownerRefs(key string) []ownerRef {
	peers := c.ring.Owners(key, c.replicas)
	out := make([]ownerRef, 0, len(peers))
	c.mu.RLock()
	for _, p := range peers {
		out = append(out, ownerRef{p, c.clients[p]})
	}
	c.mu.RUnlock()
	return out
}

// readOwners runs fn against the key's replica set in ring order:
// primary first, failing over to the next replica when the attempt is
// failover-eligible (unreachable peer, 5xx, or a 404 placement miss —
// a replica may hold the copy the primary lost). A read served past
// the primary counts in sysrle_cluster_failover_total. When every
// owner fails, an availability error wins over a 404 — a 404 is only
// definitive if every replica agreed the reference does not exist.
// The returned peer is the one whose answer (or decisive error) the
// caller relays.
func (c *Coordinator) readOwners(key string, fn func(cl *apiclient.Client) error) (string, error) {
	owners := c.ownerRefs(key)
	var notFoundPeer, failedPeer string
	var notFound, failed error
	for i, o := range owners {
		if o.cl == nil {
			continue
		}
		err := fn(o.cl)
		if err == nil {
			if i > 0 {
				c.failovers.Inc()
				c.log.Info("reference read failed over to replica",
					"key", key, "replica", peerLabel(o.peer))
			}
			return o.peer, nil
		}
		if !apiclient.FailoverEligible(err) {
			// Definitive client-level failure (422, 429, ...): every
			// replica would answer the same; relay it as-is.
			return o.peer, err
		}
		if apiclient.IsNotFound(err) {
			notFoundPeer, notFound = o.peer, err
		} else {
			failedPeer, failed = o.peer, err
		}
	}
	if failed != nil {
		return failedPeer, failed
	}
	if notFound != nil {
		return notFoundPeer, notFound
	}
	return "", fmt.Errorf("cluster: no shard owns this key")
}

// probeLoop is the background health prober: every interval it asks
// each ring member's /readyz (the same per-shard probes the
// coordinator's readyz aggregates) and counts consecutive transport
// failures. A peer that cannot be reached ProbeFailures times in a row
// is marked suspect; under AutoEject it is then dropped from the ring
// — the identical drain path an operator's membership change takes —
// and a background replica repair re-replicates what it held.
func (c *Coordinator) probeLoop(interval time.Duration) {
	defer close(c.probeDone)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-c.probeStop:
			return
		case <-t.C:
			c.probeOnce(interval)
		}
	}
}

func (c *Coordinator) probeOnce(interval time.Duration) {
	peers := c.ring.Peers()
	type verdict struct {
		peer string
		ok   bool
	}
	verdicts := make([]verdict, len(peers))
	var wg sync.WaitGroup
	for i, peer := range peers {
		cl := c.client(peer)
		if cl == nil {
			verdicts[i] = verdict{peer, false}
			continue
		}
		wg.Add(1)
		go func(i int, peer string, cl *apiclient.Client) {
			defer wg.Done()
			// One probe must not outlive its tick. A not-ready answer
			// still proves the shard is alive (and its data intact), so
			// only an unreachable peer counts as a failure.
			ctx, cancel := context.WithTimeout(context.Background(), interval)
			defer cancel()
			_, err := cl.Ready(ctx)
			verdicts[i] = verdict{peer, err == nil}
		}(i, peer, cl)
	}
	wg.Wait()

	var eject []string
	c.probeMu.Lock()
	for _, v := range verdicts {
		if v.ok {
			if c.suspects[v.peer] {
				c.log.Info("suspect peer recovered", "peer", peerLabel(v.peer))
			}
			delete(c.probeFails, v.peer)
			delete(c.suspects, v.peer)
			continue
		}
		c.probeFails[v.peer]++
		if c.probeFails[v.peer] >= c.cfg.ProbeFailures && !c.suspects[v.peer] {
			c.suspects[v.peer] = true
			c.log.Warn("peer suspect after consecutive probe failures",
				"peer", peerLabel(v.peer), "failures", c.probeFails[v.peer])
			if c.cfg.AutoEject {
				eject = append(eject, v.peer)
			}
		}
	}
	c.suspectPeers.Set(int64(len(c.suspects)))
	c.probeMu.Unlock()

	for _, peer := range eject {
		c.ejectPeer(peer)
	}
}

// suspectList snapshots the peers currently suspected dead.
func (c *Coordinator) suspectList() []string {
	c.probeMu.Lock()
	defer c.probeMu.Unlock()
	out := make([]string, 0, len(c.suspects))
	for p := range c.suspects {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// ejectPeer drops a suspect peer from the ring via the same SetPeers
// drain path an operator uses, then kicks a background rebalance so
// the survivors re-replicate what the dead peer held. The last peer is
// never ejected — a coordinator with an empty ring can serve nothing.
func (c *Coordinator) ejectPeer(peer string) {
	var survivors []string
	for _, p := range c.ring.Peers() {
		if p != peer {
			survivors = append(survivors, p)
		}
	}
	if len(survivors) == 0 {
		c.log.Warn("not auto-ejecting the last peer", "peer", peerLabel(peer))
		return
	}
	if err := c.SetPeers(survivors); err != nil {
		c.log.Error("auto-eject membership change failed", "peer", peerLabel(peer), "err", err)
		return
	}
	c.ejections.Inc()
	c.log.Warn("peer auto-ejected from ring", "peer", peerLabel(peer), "peers", survivors)
	go func() {
		if !c.rebalanceMu.TryLock() {
			return // a running rebalance will pick the change up next run
		}
		defer c.rebalanceMu.Unlock()
		ctx, cancel := context.WithTimeout(context.Background(), 10*c.cfg.PeerTimeout)
		defer cancel()
		if moved, _, err := c.rebalance(ctx); err != nil {
			c.log.Warn("post-eject replica repair failed", "err", err)
		} else if moved > 0 {
			c.log.Info("post-eject replica repair complete", "copies", moved)
		}
	}()
}

// nextClient picks the next peer round-robin, for work with no
// placement affinity (inline uploads).
func (c *Coordinator) nextClient() (string, *apiclient.Client) {
	peers := c.ring.Peers()
	if len(peers) == 0 {
		return "", nil
	}
	peer := peers[int(c.rr.Add(1)-1)%len(peers)]
	return peer, c.client(peer)
}

// ServeHTTP dispatches through the coordinator's middleware and mux.
func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.handler.ServeHTTP(w, r)
}

// middleware is the coordinator's thin stack: request id (the
// shard's rule; every shard call made for the request carries the
// id), panic recovery, access log. Shard calls carry their own
// deadlines, so there is no separate coordinator timeout tier.
func (c *Coordinator) middleware(next http.Handler) http.Handler {
	panics := c.reg.Counter("sysrle_cluster_http_panics_total")
	return apiclient.RequestIDHandler(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := apiclient.RequestID(r)
		start := time.Now()
		defer func() {
			if v := recover(); v != nil {
				panics.Inc()
				c.log.Error("panic serving request", "path", r.URL.Path, "panic", fmt.Sprint(v))
				apiclient.WriteError(w, http.StatusInternalServerError, "internal error", id)
			}
			c.log.Info("request", "method", r.Method, "path", r.URL.Path,
				"duration", time.Since(start), "request_id", id)
		}()
		next.ServeHTTP(w, r)
	}))
}

// relayError answers with a shard-call failure: an API error is the
// shard's own answer and is relayed unchanged; a transport failure — a
// dead or unreachable shard — becomes 503 unavailable, so a killed
// shard fails only the requests its ring span owns.
func (c *Coordinator) relayError(w http.ResponseWriter, r *http.Request, peer string, err error) {
	if ae, ok := apiErr(err); ok {
		relay(w, ae.Status, ae.Header, bytes.NewReader(ae.Body))
		return
	}
	rid := apiclient.RequestID(r)
	c.log.Warn("peer unreachable", "peer", peerLabel(peer), "err", err, "request_id", rid)
	apiclient.WriteError(w, http.StatusServiceUnavailable,
		fmt.Sprintf("shard %s unavailable", peerLabel(peer)), rid)
}

// relay writes a shard's answer to the client unchanged: status,
// end-to-end headers and body bytes.
func relay(w http.ResponseWriter, status int, header http.Header, body io.Reader) {
	for k, vs := range header {
		switch k {
		case "Connection", "Keep-Alive", "Transfer-Encoding", "Trailer", "Upgrade":
			continue
		}
		w.Header()[k] = vs
	}
	w.WriteHeader(status)
	_, _ = io.Copy(w, body)
}

func apiErr(err error) (*apiclient.Error, bool) {
	var ae *apiclient.Error
	if errors.As(err, &ae) {
		return ae, true
	}
	return nil, false
}
