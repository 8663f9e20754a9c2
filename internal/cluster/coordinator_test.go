package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sysrle/internal/apiclient"
	"sysrle/internal/imageio"
	"sysrle/internal/refstore"
	"sysrle/internal/rle"
	"sysrle/internal/server"
	"sysrle/internal/workload"
)

// startShards boots n in-process sysdiffd instances behind httptest
// listeners and returns their base URLs.
func startShards(t *testing.T, n int) []string {
	urls, _ := startKillableShards(t, n)
	return urls
}

// startKillableShards is startShards plus a kill switch per shard —
// chaos tests use it to model hard shard death.
func startKillableShards(t *testing.T, n int) ([]string, func(i int)) {
	t.Helper()
	urls := make([]string, n)
	kills := make([]func(), n)
	for i := range urls {
		srv := server.New()
		ts := httptest.NewServer(srv)
		var done bool
		kill := func() {
			if !done {
				done = true
				ts.CloseClientConnections()
				ts.Close()
				srv.Close()
			}
		}
		t.Cleanup(kill)
		urls[i] = ts.URL
		kills[i] = kill
	}
	return urls, func(i int) { kills[i]() }
}

func startCoordinator(t *testing.T, cfg Config) (*Coordinator, string) {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	t.Cleanup(c.Close)
	ts := httptest.NewServer(c)
	t.Cleanup(ts.Close)
	return c, ts.URL
}

func genImage(t *testing.T, seed int64, width, height int) *rle.Image {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	img, err := workload.GenerateImage(rng, workload.PaperRow(width, 0.3), height)
	if err != nil {
		t.Fatalf("workload.GenerateImage: %v", err)
	}
	return img
}

// postDiff posts a raw multipart diff request and returns status,
// headers and body bytes — raw, for byte-identity assertions.
func postDiff(t *testing.T, base string, a, b *rle.Image, query string) (int, http.Header, []byte) {
	t.Helper()
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	for field, img := range map[string]*rle.Image{"a": a, "b": b} {
		if img == nil {
			continue
		}
		fw, err := mw.CreateFormFile(field, field+".rleb")
		if err != nil {
			t.Fatal(err)
		}
		if err := imageio.Write(fw, "rleb", img); err != nil {
			t.Fatal(err)
		}
	}
	mw.Close()
	req, err := http.NewRequest(http.MethodPost, base+"/v1/diff?"+query, &buf)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", mw.FormDataContentType())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST /v1/diff: %v", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, body
}

var statHeaders = []string{
	"X-Sysrle-Rows-Differing", "X-Sysrle-Iterations-Total", "X-Sysrle-Iterations-Max-Row",
	"X-Sysrle-Cells-Total", "X-Sysrle-Cells-Max-Row", "X-Sysrle-Diff-Pixels",
}

// peerCalls sums sysrle_cluster_peer_requests_total over every peer
// and status class.
func peerCalls(c *Coordinator) int64 {
	var n int64
	for _, v := range c.reg.Snapshot()["sysrle_cluster_peer_requests_total"] {
		n += v.(int64)
	}
	return n
}

// TestCoordinatorInlineDiffOneShardCall pins the routing policy: an
// inline diff, however tall, is forwarded whole to one shard, and the
// shard's answer comes back unchanged.
func TestCoordinatorInlineDiffOneShardCall(t *testing.T) {
	shards := startShards(t, 3)
	c, coordURL := startCoordinator(t, Config{Peers: shards, Seed: 1})

	a := genImage(t, 1, 320, 300)
	b := genImage(t, 2, 320, 300)
	before := peerCalls(c)
	status, hdr, got := postDiff(t, coordURL, a, b, "format=rleb")
	if status != http.StatusOK {
		t.Fatalf("coordinator diff status = %d, body %s", status, got)
	}
	if calls := peerCalls(c) - before; calls != 1 {
		t.Fatalf("inline diff made %d shard calls, want 1", calls)
	}
	_, shardHdr, want := postDiff(t, shards[0], a, b, "format=rleb")
	if !bytes.Equal(got, want) {
		t.Fatalf("routed diff differs from a shard's (%d vs %d bytes)", len(got), len(want))
	}
	for _, h := range statHeaders {
		if hdr.Get(h) != shardHdr.Get(h) {
			t.Errorf("header %s: coordinator %q, shard %q", h, hdr.Get(h), shardHdr.Get(h))
		}
	}
}

func TestCoordinatorRefPlacementAndRouting(t *testing.T) {
	shards := startShards(t, 3)
	c, coordURL := startCoordinator(t, Config{Peers: shards, Seed: 1})
	coord := apiclient.MustNew(coordURL, apiclient.Options{Seed: 1})
	ctx := context.Background()

	// Register references through the coordinator; each must land on
	// exactly one shard — its ring owner.
	ids := make([]string, 0, 8)
	for i := 0; i < 8; i++ {
		img := genImage(t, int64(100+i), 96, 80)
		meta, err := coord.PutReference(ctx, img)
		if err != nil {
			t.Fatalf("PutReference %d: %v", i, err)
		}
		want, err := refstore.ContentID(img)
		if err != nil {
			t.Fatal(err)
		}
		if meta.ID != want {
			t.Fatalf("ref id %q, want content id %q", meta.ID, want)
		}
		ids = append(ids, meta.ID)
	}
	for _, id := range ids {
		owner := c.ring.Owner(id)
		holders := 0
		for _, shard := range shards {
			cl := apiclient.MustNew(shard, apiclient.Options{Seed: 1})
			if _, err := cl.GetReference(ctx, id); err == nil {
				holders++
				if shard != owner {
					t.Errorf("ref %s held by %s, ring owner is %s", id[:12], shard, owner)
				}
			}
		}
		if holders != 1 {
			t.Fatalf("ref %s held by %d shards, want exactly 1", id[:12], holders)
		}
	}

	// Ref-routed diff through the coordinator answers and counts hits.
	scan := genImage(t, 999, 96, 80)
	res, err := coord.Diff(ctx, apiclient.DiffRequest{RefID: ids[0], B: scan})
	if err != nil {
		t.Fatalf("ref-routed diff: %v", err)
	}
	if res.Image.Height != 80 {
		t.Fatalf("diff height = %d, want 80", res.Image.Height)
	}
	if c.routeHits.Value() == 0 {
		t.Fatalf("ref route hit not counted")
	}
	if _, err := coord.Diff(ctx, apiclient.DiffRequest{RefID: "0000beef", B: scan}); !apiclient.IsNotFound(err) {
		t.Fatalf("unknown ref diff error = %v, want 404", err)
	}
	if c.routeMisses.Value() == 0 {
		t.Fatalf("ref route miss not counted")
	}

	// The merged list sees every reference exactly once.
	list, err := coord.ListReferences(ctx)
	if err != nil {
		t.Fatalf("ListReferences: %v", err)
	}
	if len(list) != len(ids) {
		t.Fatalf("coordinator lists %d refs, want %d", len(list), len(ids))
	}
}

func TestCoordinatorMembershipChangeRebalance(t *testing.T) {
	shards := startShards(t, 3)
	c, coordURL := startCoordinator(t, Config{Peers: shards, Seed: 1})
	coord := apiclient.MustNew(coordURL, apiclient.Options{Seed: 1})
	ctx := context.Background()

	ids := make([]string, 0, 12)
	for i := 0; i < 12; i++ {
		meta, err := coord.PutReference(ctx, genImage(t, int64(200+i), 96, 64))
		if err != nil {
			t.Fatalf("PutReference: %v", err)
		}
		ids = append(ids, meta.ID)
	}

	// Shrink membership: drop the last shard, then rebalance. Only
	// references owned by the removed shard (or whose span moved) may
	// relocate.
	before := map[string]string{}
	for _, id := range ids {
		before[id] = c.ring.Owner(id)
	}
	survivors := shards[:2]
	if err := c.SetPeers(survivors); err != nil {
		t.Fatalf("SetPeers: %v", err)
	}
	movedEligible := 0
	for _, id := range ids {
		after := c.ring.Owner(id)
		if before[id] != shards[2] && after != before[id] {
			t.Errorf("ref %s moved owner %s → %s though its owner survived", id[:12], before[id], after)
		}
		if before[id] == shards[2] {
			movedEligible++
		}
	}

	moved, scanned, err := c.Rebalance(ctx)
	if err != nil {
		t.Fatalf("Rebalance: %v", err)
	}
	if scanned != len(ids) {
		t.Fatalf("rebalance scanned %d, want %d", scanned, len(ids))
	}
	if moved != movedEligible {
		t.Fatalf("rebalance moved %d refs, want %d (only the removed shard's span)", moved, movedEligible)
	}

	// Every reference is still retrievable through the coordinator and
	// sits on its (new) owner.
	for _, id := range ids {
		if _, err := coord.GetReference(ctx, id); err != nil {
			t.Fatalf("ref %s lost after rebalance: %v", id[:12], err)
		}
		owner := c.ring.Owner(id)
		cl := apiclient.MustNew(owner, apiclient.Options{Seed: 1})
		if _, err := cl.GetReference(ctx, id); err != nil {
			t.Fatalf("ref %s not on its owner %s after rebalance: %v", id[:12], owner, err)
		}
	}
}

func TestCoordinatorReadyzAndAudit404(t *testing.T) {
	shards := startShards(t, 2)
	_, coordURL := startCoordinator(t, Config{Peers: shards, Seed: 1})
	coord := apiclient.MustNew(coordURL, apiclient.Options{Seed: 1})

	st, err := coord.Ready(context.Background())
	if err != nil {
		t.Fatalf("Ready: %v", err)
	}
	if !st.Ready {
		t.Fatalf("cluster not ready: %+v", st.Probes)
	}
	if len(st.Probes) != len(shards)+1 {
		t.Fatalf("probes = %d, want %d (peers + ring)", len(st.Probes), len(shards)+1)
	}

	_, err = coord.Audit(context.Background())
	if !apiclient.IsNotFound(err) {
		t.Fatalf("coordinator audit error = %v, want 404", err)
	}
	resp, err := http.Get(coordURL + "/v1/audit")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("audit 404 Content-Type = %q", ct)
	}
	var env struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil || env.Error.Code != "not_found" {
		t.Fatalf("audit 404 envelope code = %q err %v", env.Error.Code, err)
	}
}

func TestCoordinatorJobsRouting(t *testing.T) {
	shards := startShards(t, 2)
	_, coordURL := startCoordinator(t, Config{Peers: shards, Seed: 1})
	coord := apiclient.MustNew(coordURL, apiclient.Options{Seed: 1})
	ctx := context.Background()

	ref := genImage(t, 42, 96, 64)
	meta, err := coord.PutReference(ctx, ref)
	if err != nil {
		t.Fatalf("PutReference: %v", err)
	}
	scans := []*rle.Image{genImage(t, 43, 96, 64), genImage(t, 44, 96, 64)}
	st, err := coord.SubmitJob(ctx, apiclient.JobRequest{RefID: meta.ID, Scans: scans})
	if err != nil {
		t.Fatalf("SubmitJob: %v", err)
	}
	ctx2, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	final, err := coord.WaitJob(ctx2, st.ID, 20*time.Millisecond)
	if err != nil {
		t.Fatalf("WaitJob: %v", err)
	}
	if final.State != "done" {
		t.Fatalf("job state = %q, want done (%+v)", final.State, final)
	}
	if len(final.Results) != len(scans) {
		t.Fatalf("job results = %d, want %d", len(final.Results), len(scans))
	}

	jobs, err := coord.ListJobs(ctx)
	if err != nil {
		t.Fatalf("ListJobs: %v", err)
	}
	if len(jobs) != 1 {
		t.Fatalf("coordinator lists %d jobs, want 1", len(jobs))
	}
	if err := coord.DeleteJob(ctx, st.ID); err != nil {
		t.Fatalf("DeleteJob: %v", err)
	}
	if _, err := coord.GetJob(ctx, st.ID); !apiclient.IsNotFound(err) {
		t.Fatalf("deleted job get error = %v, want 404", err)
	}
}

func TestCoordinatorRingEndpoint(t *testing.T) {
	shards := startShards(t, 2)
	_, coordURL := startCoordinator(t, Config{Peers: shards, Seed: 1})
	resp, err := http.Get(coordURL + "/v1/cluster/ring")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ring struct {
		Peers        []string `json:"peers"`
		VirtualNodes int      `json:"virtual_nodes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ring); err != nil {
		t.Fatalf("decoding ring: %v", err)
	}
	if len(ring.Peers) != 2 || ring.VirtualNodes != DefaultVirtualNodes {
		t.Fatalf("ring = %+v", ring)
	}
}

func TestCoordinatorRequiresPeers(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatalf("New with no peers should fail")
	}
}

// TestRebalanceEndpointMembershipChange drives the operator path the
// chaos suite exercises via internal calls: a shard dies, and one
// POST /v1/cluster/rebalance with a {"peers": [...]} body both drops
// it from the ring (dead drain skipped, not wedged) and re-homes the
// survivors' strays.
func TestRebalanceEndpointMembershipChange(t *testing.T) {
	shards, kill := startKillableShards(t, 3)
	c, coordURL := startCoordinator(t, Config{Peers: shards, Seed: 1})
	coord := apiclient.MustNew(coordURL, apiclient.Options{Seed: 1})
	ctx := context.Background()

	ids := make([]string, 0, 8)
	for i := 0; i < 8; i++ {
		meta, err := coord.PutReference(ctx, genImage(t, int64(400+i), 96, 64))
		if err != nil {
			t.Fatalf("PutReference: %v", err)
		}
		ids = append(ids, meta.ID)
	}
	before := make(map[string]string, len(ids))
	for _, id := range ids {
		before[id] = c.ring.Owner(id)
	}

	kill(2)
	body, _ := json.Marshal(map[string][]string{"peers": shards[:2]})
	resp, err := http.Post(coordURL+"/v1/cluster/rebalance", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST rebalance: %v", err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rebalance status %d: %s", resp.StatusCode, raw)
	}
	var out struct {
		Moved   int      `json:"moved"`
		Scanned int      `json:"scanned"`
		Peers   []string `json:"peers"`
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("decoding response %s: %v", raw, err)
	}
	if len(out.Peers) != 2 {
		t.Fatalf("response peers = %v, want the 2 survivors", out.Peers)
	}
	if got := c.ring.Peers(); len(got) != 2 {
		t.Fatalf("ring peers after HTTP membership change = %v", got)
	}

	// The dead shard's span is lost (404); everything else survives.
	for _, id := range ids {
		_, err := coord.GetReference(ctx, id)
		if before[id] == shards[2] {
			if !apiclient.IsNotFound(err) {
				t.Errorf("ref %s died with its shard: err = %v, want 404", id[:12], err)
			}
		} else if err != nil {
			t.Errorf("surviving ref %s: %v", id[:12], err)
		}
	}

	// An empty body keeps the membership and just re-homes strays.
	resp, err = http.Post(coordURL+"/v1/cluster/rebalance", "application/json", nil)
	if err != nil {
		t.Fatalf("POST rebalance (empty body): %v", err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("empty-body rebalance status %d: %s", resp.StatusCode, raw)
	}
	if err := json.Unmarshal(raw, &out); err != nil || len(out.Peers) != 2 {
		t.Fatalf("empty-body rebalance response %s (err %v)", raw, err)
	}

	// A malformed body is an envelope error, not a panic or a move.
	resp, err = http.Post(coordURL+"/v1/cluster/rebalance", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatalf("POST rebalance (bad body): %v", err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(raw, []byte("invalid_argument")) {
		t.Fatalf("bad-body rebalance: status %d body %s, want 400 invalid_argument", resp.StatusCode, raw)
	}
}

// TestCoordinatorOversizeUploads413: an upload over the coordinator's
// MaxUploadBytes is 413 payload_too_large on every body-carrying path,
// as it is on a shard.
func TestCoordinatorOversizeUploads413(t *testing.T) {
	shards := startShards(t, 2)
	_, coordURL := startCoordinator(t, Config{Peers: shards, MaxUploadBytes: 1 << 10, Seed: 1})
	big := func(field string) part { return part{field, field + ".bin", make([]byte, 4<<10)} }
	for _, tc := range []struct {
		path  string
		parts []part
	}{
		{"/v1/jobs?ref=0000beef", []part{big("scan")}},
		{"/v1/references", []part{big("image")}},
		{"/v1/diff", []part{big("a"), big("b")}},
	} {
		got := call(t, http.MethodPost, coordURL+tc.path, "", tc.parts)
		if code, _, _ := envelope(got.body); got.status != http.StatusRequestEntityTooLarge || code != "payload_too_large" {
			t.Errorf("POST %s: status %d code %q, want 413 payload_too_large", tc.path, got.status, code)
		}
	}
}

// TestCoordinatorRelaysRetryAfter: a shard's 429 backpressure reaches
// the client with its Retry-After.
func TestCoordinatorRelaysRetryAfter(t *testing.T) {
	srv := server.NewWith(server.Config{JobQueueDepth: 1})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); srv.Close() })
	_, coordURL := startCoordinator(t, Config{Peers: []string{ts.URL}, Seed: 1})
	meta, err := apiclient.MustNew(coordURL, apiclient.Options{Seed: 1}).PutReference(context.Background(), genImage(t, 1, 64, 32))
	if err != nil {
		t.Fatalf("PutReference: %v", err)
	}
	scan := filePart(t, "scan", genImage(t, 2, 64, 32))
	got := call(t, http.MethodPost, coordURL+"/v1/jobs?ref="+meta.ID, "", []part{scan, scan, scan})
	if got.status != http.StatusTooManyRequests || got.header.Get("Retry-After") != "1" {
		t.Fatalf("3-scan job on a depth-1 queue: status %d Retry-After %q, want 429 with Retry-After 1; body %s",
			got.status, got.header.Get("Retry-After"), got.body)
	}
}

// TestCoordinatorRelayedErrorCarriesRequestID: the shard sees the
// client's request id, so a relayed envelope names it.
func TestCoordinatorRelayedErrorCarriesRequestID(t *testing.T) {
	_, coordURL := startCoordinator(t, Config{Peers: startShards(t, 2), Seed: 1})
	got := call(t, http.MethodGet, coordURL+"/v1/jobs/nope", "r1", nil)
	if code, rid, _ := envelope(got.body); got.status != http.StatusNotFound || code != "not_found" || rid != "r1" {
		t.Fatalf("GET /v1/jobs/nope: status %d code %q request_id %q, want 404 not_found r1; body %s",
			got.status, code, rid, got.body)
	}
}

// TestCoordinatorJobIDsUniqueAcrossShards submits one job straight to
// each of two shards: both number their first job 1, yet the ids
// differ, so the coordinator's GET and DELETE reach the right job.
func TestCoordinatorJobIDsUniqueAcrossShards(t *testing.T) {
	shards := startShards(t, 2)
	_, coordURL := startCoordinator(t, Config{Peers: shards, Seed: 1})
	coord := apiclient.MustNew(coordURL, apiclient.Options{Seed: 1})
	ctx := context.Background()

	ref := genImage(t, 42, 96, 64)
	ids := make([]string, len(shards))
	for i, shard := range shards {
		scans := make([]*rle.Image, i+1) // scans_total tells the jobs apart
		for k := range scans {
			scans[k] = genImage(t, int64(43+k), 96, 64)
		}
		st, err := apiclient.MustNew(shard, apiclient.Options{Seed: 1}).
			SubmitJob(ctx, apiclient.JobRequest{Ref: ref, Scans: scans})
		if err != nil {
			t.Fatalf("SubmitJob on shard %d: %v", i, err)
		}
		ids[i] = st.ID
	}
	if ids[0] == ids[1] {
		t.Fatalf("both shards minted job id %q", ids[0])
	}
	for i, id := range ids {
		st, err := coord.GetJob(ctx, id)
		if err != nil {
			t.Fatalf("GetJob(%s): %v", id, err)
		}
		if st.ID != id || st.ScansTotal != i+1 {
			t.Fatalf("GetJob(%s) = job %s with %d scans, want %d", id, st.ID, st.ScansTotal, i+1)
		}
	}
	if err := coord.DeleteJob(ctx, ids[0]); err != nil {
		t.Fatalf("DeleteJob: %v", err)
	}
	if _, err := coord.GetJob(ctx, ids[0]); !apiclient.IsNotFound(err) {
		t.Fatalf("deleted job get error = %v, want 404", err)
	}
	if st, err := coord.GetJob(ctx, ids[1]); err != nil || st.ScansTotal != 2 {
		t.Fatalf("surviving job = %+v, %v", st, err)
	}
}

// TestCoordinatorRoundRobinInlineDiffs sends inline diffs without an
// X-Request-Id: minting the request id must not move the round-robin
// cursor, so two shards share six calls evenly.
func TestCoordinatorRoundRobinInlineDiffs(t *testing.T) {
	shards := startShards(t, 2)
	c, coordURL := startCoordinator(t, Config{Peers: shards, Seed: 1})
	a := genImage(t, 1, 64, 32)
	b := genImage(t, 2, 64, 32)
	for i := 0; i < 6; i++ {
		if status, _, body := postDiff(t, coordURL, a, b, "format=rleb"); status != http.StatusOK {
			t.Fatalf("diff %d: status %d: %s", i, status, body)
		}
	}
	for _, shard := range shards {
		var n int64
		for key, v := range c.reg.Snapshot()["sysrle_cluster_peer_requests_total"] {
			if strings.Contains(key, `"`+peerLabel(shard)+`"`) {
				n += v.(int64)
			}
		}
		if n != 3 {
			t.Errorf("shard %s got %d of 6 inline diffs, want 3", peerLabel(shard), n)
		}
	}
}

// TestCoordinatorListsMatchShard pins one list order: a 1-shard
// coordinator's job and reference lists are the shard's, byte for
// byte.
func TestCoordinatorListsMatchShard(t *testing.T) {
	shards := startShards(t, 1)
	_, coordURL := startCoordinator(t, Config{Peers: shards, Seed: 1})
	coord := apiclient.MustNew(coordURL, apiclient.Options{Seed: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i < 3; i++ {
		meta, err := coord.PutReference(ctx, genImage(t, int64(50+i), 96, 64))
		if err != nil {
			t.Fatalf("PutReference: %v", err)
		}
		st, err := coord.SubmitJob(ctx, apiclient.JobRequest{RefID: meta.ID,
			Scans: []*rle.Image{genImage(t, int64(60+i), 96, 64)}})
		if err != nil {
			t.Fatalf("SubmitJob: %v", err)
		}
		if _, err := coord.WaitJob(ctx, st.ID, 5*time.Millisecond); err != nil {
			t.Fatalf("WaitJob: %v", err)
		}
	}
	get := func(url string) []byte {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return body
	}
	for _, path := range []string{"/v1/jobs", "/v1/references"} {
		if got, want := get(coordURL+path), get(shards[0]+path); !bytes.Equal(got, want) {
			t.Errorf("GET %s: coordinator body differs from the shard's:\n%s\nvs\n%s", path, got, want)
		}
	}
}
