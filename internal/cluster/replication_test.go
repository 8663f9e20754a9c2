package cluster

// Replication, read failover, and the membership bugfix regressions:
// a 3-peer R=2 cluster must keep serving every reference —
// byte-identical, zero 404s — after one shard dies and before anyone
// rebalances, and Rebalance must then restore full replication on the
// survivors. The SetPeers and concurrent-rebalance tests are minimized
// regressions that fail on the pre-fix code.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"sysrle/internal/apiclient"
	"sysrle/internal/imageio"
	"sysrle/internal/rle"
)

// getRefContent fetches a reference's canonical RLEB bytes raw, for
// byte-identity assertions.
func getRefContent(t *testing.T, base, id string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(base + "/v1/references/" + id + "/content")
	if err != nil {
		t.Fatalf("GET content %s: %v", id[:12], err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, body
}

func canonicalRLEB(t *testing.T, img *rle.Image) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := imageio.Write(&buf, "rleb", img); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSetPeersFailedChangeKeepsDrainingSet is the regression for the
// staged-commit bugfix: the old SetPeers deleted peers from the
// draining set while iterating, before client construction could fail,
// so a rejected membership change silently un-drained peers whose
// references then never got evacuated.
func TestSetPeersFailedChangeKeepsDrainingSet(t *testing.T) {
	shards := startShards(t, 2)
	c, _ := startCoordinator(t, Config{Peers: shards, Seed: 1})

	// Drain shard 1 with a valid membership change.
	if err := c.SetPeers(shards[:1]); err != nil {
		t.Fatalf("SetPeers: %v", err)
	}
	if _, ok := c.drainingPeers()[shards[1]]; !ok {
		t.Fatalf("removed peer not draining")
	}

	// A failed change that re-adds the draining peer alongside an
	// invalid one must leave everything untouched.
	err := c.SetPeers([]string{shards[0], shards[1], "http://"})
	if err == nil {
		t.Fatalf("SetPeers with an invalid peer URL should fail")
	}
	if _, ok := c.drainingPeers()[shards[1]]; !ok {
		t.Fatalf("failed membership change corrupted the draining set")
	}
	if got := c.ring.Peers(); len(got) != 1 || got[0] != shards[0] {
		t.Fatalf("failed membership change mutated the ring: %v", got)
	}

	// A valid retry commits: the re-added peer leaves the draining set.
	if err := c.SetPeers(shards); err != nil {
		t.Fatalf("SetPeers retry: %v", err)
	}
	if n := len(c.drainingPeers()); n != 0 {
		t.Fatalf("%d peers still draining after re-add", n)
	}
	if got := c.ring.Peers(); len(got) != 2 {
		t.Fatalf("ring after retry = %v", got)
	}
}

// gatedListTransport blocks the first GET /v1/references until the
// test opens the gate, pinning a rebalance mid-listing so a second
// rebalance deterministically overlaps it.
type gatedListTransport struct {
	gate    chan struct{}
	entered chan struct{}
	once    sync.Once
}

func (tr *gatedListTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Method == http.MethodGet && req.URL.Path == "/v1/references" {
		tr.once.Do(func() { close(tr.entered) })
		<-tr.gate
	}
	return http.DefaultTransport.RoundTrip(req)
}

// TestRebalanceConcurrentCallsConflict is the regression for the
// rebalance race: two overlapping POST /v1/cluster/rebalance calls
// used to both run, working from stale listings. Now the second gets
// 409 conflict while the first holds the rebalance lock.
func TestRebalanceConcurrentCallsConflict(t *testing.T) {
	shards := startShards(t, 2)
	tr := &gatedListTransport{gate: make(chan struct{}), entered: make(chan struct{})}
	_, coordURL := startCoordinator(t, Config{Peers: shards, Seed: 1, Transport: tr})

	first := make(chan int, 1)
	go func() {
		resp, err := http.Post(coordURL+"/v1/cluster/rebalance", "application/json", nil)
		if err != nil {
			first <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		first <- resp.StatusCode
	}()

	<-tr.entered // the first rebalance holds the lock, blocked mid-listing
	resp, err := http.Post(coordURL+"/v1/cluster/rebalance", "application/json", nil)
	if err != nil {
		t.Fatalf("second rebalance POST: %v", err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("overlapping rebalance status = %d body %s, want 409", resp.StatusCode, raw)
	}
	var env struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.Unmarshal(raw, &env); err != nil || env.Error.Code != "conflict" {
		t.Fatalf("409 envelope = %s (err %v), want code conflict", raw, err)
	}

	close(tr.gate)
	if status := <-first; status != http.StatusOK {
		t.Fatalf("first rebalance status = %d, want 200", status)
	}
}

// TestRebalanceBodyTooLarge: a body past the 1 MiB cap used to be
// silently truncated into a confusing JSON parse error; it must be a
// clean 413.
func TestRebalanceBodyTooLarge(t *testing.T) {
	shards := startShards(t, 1)
	_, coordURL := startCoordinator(t, Config{Peers: shards, Seed: 1})

	huge := strings.NewReader(strings.Repeat(" ", 1<<20+1))
	resp, err := http.Post(coordURL+"/v1/cluster/rebalance", "application/json", huge)
	if err != nil {
		t.Fatalf("POST rebalance: %v", err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge || !bytes.Contains(raw, []byte("payload_too_large")) {
		t.Fatalf("oversized body: status %d body %s, want 413 payload_too_large", resp.StatusCode, raw)
	}

	// Exactly at the cap is not an overflow: a 1 MiB body that is valid
	// JSON (padded with trailing whitespace) still runs the rebalance.
	exact := `{"peers":null}` + strings.Repeat(" ", 1<<20-len(`{"peers":null}`))
	resp, err = http.Post(coordURL+"/v1/cluster/rebalance", "application/json", strings.NewReader(exact))
	if err != nil {
		t.Fatalf("POST rebalance (exact cap): %v", err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cap-sized body: status %d body %s, want 200", resp.StatusCode, raw)
	}
}

// TestCoordinatorReplicatedPlacement: with R=2 every reference lands
// on exactly its two ring owners, the coordinator's list dedupes the
// copies, and a delete removes every copy.
func TestCoordinatorReplicatedPlacement(t *testing.T) {
	shards := startShards(t, 3)
	c, coordURL := startCoordinator(t, Config{Peers: shards, Replicas: 2, Seed: 1})
	coord := apiclient.MustNew(coordURL, apiclient.Options{Seed: 1})
	ctx := context.Background()

	ids := make([]string, 0, 8)
	for i := 0; i < 8; i++ {
		meta, err := coord.PutReference(ctx, genImage(t, int64(500+i), 96, 64))
		if err != nil {
			t.Fatalf("PutReference %d: %v", i, err)
		}
		ids = append(ids, meta.ID)
	}
	for _, id := range ids {
		owners := c.ring.Owners(id, 2)
		ownerSet := map[string]bool{owners[0]: true, owners[1]: true}
		for _, shard := range shards {
			cl := apiclient.MustNew(shard, apiclient.Options{Seed: 1})
			_, err := cl.GetReference(ctx, id)
			held := err == nil
			if held != ownerSet[shard] {
				t.Errorf("ref %s on %s: held=%v, want %v (owners %v)",
					id[:12], shard, held, ownerSet[shard], owners)
			}
		}
	}

	list, err := coord.ListReferences(ctx)
	if err != nil {
		t.Fatalf("ListReferences: %v", err)
	}
	if len(list) != len(ids) {
		t.Fatalf("coordinator lists %d refs, want %d (copies must dedupe)", len(list), len(ids))
	}

	resp, err := http.Get(coordURL + "/v1/cluster/ring")
	if err != nil {
		t.Fatal(err)
	}
	var ring struct {
		Replicas int      `json:"replicas"`
		Suspects []string `json:"suspects"`
	}
	err = json.NewDecoder(resp.Body).Decode(&ring)
	resp.Body.Close()
	if err != nil || ring.Replicas != 2 {
		t.Fatalf("ring endpoint replicas = %d (err %v), want 2", ring.Replicas, err)
	}

	if err := coord.DeleteReference(ctx, ids[0]); err != nil {
		t.Fatalf("DeleteReference: %v", err)
	}
	for _, shard := range shards {
		cl := apiclient.MustNew(shard, apiclient.Options{Seed: 1})
		if _, err := cl.GetReference(ctx, ids[0]); !apiclient.IsNotFound(err) {
			t.Fatalf("deleted ref still on %s: %v", shard, err)
		}
	}
	if _, err := coord.GetReference(ctx, ids[0]); !apiclient.IsNotFound(err) {
		t.Fatalf("deleted ref get through coordinator = %v, want 404", err)
	}
}

// TestCoordinatorFailoverServesKilledShardSpan is the acceptance
// chaos test: kill one shard of a 3-peer R=2 cluster and every
// reference must still read byte-identical through the coordinator —
// zero 404s — before any rebalance, with the failover counter moving.
// Rebalance afterwards restores full replication on the survivors.
func TestCoordinatorFailoverServesKilledShardSpan(t *testing.T) {
	shards, kill := startKillableShards(t, 3)
	c, coordURL := startCoordinator(t, Config{
		Peers: shards, Replicas: 2, Seed: 3, PeerTimeout: 2 * time.Second,
	})
	coord := apiclient.MustNew(coordURL, apiclient.Options{Seed: 1, Retries: -1})
	ctx := context.Background()

	content := map[string][]byte{}
	ids := make([]string, 0, 16)
	for i := 0; i < 16; i++ {
		img := genImage(t, int64(600+i), 96, 64)
		meta, err := coord.PutReference(ctx, img)
		if err != nil {
			t.Fatalf("PutReference %d: %v", i, err)
		}
		ids = append(ids, meta.ID)
		content[meta.ID] = canonicalRLEB(t, img)
	}
	// Placement follows the listeners' random ports, so the victim is
	// whichever shard is the primary of a stored reference.
	victimOwned := ids[0]
	victim := slices.Index(shards, c.ring.Owner(victimOwned))
	survivors := slices.Delete(slices.Clone(shards), victim, victim+1)

	kill(victim)

	// Degraded reads: every reference, including the dead primary's
	// span, answers byte-identical from a replica. No rebalance has run.
	for _, id := range ids {
		status, body := getRefContent(t, coordURL, id)
		if status != http.StatusOK {
			t.Fatalf("ref %s read with dead shard: status %d %s", id[:12], status, body)
		}
		if !bytes.Equal(body, content[id]) {
			t.Fatalf("ref %s content differs after failover", id[:12])
		}
	}
	if c.failovers.Value() == 0 {
		t.Fatalf("failover counter never moved though the primary was dead")
	}

	// Ref-routed compute follows the same failover path.
	scan := genImage(t, 700, 96, 64)
	if _, err := coord.Diff(ctx, apiclient.DiffRequest{RefID: victimOwned, B: scan}); err != nil {
		t.Fatalf("ref-routed diff against dead primary: %v", err)
	}

	// Membership change + rebalance: the dead peer is dropped (nothing
	// to evacuate) and every reference is re-replicated onto both
	// survivors.
	if err := c.SetPeers(survivors); err != nil {
		t.Fatalf("SetPeers: %v", err)
	}
	moved, scanned, err := c.Rebalance(ctx)
	if err != nil {
		t.Fatalf("Rebalance: %v", err)
	}
	if moved == 0 {
		t.Fatalf("rebalance repaired nothing though replicas died with the shard (scanned %d)", scanned)
	}
	for _, id := range ids {
		for _, s := range survivors {
			cl := apiclient.MustNew(s, apiclient.Options{Seed: 1})
			if _, err := cl.GetReference(ctx, id); err != nil {
				t.Fatalf("ref %s missing from survivor %s after repair: %v", id[:12], s, err)
			}
		}
		status, body := getRefContent(t, coordURL, id)
		if status != http.StatusOK || !bytes.Equal(body, content[id]) {
			t.Fatalf("ref %s corrupt after repair: status %d", id[:12], status)
		}
	}
	if n := len(c.drainingPeers()); n != 0 {
		t.Fatalf("%d peers still draining after repair", n)
	}
}

// TestProberMarksSuspectsWithoutEject: without AutoEject the prober
// only marks a dead peer suspect — membership stays put.
func TestProberMarksSuspectsWithoutEject(t *testing.T) {
	shards, kill := startKillableShards(t, 2)
	c, coordURL := startCoordinator(t, Config{
		Peers: shards, Seed: 1,
		ProbeInterval: 25 * time.Millisecond, ProbeFailures: 2,
	})
	kill(1)

	deadline := time.Now().Add(10 * time.Second)
	for {
		s := c.suspectList()
		if len(s) == 1 && s[0] == shards[1] {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("prober never marked the dead peer suspect: %v", s)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := c.ring.Peers(); len(got) != 2 {
		t.Fatalf("prober ejected without AutoEject: %v", got)
	}

	resp, err := http.Get(coordURL + "/v1/cluster/ring")
	if err != nil {
		t.Fatal(err)
	}
	var ring struct {
		Suspects []string `json:"suspects"`
	}
	err = json.NewDecoder(resp.Body).Decode(&ring)
	resp.Body.Close()
	if err != nil || len(ring.Suspects) != 1 || ring.Suspects[0] != shards[1] {
		t.Fatalf("ring endpoint suspects = %v (err %v), want the dead peer", ring.Suspects, err)
	}
}

// TestAutoEjectDrainsDeadPeerAndRepairs: with AutoEject the prober
// takes the same drain path as an operator membership change and the
// background repair re-replicates what the dead shard held.
func TestAutoEjectDrainsDeadPeerAndRepairs(t *testing.T) {
	shards, kill := startKillableShards(t, 3)
	c, coordURL := startCoordinator(t, Config{
		Peers: shards, Replicas: 2, Seed: 1, PeerTimeout: 2 * time.Second,
		ProbeInterval: 25 * time.Millisecond, ProbeFailures: 2, AutoEject: true,
	})
	coord := apiclient.MustNew(coordURL, apiclient.Options{Seed: 1})
	ctx := context.Background()

	ids := make([]string, 0, 8)
	for i := 0; i < 8; i++ {
		meta, err := coord.PutReference(ctx, genImage(t, int64(800+i), 96, 64))
		if err != nil {
			t.Fatalf("PutReference: %v", err)
		}
		ids = append(ids, meta.ID)
	}

	kill(2)
	deadline := time.Now().Add(10 * time.Second)
	for len(c.ring.Peers()) != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("dead peer never auto-ejected; ring = %v, suspects = %v",
				c.ring.Peers(), c.suspectList())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := c.ejections.Value(); got != 1 {
		t.Fatalf("ejections = %d, want 1", got)
	}

	// The background repair drives every reference onto both survivors
	// and finishes draining the dead peer.
	allReplicated := func() bool {
		for _, id := range ids {
			for _, s := range shards[:2] {
				cl := apiclient.MustNew(s, apiclient.Options{Seed: 1})
				if _, err := cl.GetReference(ctx, id); err != nil {
					return false
				}
			}
		}
		return len(c.drainingPeers()) == 0
	}
	for !allReplicated() {
		if time.Now().After(deadline) {
			t.Fatalf("post-eject repair incomplete; draining = %d", len(c.drainingPeers()))
		}
		time.Sleep(25 * time.Millisecond)
	}
}
