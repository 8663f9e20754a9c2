package cluster

// Cluster chaos: the coordinator's client stack (per-call deadlines,
// capped-jitter retries, slow-shard hedging) against internal/fault's
// HTTP transport injector, and hard shard death. The correctness bar
// is the same as everywhere else in this repo — chaos may slow
// answers down, never change them.

import (
	"bytes"
	"context"
	"net/http"
	"testing"
	"time"

	"sysrle/internal/apiclient"
	"sysrle/internal/fault"
	"sysrle/internal/refstore"
	"sysrle/internal/telemetry"
)

func TestCoordinatorChaosSlowErrorPeers(t *testing.T) {
	shards := startShards(t, 3)

	// Every coordinator→shard call rolls the dice: 40% chance of a
	// stall or an injected transport error. Retries plus hedging must
	// still converge on correct answers.
	inj := fault.NewInjector(fault.Plan{
		Seed: 11, Rate: 0.4,
		Kinds:   []fault.Kind{fault.KindSlow, fault.KindError},
		SlowFor: 60 * time.Millisecond,
	}, telemetry.NewRegistry())
	_, coordURL := startCoordinator(t, Config{
		Peers:      shards,
		Seed:       7,
		Retries:    5,
		HedgeDelay: 25 * time.Millisecond,
		Transport:  fault.WrapTransport(nil, inj),
	})

	a := genImage(t, 21, 256, 200)
	b := genImage(t, 22, 256, 200)
	_, _, want := postDiff(t, shards[0], a, b, "format=rleb")

	for i := 0; i < 5; i++ {
		status, _, got := postDiff(t, coordURL, a, b, "format=rleb")
		if status != http.StatusOK {
			t.Fatalf("chaos diff %d: status %d, body %s", i, status, got)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("chaos diff %d differs from single-node result", i)
		}
	}
	if inj.Total() == 0 {
		t.Fatalf("chaos plan injected nothing — the test proved nothing")
	}
	t.Logf("faults injected: %v", inj.Injected())
}

func TestCoordinatorChaosRefRoutedHedgedReads(t *testing.T) {
	shards := startShards(t, 3)
	inj := fault.NewInjector(fault.Plan{
		Seed: 5, Rate: 0.5,
		Kinds:   []fault.Kind{fault.KindSlow, fault.KindError},
		SlowFor: 50 * time.Millisecond,
	}, nil)
	_, coordURL := startCoordinator(t, Config{
		Peers:      shards,
		Seed:       9,
		Retries:    5,
		HedgeDelay: 20 * time.Millisecond,
		Transport:  fault.WrapTransport(nil, inj),
	})
	coord := apiclient.MustNew(coordURL, apiclient.Options{Seed: 1, Retries: -1})
	ctx := context.Background()

	ref := genImage(t, 31, 128, 96)
	meta, err := coord.PutReference(ctx, ref)
	if err != nil {
		t.Fatalf("PutReference under chaos: %v", err)
	}
	scan := genImage(t, 32, 128, 96)
	want, err := coord.Diff(ctx, apiclient.DiffRequest{RefID: meta.ID, B: scan})
	if err != nil {
		t.Fatalf("ref-routed diff under chaos: %v", err)
	}
	for i := 0; i < 8; i++ {
		got, err := coord.Diff(ctx, apiclient.DiffRequest{RefID: meta.ID, B: scan})
		if err != nil {
			t.Fatalf("hedged read %d: %v", i, err)
		}
		if got.Stats != want.Stats {
			t.Fatalf("hedged read %d stats %+v, want %+v", i, got.Stats, want.Stats)
		}
	}
	if inj.Total() == 0 {
		t.Fatalf("chaos plan injected nothing")
	}
}

// TestCoordinatorKilledShardFailsOnlyItsSpan kills one shard and
// checks the blast radius: references owned by the dead shard 503,
// references owned by survivors keep answering, and after membership
// change + rebalance the survivors own everything again.
func TestCoordinatorKilledShardFailsOnlyItsSpan(t *testing.T) {
	shards, kill := startKillableShards(t, 3)
	c, coordURL := startCoordinator(t, Config{
		Peers: shards, Seed: 3,
		PeerTimeout: 2 * time.Second,
	})
	coord := apiclient.MustNew(coordURL, apiclient.Options{Seed: 1, Retries: -1})
	ctx := context.Background()

	// Spread references until the doomed shard owns at least one and
	// the survivors own at least one each.
	victim := shards[2]
	byOwner := map[string][]string{}
	for i := 0; i < 24 && (len(byOwner[victim]) == 0 ||
		len(byOwner[shards[0]]) == 0 || len(byOwner[shards[1]]) == 0); i++ {
		img := genImage(t, int64(300+i), 96, 64)
		id, err := refstore.ContentID(img)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := coord.PutReference(ctx, img); err != nil {
			t.Fatalf("PutReference: %v", err)
		}
		owner := c.ring.Owner(id)
		byOwner[owner] = append(byOwner[owner], id)
	}
	if len(byOwner[victim]) == 0 {
		t.Fatalf("no reference landed on the victim shard; enlarge the corpus")
	}

	// Kill the victim. Its span fails with 503/unreachable…
	kill(2)
	scan := genImage(t, 400, 96, 64)
	_, err := coord.Diff(ctx, apiclient.DiffRequest{RefID: byOwner[victim][0], B: scan})
	if err == nil {
		t.Fatalf("diff against dead shard's span should fail")
	}
	if ae, ok := apiErr(err); !ok || ae.Status != http.StatusServiceUnavailable {
		t.Fatalf("dead-shard diff error = %v, want 503 unavailable", err)
	}

	// …while the survivors' spans keep answering.
	for _, surv := range shards[:2] {
		if len(byOwner[surv]) == 0 {
			continue
		}
		if _, err := coord.Diff(ctx, apiclient.DiffRequest{RefID: byOwner[surv][0], B: scan}); err != nil {
			t.Fatalf("survivor-owned ref failed while another shard is down: %v", err)
		}
	}

	// readyz reflects the dead peer.
	st, err := coord.Ready(ctx)
	if err != nil {
		t.Fatalf("Ready: %v", err)
	}
	if st.Ready {
		t.Fatalf("cluster reports ready with a dead shard")
	}

	// Membership change: drop the dead shard. Rebalance cannot reach
	// it (its references are gone with it), but the ring must stop
	// routing to it — the dead span's references 404 rather than 503,
	// and new work lands on survivors.
	if err := c.SetPeers(shards[:2]); err != nil {
		t.Fatalf("SetPeers: %v", err)
	}
	c.drained(shards[2]) // its data died with it; nothing to drain
	if _, _, err := c.Rebalance(ctx); err != nil {
		t.Fatalf("Rebalance after shard loss: %v", err)
	}
	_, err = coord.Diff(ctx, apiclient.DiffRequest{RefID: byOwner[victim][0], B: scan})
	if !apiclient.IsNotFound(err) {
		t.Fatalf("dead span after rebalance: err = %v, want 404 (ref lost with its shard)", err)
	}
	st, err = coord.Ready(ctx)
	if err != nil {
		t.Fatalf("Ready after membership change: %v", err)
	}
	if !st.Ready {
		t.Fatalf("cluster not ready after removing the dead shard: %+v", st.Probes)
	}
}
