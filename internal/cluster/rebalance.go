package cluster

// Membership-change rebalancing and replica repair. Consistent hashing
// bounds how many references a membership change displaces (~1/n of
// the keyspace per peer added or removed); Rebalance does the actual
// moving for the displaced minority and, with a replication factor R,
// also re-copies under-replicated references after a shard dies:
// list every shard, group the listings by reference, and drive every
// reference to the invariant "present on all R ring owners and
// nowhere else". Content addressing makes every copy idempotent — a
// crash mid-move leaves at worst a duplicate that the next rebalance
// clears, never a lost reference.

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"sysrle/internal/apiclient"
	"sysrle/internal/refstore"
	"sysrle/internal/rle"
)

// Rebalance repairs placement after a membership change: every
// reference ends on all R of its ring owners and nowhere else. Three
// kinds of work fold into one pass over a snapshot of every shard's
// listing:
//
//   - strays (held only by ring members that are not owners — a peer
//     was added and took over part of their span) are copied to the
//     missing owners, then deleted;
//   - draining peers (removed from the ring but still reachable) are
//     evacuated the same way, then marked drained;
//   - under-replicated references (fewer than R owner copies — a
//     replica died with its shard) are re-copied from any surviving
//     holder.
//
// It returns how many reference copies were created and how many
// listing entries were scanned. Safe to run while traffic flows:
// reads against a mid-move reference fail over to a surviving replica
// or fall back through relayError, and re-registration is idempotent.
// Overlapping runs are serialized; the HTTP handler rejects the
// second caller with 409 instead of queueing it.
func (c *Coordinator) Rebalance(ctx context.Context) (moved, scanned int, err error) {
	c.rebalanceMu.Lock()
	defer c.rebalanceMu.Unlock()
	return c.rebalance(ctx)
}

// rebalance is Rebalance without the serialization; callers hold
// rebalanceMu.
func (c *Coordinator) rebalance(ctx context.Context) (moved, scanned int, err error) {
	sources := make(map[string]*apiclient.Client)
	for _, peer := range c.ring.Peers() {
		sources[peer] = c.client(peer)
	}
	draining := c.drainingPeers()
	for peer, cl := range draining {
		sources[peer] = cl
	}
	peers := make([]string, 0, len(sources))
	for p := range sources {
		peers = append(peers, p)
	}
	sort.Strings(peers)
	// Snapshot every shard's listing before moving anything, so a
	// reference relocated early is not re-scanned on its destination.
	// A draining peer that cannot be listed is a dead shard: its
	// references died with it, so there is nothing to evacuate — mark
	// it drained and move on rather than wedging the membership
	// change. A ring member that cannot be listed still aborts; its
	// span is live and skipping it could strand misplaced references.
	listings := make(map[string][]refstore.Meta, len(peers))
	for _, peer := range peers {
		refs, lerr := sources[peer].ListReferences(ctx)
		if lerr != nil {
			if _, wasDraining := draining[peer]; wasDraining {
				c.log.Warn("draining peer unreachable, dropping without evacuation",
					"peer", peerLabel(peer), "err", lerr)
				c.drained(peer)
				delete(draining, peer)
				delete(sources, peer)
				continue
			}
			return 0, 0, fmt.Errorf("cluster: listing %s: %w", peerLabel(peer), lerr)
		}
		listings[peer] = refs
	}

	// Group the snapshot by reference: which peers hold each id now.
	holders := make(map[string][]string)
	for _, peer := range peers {
		for _, ref := range listings[peer] {
			scanned++
			holders[ref.ID] = append(holders[ref.ID], peer)
		}
	}
	ids := make([]string, 0, len(holders))
	for id := range holders {
		ids = append(ids, id)
	}
	sort.Strings(ids)

	for _, id := range ids {
		owners := c.ring.Owners(id, c.replicas)
		ownerSet := make(map[string]bool, len(owners))
		for _, o := range owners {
			ownerSet[o] = true
		}
		holderSet := make(map[string]bool, len(holders[id]))
		for _, h := range holders[id] {
			holderSet[h] = true
		}
		// Copy to owners that miss the reference, fetching from any
		// holder that still answers (the first may be mid-death).
		var img *rle.Image // lazily fetched once per reference
		for _, owner := range owners {
			if holderSet[owner] {
				continue
			}
			if img == nil {
				fetched, ferr := c.fetchFromHolders(ctx, id, holders[id], sources)
				if ferr != nil {
					return moved, scanned, ferr
				}
				img = fetched
			}
			ocl := sources[owner]
			if ocl == nil {
				return moved, scanned, fmt.Errorf("cluster: no client for owner %s", peerLabel(owner))
			}
			if _, perr := ocl.PutReference(ctx, img); perr != nil {
				return moved, scanned, fmt.Errorf("cluster: placing %s on %s: %w",
					id[:12], peerLabel(owner), perr)
			}
			moved++
			c.movedRefs.Inc()
			c.log.Info("reference copied to owner", "ref", id[:12], "to", peerLabel(owner))
		}
		// Only after every owner holds a copy are strays removed.
		for _, h := range holders[id] {
			if ownerSet[h] {
				continue
			}
			if derr := sources[h].DeleteReference(ctx, id); derr != nil {
				return moved, scanned, fmt.Errorf("cluster: removing stray %s from %s: %w",
					id[:12], peerLabel(h), derr)
			}
			c.log.Info("stray reference removed", "ref", id[:12], "from", peerLabel(h))
		}
	}
	// Every listed draining peer has now been fully evacuated.
	for peer := range draining {
		c.drained(peer)
	}
	return moved, scanned, nil
}

// fetchFromHolders pulls a reference's content from the first holder
// that answers, failing over down the holder list — during repair the
// primary copy may sit on a shard that is mid-death.
func (c *Coordinator) fetchFromHolders(ctx context.Context, id string, holderPeers []string, sources map[string]*apiclient.Client) (*rle.Image, error) {
	var errs []error
	for _, h := range holderPeers {
		cl := sources[h]
		if cl == nil {
			continue
		}
		img, err := cl.ReferenceContent(ctx, id)
		if err == nil {
			return img, nil
		}
		errs = append(errs, fmt.Errorf("from %s: %w", peerLabel(h), err))
	}
	return nil, fmt.Errorf("cluster: fetching %s: %w", id[:12], errors.Join(errs...))
}
