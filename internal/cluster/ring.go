// Package cluster scales the inspection service horizontally: a
// coordinator process places references on a ring of ordinary sysdiffd
// peers by consistent hashing (each reference's decoded cache lives on
// its Replicas ring owners) and forwards every other call whole to one
// shard, round-robin. Peers are unmodified sysdiffd processes — the
// coordinator speaks to them only through the public v1 HTTP API via
// internal/apiclient, so a shard never knows it is in a cluster.
//
// The paper's systolic array scales by adding cells that each own a
// slice of the row stream; the cluster tier is the same move one level
// up — shards each own a slice of the reference space, and the
// coordinator plays the host interface, handing each whole request to
// one shard as the host hands each scanline to one array.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
)

// DefaultVirtualNodes is how many points each peer contributes to the
// ring. More vnodes smooth the key distribution and shrink the share
// of keys that move when membership changes.
const DefaultVirtualNodes = 128

// Ring is a consistent-hash ring over peer base URLs. A key (reference
// id) is owned by the peer whose vnode is first clockwise of the key's
// hash point; adding or removing one peer moves only the key spans
// adjacent to that peer's vnodes (~1/n of the keyspace), never a full
// reshuffle. Safe for concurrent use.
type Ring struct {
	vnodes int

	mu     sync.RWMutex
	peers  []string // sorted, deduplicated
	points []point  // sorted by hash
}

type point struct {
	hash uint64
	peer string
}

// NewRing returns a ring with the given peers and vnodes per peer
// (0 means DefaultVirtualNodes).
func NewRing(peers []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	r := &Ring{vnodes: vnodes}
	r.SetPeers(peers)
	return r
}

// hashKey is FNV-1a 64 — stable across processes and platforms, so a
// restarted coordinator reproduces the same placement.
func hashKey(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// SetPeers replaces the membership. Placement of every key not
// adjacent to a changed peer's vnodes is unaffected (the bounded
// rebalancing property consistent hashing exists for).
func (r *Ring) SetPeers(peers []string) {
	dedup := make([]string, 0, len(peers))
	seen := make(map[string]bool, len(peers))
	for _, p := range peers {
		if p != "" && !seen[p] {
			seen[p] = true
			dedup = append(dedup, p)
		}
	}
	sort.Strings(dedup)
	points := make([]point, 0, len(dedup)*r.vnodes)
	for _, p := range dedup {
		for v := 0; v < r.vnodes; v++ {
			points = append(points, point{hashKey(fmt.Sprintf("%s#%d", p, v)), p})
		}
	}
	sort.Slice(points, func(i, j int) bool {
		if points[i].hash != points[j].hash {
			return points[i].hash < points[j].hash
		}
		return points[i].peer < points[j].peer
	})
	r.mu.Lock()
	r.peers = dedup
	r.points = points
	r.mu.Unlock()
}

// Peers returns the current membership, sorted.
func (r *Ring) Peers() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]string(nil), r.peers...)
}

// Len returns the number of peers.
func (r *Ring) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.peers)
}

// Owner returns the peer owning the key, or "" on an empty ring.
func (r *Ring) Owner(key string) string {
	owners := r.Owners(key, 1)
	if len(owners) == 0 {
		return ""
	}
	return owners[0]
}

// Owners returns the key's replica set: the first n distinct peers
// clockwise of the key's hash point, primary first. Fewer than n peers
// on the ring degrades gracefully to all of them. The walk is over the
// sorted point list — vnode hash ties were broken by peer name at sort
// time — so the set is deterministic across processes and restarts.
func (r *Ring) Owners(key string, n int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if n <= 0 || len(r.points) == 0 {
		return nil
	}
	if n > len(r.peers) {
		n = len(r.peers)
	}
	return ownersFrom(r.points, hashKey(key), n)
}

// ownersFrom walks points clockwise from hash h collecting the first n
// distinct peers. Factored off the Ring so tests can feed synthetic
// point sets (hash ties, tiny rings) directly.
func ownersFrom(points []point, h uint64, n int) []string {
	i := sort.Search(len(points), func(i int) bool { return points[i].hash >= h })
	out := make([]string, 0, n)
walk:
	for k := 0; k < len(points) && len(out) < n; k++ {
		p := points[(i+k)%len(points)].peer
		for _, o := range out {
			if o == p {
				continue walk
			}
		}
		out = append(out, p)
	}
	return out
}
