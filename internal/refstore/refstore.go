// Package refstore is the content-addressed reference-image registry
// for the inspection service. The paper's motivating workload (§1)
// diffs one golden reference board against a stream of thousands of
// scans; without a registry every request re-uploads and re-decodes
// the reference, paying exactly the cost the compressed-domain
// algorithm exists to avoid. The store keeps each reference as its
// canonical RLEB encoding — compact, and the basis of the SHA-256
// content address — plus an LRU cache of decoded *rle.Image values
// under a configurable byte budget, so a hot reference is decoded
// once and shared by every subsequent diff, inspect and batch job.
//
// Identity is content: uploading the same image twice yields the same
// id and a single stored copy. Decoded images handed out by Get are
// shared across callers and MUST be treated as read-only.
//
// Telemetry (when a registry is configured):
//
//	sysrle_refstore_hits_total      decoded-cache hits
//	sysrle_refstore_misses_total    decoded-cache misses (each is one decode)
//	sysrle_refstore_decodes_total   RLEB decodes performed
//	sysrle_refstore_evictions_total cache evictions (budget or TTL), by reason
//	sysrle_refstore_refs            registered references (gauge)
//	sysrle_refstore_resident_bytes  decoded bytes resident in cache (gauge)
//	sysrle_refstore_encoded_bytes   encoded bytes held by the registry (gauge)
package refstore

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"sysrle/internal/clock"
	"sysrle/internal/rle"
	"sysrle/internal/store"
	"sysrle/internal/telemetry"
)

// ErrNotFound reports a reference id with no registered image.
var ErrNotFound = errors.New("refstore: reference not found")

// DefaultCacheBytes is the decoded-image LRU budget when Config
// leaves it zero: 256 MiB, roughly a thousand decoded PCB scans.
const DefaultCacheBytes = 256 << 20

// Config tunes a Store; the zero value gets production defaults.
type Config struct {
	// CacheBytes bounds the decoded-image LRU cache. 0 means
	// DefaultCacheBytes; negative disables decoded caching entirely
	// (every Get decodes).
	CacheBytes int64
	// TTL evicts references not touched (stored, fetched or listed
	// by id) within the window. 0 or negative means no expiry. With a
	// Disk tier, expiry frees memory only — the reference reloads from
	// disk on its next access; without one, expiry is removal.
	TTL time.Duration
	// Registry receives telemetry; nil records nothing.
	Registry *telemetry.Registry
	// Clock drives TTL bookkeeping; nil means clock.System().
	Clock clock.Clock
	// Disk, when non-nil, is the durable tier: every Put is written
	// through to the content-addressed blob store before it is
	// acknowledged, existing blobs are hydrated at New, and lookups
	// fall back to disk on a memory miss. The blob bytes ARE the
	// canonical RLEB encoding, so the blob id and the reference id
	// coincide.
	Disk *store.Store
}

// Meta describes one registered reference.
type Meta struct {
	ID           string    `json:"id"`
	Width        int       `json:"width"`
	Height       int       `json:"height"`
	Runs         int       `json:"runs"`
	Area         int       `json:"area"`
	EncodedBytes int       `json:"encoded_bytes"`
	DecodedBytes int64     `json:"decoded_bytes"`
	Created      time.Time `json:"created"`
}

// entry is one stored reference: the authoritative encoded bytes plus
// bookkeeping for TTL and the decoded cache.
type entry struct {
	meta     Meta
	encoded  []byte
	lastUsed time.Time

	decoded *rle.Image    // non-nil while resident in the LRU
	lruElem *list.Element // position in the LRU, nil when not resident
}

// Store is the registry. All methods are safe for concurrent use.
type Store struct {
	cfg Config

	mu       sync.Mutex
	refs     map[string]*entry
	lru      *list.List // of *entry, front = most recently used
	resident int64      // decoded bytes in the LRU
	encoded  int64      // encoded bytes across all refs

	hits, misses, decodes *telemetry.Counter
	evictBudget, evictTTL *telemetry.Counter
	refGauge, residentG   *telemetry.Gauge
	encodedG              *telemetry.Gauge
}

// New returns a store, hydrated from the disk tier when one is
// configured.
func New(cfg Config) *Store {
	if cfg.CacheBytes == 0 {
		cfg.CacheBytes = DefaultCacheBytes
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.System()
	}
	s := &Store{cfg: cfg, refs: make(map[string]*entry), lru: list.New()}
	if reg := cfg.Registry; reg != nil {
		reg.Help("sysrle_refstore_hits_total", "Decoded-reference cache hits.")
		reg.Help("sysrle_refstore_misses_total", "Decoded-reference cache misses.")
		s.hits = reg.Counter("sysrle_refstore_hits_total")
		s.misses = reg.Counter("sysrle_refstore_misses_total")
		s.decodes = reg.Counter("sysrle_refstore_decodes_total")
		s.evictBudget = reg.Counter("sysrle_refstore_evictions_total", telemetry.L("reason", "budget"))
		s.evictTTL = reg.Counter("sysrle_refstore_evictions_total", telemetry.L("reason", "ttl"))
		s.refGauge = reg.Gauge("sysrle_refstore_refs")
		s.residentG = reg.Gauge("sysrle_refstore_resident_bytes")
		s.encodedG = reg.Gauge("sysrle_refstore_encoded_bytes")
	}
	if cfg.Disk != nil {
		s.hydrate()
	}
	return s
}

// hydrate loads every blob in the disk tier into the in-memory
// registry at startup. Created times are lost across restarts (blobs
// carry only content); they restart at boot time, which also restarts
// the TTL window — references never expire while the process is down.
func (s *Store) hydrate() {
	ids, err := s.cfg.Disk.List()
	if err != nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, id := range ids {
		s.loadFromDiskLocked(id)
	}
	s.syncGauges()
}

// loadFromDiskLocked pulls one blob from the disk tier into the
// registry: verify (Get re-hashes), decode enough to rebuild Meta,
// insert. Returns nil when the blob is absent, corrupt or not a
// reference encoding.
func (s *Store) loadFromDiskLocked(id string) *entry {
	if s.cfg.Disk == nil {
		return nil
	}
	if _, ok := s.refs[id]; ok {
		return s.refs[id]
	}
	data, err := s.cfg.Disk.Get(id)
	if err != nil {
		return nil
	}
	img, err := rle.DecodeBinary(data)
	if err != nil {
		return nil
	}
	runs := img.RunCount()
	now := s.cfg.Clock.Now()
	e := &entry{
		meta: Meta{
			ID:           id,
			Width:        img.Width,
			Height:       img.Height,
			Runs:         runs,
			Area:         img.Area(),
			EncodedBytes: len(data),
			DecodedBytes: decodedSize(img.Width, img.Height, runs),
			Created:      now,
		},
		encoded:  data,
		lastUsed: now,
	}
	s.refs[id] = e
	s.encoded += int64(len(e.encoded))
	return e
}

// decodedSize estimates the heap footprint of a decoded image: the
// run payloads, the per-row slice headers, and the image header.
func decodedSize(width, height, runs int) int64 {
	_ = width
	return int64(runs)*16 + int64(height)*24 + 48
}

// ContentID computes the content address an image would be stored
// under — the hex SHA-256 of its canonical RLEB encoding — without
// registering it. A cluster coordinator uses this to place a
// reference on its owning shard before forwarding the upload.
func ContentID(img *rle.Image) (string, error) {
	if err := img.Validate(); err != nil {
		return "", fmt.Errorf("refstore: %w", err)
	}
	sum := sha256.Sum256(rle.AppendBinary(nil, img.Canonicalize()))
	return hex.EncodeToString(sum[:]), nil
}

// Put registers an image and returns its content address. The id is
// the hex SHA-256 of the canonical RLEB encoding, so equal content
// always maps to the same id regardless of upload format.
func (s *Store) Put(img *rle.Image) (Meta, error) {
	if err := img.Validate(); err != nil {
		return Meta{}, fmt.Errorf("refstore: %w", err)
	}
	canon := img.Canonicalize()
	data := rle.AppendBinary(nil, canon)
	sum := sha256.Sum256(data)
	id := hex.EncodeToString(sum[:])

	// Write-through: the blob must be durable before the upload is
	// acknowledged. The blob store dedupes by content, so re-uploads
	// cost one Stat.
	if s.cfg.Disk != nil {
		if _, err := s.cfg.Disk.Put(data); err != nil {
			return Meta{}, fmt.Errorf("refstore: durable tier: %w", err)
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.sweepLocked()
	if e, ok := s.refs[id]; ok {
		e.lastUsed = s.cfg.Clock.Now()
		return e.meta, nil
	}
	runs := canon.RunCount()
	e := &entry{
		meta: Meta{
			ID:           id,
			Width:        canon.Width,
			Height:       canon.Height,
			Runs:         runs,
			Area:         canon.Area(),
			EncodedBytes: len(data),
			DecodedBytes: decodedSize(canon.Width, canon.Height, runs),
			Created:      s.cfg.Clock.Now(),
		},
		encoded:  data,
		lastUsed: s.cfg.Clock.Now(),
	}
	s.refs[id] = e
	s.encoded += int64(len(e.encoded))
	s.syncGauges()
	return e.meta, nil
}

// Get returns the decoded reference. The first fetch after an upload
// or eviction decodes the stored RLEB bytes and parks the result in
// the LRU; later fetches share the cached image. Callers must treat
// the returned image as read-only.
func (s *Store) Get(id string) (*rle.Image, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sweepLocked()
	e, ok := s.refs[id]
	if !ok {
		if e = s.loadFromDiskLocked(id); e == nil {
			return nil, ErrNotFound
		}
	}
	e.lastUsed = s.cfg.Clock.Now()
	if e.decoded != nil {
		s.lru.MoveToFront(e.lruElem)
		if s.hits != nil {
			s.hits.Inc()
		}
		return e.decoded, nil
	}
	if s.misses != nil {
		s.misses.Inc()
	}
	img, err := rle.DecodeBinary(e.encoded)
	if err != nil {
		// Unreachable for bytes we encoded ourselves, but fail loudly
		// rather than hand out a nil image.
		return nil, fmt.Errorf("refstore: stored bytes corrupt: %w", err)
	}
	if s.decodes != nil {
		s.decodes.Inc()
	}
	if s.cfg.CacheBytes > 0 {
		e.decoded = img
		e.lruElem = s.lru.PushFront(e)
		s.resident += e.meta.DecodedBytes
		s.evictOverBudgetLocked(e)
	}
	s.syncGauges()
	return img, nil
}

// Image is a stored reference as a row source: shared, read-only, and
// with rows valid by construction, since Put checked them and they are
// decoded from the store's own bytes. RowsValid tells core.XORRows so,
// and it skips the engines' per-row operand check.
type Image struct{ *rle.Image }

// RowsValid marks Image as a core.ValidSource.
func (Image) RowsValid() {}

// Source is Get as a row source for a diff.
func (s *Store) Source(id string) (Image, error) {
	img, err := s.Get(id)
	return Image{img}, err
}

// Meta returns the metadata for a reference without decoding it.
func (s *Store) Meta(id string) (Meta, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sweepLocked()
	e, ok := s.refs[id]
	if !ok {
		if e = s.loadFromDiskLocked(id); e == nil {
			return Meta{}, false
		}
	}
	e.lastUsed = s.cfg.Clock.Now()
	return e.meta, true
}

// Encoded returns a copy of the canonical RLEB bytes for a reference.
func (s *Store) Encoded(id string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sweepLocked()
	e, ok := s.refs[id]
	if !ok {
		if e = s.loadFromDiskLocked(id); e == nil {
			return nil, false
		}
	}
	e.lastUsed = s.cfg.Clock.Now()
	return append([]byte(nil), e.encoded...), true
}

// Delete removes a reference — from the disk tier too, when one is
// configured; it reports whether the id existed.
func (s *Store) Delete(id string) bool {
	s.mu.Lock()
	e, ok := s.refs[id]
	if ok {
		s.removeLocked(e)
		s.syncGauges()
	}
	s.mu.Unlock()
	if s.cfg.Disk != nil {
		if !ok {
			ok = s.cfg.Disk.Has(id)
		}
		_ = s.cfg.Disk.Delete(id)
	}
	return ok
}

// List returns metadata for every live reference, newest first.
func (s *Store) List() []Meta {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sweepLocked()
	out := make([]Meta, 0, len(s.refs))
	for _, e := range s.refs {
		out = append(out, e.meta)
	}
	SortMetas(out)
	return out
}

// SortMetas puts metadata in List's order: newest first, ties by id.
func SortMetas(m []Meta) {
	sort.Slice(m, func(i, j int) bool {
		if !m[i].Created.Equal(m[j].Created) {
			return m[i].Created.After(m[j].Created)
		}
		return m[i].ID < m[j].ID
	})
}

// Len returns the number of live references.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sweepLocked()
	return len(s.refs)
}

// ResidentBytes returns the decoded bytes currently cached.
func (s *Store) ResidentBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.resident
}

// CacheBudget returns the decoded-cache byte budget (≤ 0 when decoded
// caching is disabled) — the denominator of the service's cache
// pressure probe.
func (s *Store) CacheBudget() int64 {
	if s.cfg.CacheBytes < 0 {
		return 0
	}
	return s.cfg.CacheBytes
}

// Sweep evicts expired references now (they are otherwise collected
// lazily on access); it returns the number removed.
func (s *Store) Sweep() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.sweepLocked()
	s.syncGauges()
	return n
}

// removeLocked unlinks an entry from every structure.
func (s *Store) removeLocked(e *entry) {
	if e.lruElem != nil {
		s.lru.Remove(e.lruElem)
		s.resident -= e.meta.DecodedBytes
		e.lruElem, e.decoded = nil, nil
	}
	s.encoded -= int64(len(e.encoded))
	delete(s.refs, e.meta.ID)
}

// sweepLocked drops references idle past the TTL. It syncs the gauges
// itself when it removed anything: every accessor calls it, and an
// eviction on a read path (Meta, List, Len, Encoded) must not leave
// the gauges describing entries that are already gone.
func (s *Store) sweepLocked() int {
	if s.cfg.TTL <= 0 {
		return 0
	}
	deadline := s.cfg.Clock.Now().Add(-s.cfg.TTL)
	removed := 0
	for _, e := range s.refs {
		if e.lastUsed.Before(deadline) {
			s.removeLocked(e)
			removed++
			if s.evictTTL != nil {
				s.evictTTL.Inc()
			}
		}
	}
	if removed > 0 {
		s.syncGauges()
	}
	return removed
}

// evictOverBudgetLocked drops least-recently-used decoded images
// until the budget holds, never evicting keep (the image being
// returned right now — even an over-budget image is handed out, it
// just won't stay resident alongside others).
func (s *Store) evictOverBudgetLocked(keep *entry) {
	for s.resident > s.cfg.CacheBytes {
		back := s.lru.Back()
		if back == nil {
			return
		}
		e := back.Value.(*entry)
		if e == keep && s.lru.Len() == 1 {
			return
		}
		if e == keep {
			// Evict the next-least-recent instead.
			prev := back.Prev()
			if prev == nil {
				return
			}
			e = prev.Value.(*entry)
		}
		s.lru.Remove(e.lruElem)
		s.resident -= e.meta.DecodedBytes
		e.lruElem, e.decoded = nil, nil
		if s.evictBudget != nil {
			s.evictBudget.Inc()
		}
	}
}

func (s *Store) syncGauges() {
	if s.refGauge == nil {
		return
	}
	s.refGauge.Set(int64(len(s.refs)))
	s.residentG.Set(s.resident)
	s.encodedG.Set(s.encoded)
}
