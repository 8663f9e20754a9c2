package rle

// Arena carves many small rows out of shared chunks, for whole-image
// pipelines that build one output row at a time in a scratch buffer
// and then need an exact-size copy that lives as long as the image.
// Persisting through an arena replaces one heap allocation per
// scanline with one per chunk.
//
// Chunks grow geometrically: the first holds max(16, 4n) runs for a
// first row of n runs, and each later one twice its predecessor (or
// 4n for a larger row), up to the chunk cap. A small image therefore
// costs a small chunk, and k rows cost O(log k) chunks until the cap
// is reached, then one chunk per cap's worth of runs.
//
// An Arena is not safe for concurrent use; give each worker its own.
// Persisted rows remain valid forever (chunks are never recycled), so
// the arena itself can be dropped as soon as building is done.
type Arena struct {
	chunk        []Run
	last         int // size of the last chunk carved, in runs
	runsPerChunk int
}

// DefaultArenaChunk is the chunk cap (in runs) used when an Arena is
// created with NewArena(0) or used as its zero value: chunks grow
// from small to at most 1024 runs, 16 KiB.
const DefaultArenaChunk = 1024

// NewArena returns an arena whose chunks grow to at most runsPerChunk
// runs (≤ 0 means DefaultArenaChunk). The zero value of Arena is also
// ready to use.
func NewArena(runsPerChunk int) *Arena {
	if runsPerChunk <= 0 {
		runsPerChunk = DefaultArenaChunk
	}
	return &Arena{runsPerChunk: runsPerChunk}
}

// Persist copies w into arena-backed storage and returns the copy,
// capacity-clipped so appending to one persisted row can never
// clobber another. An empty row persists as nil.
func (a *Arena) Persist(w Row) Row {
	n := len(w)
	if n == 0 {
		return nil
	}
	if n > len(a.chunk) {
		if a.runsPerChunk <= 0 {
			a.runsPerChunk = DefaultArenaChunk
		}
		if n >= a.runsPerChunk/2 {
			// A row this large would waste most of a full-size chunk
			// (or not fit at all): give it its own exact allocation.
			out := make(Row, n)
			copy(out, w)
			return out
		}
		a.last = min(max(16, 4*n, 2*a.last), a.runsPerChunk)
		a.chunk = make([]Run, a.last)
	}
	out := a.chunk[:n:n]
	a.chunk = a.chunk[n:]
	copy(out, w)
	return out
}
