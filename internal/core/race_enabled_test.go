//go:build race

package core

// Under the race detector sync.Pool randomly drops items (by design,
// to widen interleavings), so pool-backed allocation counts are not
// deterministic. The allocation gates skip under -race; CI runs them
// in the dedicated perf-smoke job without it.
const raceEnabled = true
