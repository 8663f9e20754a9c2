// Package sysrle computes differences of run-length encoded binary
// images with a simulated systolic array, reproducing "A Systolic
// Algorithm to Process Compressed Binary Images" (Ercal, Allen,
// Feng; IPPS 1999).
//
// The central operation is the image difference (pixelwise XOR) of
// two RLE-encoded rows, computed without decompressing them. Several
// engines implement it:
//
//   - the systolic lockstep engine — the paper's cell array simulated
//     deterministically;
//   - the systolic channel engine — the same array with one goroutine
//     per cell and CSP channels for the shift path;
//   - the sparse engine — lockstep-identical semantics at simulation
//     cost proportional to actual data movement;
//   - the fixed-capacity array — the persistent-hardware deployment
//     of the same machine;
//   - the sequential engine — the paper's §2 merge baseline;
//   - the broadcast-bus engine — the paper's §6 future-work
//     extension;
//   - the packed-word engine and the hybrid planner, which routes each
//     row to the RLE merge or the packed XOR, whichever is cheaper —
//     the §6 representation trade-off made per row, and the serving
//     default.
//
// For similar images the systolic engines converge in time
// proportional to the difference in run counts between the inputs,
// whereas the sequential merge always pays for every run.
//
// The simplest entry points:
//
//	diff, err := sysrle.Diff(rowA, rowB)       // one row
//	img, stats, err := sysrle.DiffImage(a, b)  // whole images, rows in parallel
//
// Richer functionality lives behind the Engine interface (per-run
// statistics, engine selection) and in the subpackages used by the
// examples: PCB inspection, compressed-domain morphology, workload
// generation.
package sysrle

import (
	"sysrle/internal/broadcast"
	"sysrle/internal/core"
	"sysrle/internal/planner"
	"sysrle/internal/rle"
)

// Run is one foreground run: Length pixels starting at Start.
type Run = rle.Run

// Row is one run-length encoded scanline.
type Row = rle.Row

// Image is a run-length encoded binary image.
type Image = rle.Image

// Result reports a single row difference: the output runs, the
// iteration (or merge-step) count, and the array size used.
type Result = core.Result

// Engine is a row-difference engine; see NewLockstep, NewChannel,
// NewSequential, NewBus.
type Engine = core.Engine

// NewImage returns an all-background RLE image.
func NewImage(width, height int) *Image { return rle.NewImage(width, height) }

// NewLockstep returns the deterministic systolic engine (the paper's
// algorithm; the default used by Diff).
func NewLockstep() Engine { return core.Lockstep{} }

// NewChannel returns the goroutine-per-cell systolic engine.
func NewChannel() Engine { return core.Channel{} }

// NewSequential returns the §2 sequential merge baseline.
func NewSequential() Engine { return core.Sequential{} }

// NewBus returns the §6 broadcast-bus engine; bandwidth is bus
// transactions per cycle, 0 meaning unlimited.
func NewBus(bandwidth int) Engine { return broadcast.Bus{Bandwidth: bandwidth} }

// NewSparse returns the sparse simulator: lockstep-identical
// semantics and iteration counts, but simulation cost proportional to
// the data movement the machine actually performs rather than to the
// array length — the fastest way to *measure* the systolic algorithm
// on similar images.
func NewSparse() Engine { return core.Sparse{} }

// NewPacked returns the pack → 64-bit word XOR → repack engine: the
// uncompressed baseline of the paper's §6 comparison. Cost tracks row
// area rather than run similarity, so it wins on dense or dissimilar
// rows. Not safe for concurrent use; create one per goroutine.
func NewPacked() Engine { return planner.NewPacked() }

// NewPlanner returns the hybrid engine: each row is priced on both
// representations from its operand run counts and routed to the RLE
// merge or the packed-word XOR, whichever the calibrated cost model
// says is cheaper, with hysteresis so rows near the crossover don't
// flap. Not safe for concurrent use; create one per goroutine.
func NewPlanner() Engine { return planner.New() }

// FixedArray is a fixed-capacity systolic array with one persistent
// goroutine per cell, through which row pairs are streamed — the
// shape of the deployed hardware. Inputs that need more than its
// cells fail with core.ErrTooWide. Close it when done.
type FixedArray = core.ChannelArray

// NewFixedArray builds and starts a FixedArray with the given number
// of cells.
func NewFixedArray(cells int) *FixedArray { return core.NewChannelArray(cells) }

// Diff returns the canonical image difference (XOR) of two rows,
// computed by the systolic lockstep engine.
func Diff(a, b Row) (Row, error) {
	res, err := core.Lockstep{}.XORRow(a, b)
	if err != nil {
		return nil, err
	}
	return res.Row.Canonicalize(), nil
}

// Encode run-length encodes an uncompressed bitstring.
func Encode(bits []bool) Row { return rle.FromBits(bits) }

// Decode expands a row to an uncompressed bitstring of the given
// width.
func Decode(row Row, width int) []bool { return row.Bits(width) }

// XOR, AND, OR and AndNot are the compressed-domain boolean sweeps —
// single-pass reference implementations (the systolic engines compute
// XOR; these cover the rest of the algebra).
func XOR(a, b Row) Row    { return rle.XOR(a, b) }
func AND(a, b Row) Row    { return rle.AND(a, b) }
func OR(a, b Row) Row     { return rle.OR(a, b) }
func AndNot(a, b Row) Row { return rle.AndNot(a, b) }

// ImageStats aggregates per-row engine costs over an image diff —
// the whole-image form of the per-row Result, losing none of the
// engine detail (iterations, array sizes, recovered faults).
type ImageStats struct {
	// TotalIterations sums the per-row iteration counts.
	TotalIterations int
	// MaxRowIterations is the slowest row — the critical path when
	// every scanline has its own array.
	MaxRowIterations int
	// RowsDiffering counts scanlines with a non-empty difference.
	RowsDiffering int
	// TotalCells sums the per-row array sizes (0 for engines without
	// a cell array, e.g. the sequential baseline) — the total
	// hardware footprint of a one-array-per-row deployment.
	TotalCells int
	// MaxRowCells is the largest per-row array used — the cell
	// capacity a fixed array would need for this image.
	MaxRowCells int
	// FaultsRecovered counts rows whose primary result was rejected
	// and recomputed when the engine is a Verified (NewVerified);
	// always 0 otherwise.
	FaultsRecovered int
}

// Similarity measures re-exported for workload characterization.

// RunCountDiff returns |k1−k2|, the run-count difference the systolic
// iteration count tracks on similar images.
func RunCountDiff(a, b Row) int { return rle.RunCountDiff(a, b) }

// XORRuns returns the run count of the difference — the paper's
// similarity measure.
func XORRuns(a, b Row) int { return rle.XORRuns(a, b) }

// Hamming returns the number of differing pixels.
func Hamming(a, b Row) int { return rle.Hamming(a, b) }
