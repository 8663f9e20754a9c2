// Package planner implements the hybrid representation engines: a
// packed-word XOR engine and a per-row planner that routes between it
// and the compressed-domain merge on a calibrated cost model.
//
// The paper's headline is a cost crossover: the systolic/merge cost
// of a row difference tracks the run counts of the operands, while a
// word-packed XOR tracks the row *area* — and §6 concedes the packed
// approach wins when rows are dense or dissimilar. Both operand run
// counts are known before any work is done (they are the slice
// lengths), so the crossover can be exploited per row: price both
// paths with core.RowCostModel and take the cheaper one, with
// hysteresis so adjacent rows near the crossover don't flap between
// representations.
//
// Both engines implement core.AppendEngine on the zero-allocation
// append contract: the packed path's word buffers are reused across
// rows, so a warm engine allocates nothing beyond growing the
// caller's destination row. Neither engine is safe for concurrent
// use: both are core.OneMachine, so give each worker its own
// (core.RowWorkers runs a shared instance on one worker).
package planner

import (
	"sync/atomic"

	"sysrle/internal/bitmap"
	"sysrle/internal/core"
	"sysrle/internal/rle"
	"sysrle/internal/telemetry"
)

// packWidth is the word-buffer window for a row pair: one past the
// rightmost pixel of either operand. The XOR is empty beyond both
// supports, so nothing narrower loses pixels and nothing wider does
// useful work. (Engines are width-agnostic, so the window is derived
// per pair rather than taken from an image.)
func packWidth(a, b rle.Row) int {
	w := 0
	if n := len(a); n > 0 {
		w = a[n-1].End() + 1
	}
	if n := len(b); n > 0 {
		if e := b[n-1].End() + 1; e > w {
			w = e
		}
	}
	return w
}

// Packed is the pack → 64-bit word XOR → repack engine: the
// uncompressed baseline of the paper's §6 comparison, packed 64
// pixels to a word. Its cost is proportional to the row area (plus
// painting the input runs), not to run similarity — the dense-regime
// side of the crossover, and the raw path the planner routes to.
// Not safe for concurrent use.
type Packed struct {
	wa, wb, wx []uint64
}

// NewPacked returns a packed-word XOR engine with reusable buffers.
func NewPacked() *Packed { return &Packed{} }

// Name implements Engine.
func (p *Packed) Name() string { return "packed-xor" }

// OneMachine implements core.OneMachine: the word buffers are reused
// from row to row.
func (p *Packed) OneMachine() {}

// XORRow implements Engine. The result row is freshly allocated and
// remains valid after subsequent calls.
func (p *Packed) XORRow(a, b rle.Row) (core.Result, error) {
	if err := core.ValidateRowPair(a, b); err != nil {
		return core.Result{}, err
	}
	return p.xor(nil, a, b), nil
}

// XORRowAppend implements AppendEngine: the same diff appended,
// canonical, to dst. Once the word buffers are warm the only
// allocation is growing dst.
func (p *Packed) XORRowAppend(dst rle.Row, a, b rle.Row) (core.Result, error) {
	if err := core.ValidateRowPair(a, b); err != nil {
		return core.Result{}, err
	}
	return p.xor(dst, a, b), nil
}

// xor runs the packed path, appending to dst (which may be nil).
// Iterations reports the number of 64-pixel words processed — the
// packed analogue of merge steps, and what a word-parallel machine
// would spend per pass. Cells is 0: there is no systolic array.
func (p *Packed) xor(dst rle.Row, a, b rle.Row) core.Result {
	width := packWidth(a, b)
	if width == 0 {
		return core.Result{Row: dst}
	}
	p.wa = bitmap.PackRowInto(p.wa, a, width)
	p.wb = bitmap.PackRowInto(p.wb, b, width)
	p.wx = bitmap.XORWordsInto(p.wx, p.wa, p.wb)
	row := bitmap.AppendWordRuns(dst, p.wx, width)
	return core.Result{Row: row, Iterations: len(p.wx)}
}

// Metric names exported to the telemetry registry when one is
// attached with WithMetrics.
const (
	// MetricRowsPacked counts rows routed to the packed path.
	MetricRowsPacked = "planner_rows_packed_total"
	// MetricRowsRLE counts rows routed to the RLE merge path.
	MetricRowsRLE = "planner_rows_rle_total"
	// MetricCrossoverRatio is a histogram of the modelled
	// merge-price / packed-price ratio per row: mass below 1 is the
	// sparse regime, above 1 the dense regime, and the bucket
	// around 1 is the crossover neighbourhood where hysteresis
	// matters.
	MetricCrossoverRatio = "planner_crossover_ratio"
)

// CrossoverBuckets are the histogram bounds for MetricCrossoverRatio,
// log-spaced around the crossover at ratio 1.
var CrossoverBuckets = []float64{0.125, 0.25, 0.5, 0.8, 1, 1.25, 2, 4, 8, 16}

// Planner is the hybrid engine: each row is priced on both
// representations from (k1, k2, width) and routed to the cheaper
// path — the §2 sequential merge (the fastest software RLE engine)
// or the packed-word XOR — with hysteresis against flapping. Not
// safe for concurrent use.
type Planner struct {
	router core.Router
	packed Packed

	rowsPacked atomic.Int64
	rowsRLE    atomic.Int64

	// Telemetry series, resolved once at construction (get-or-create
	// on the hot path would take the registry lock per row).
	ctrPacked *telemetry.Counter
	ctrRLE    *telemetry.Counter
	histRatio *telemetry.Histogram
}

// Option configures a Planner.
type Option func(*Planner)

// WithCostModel replaces the calibrated default cost model.
func WithCostModel(m core.RowCostModel) Option {
	return func(p *Planner) { p.router.Model = m }
}

// WithHysteresis sets the fractional price advantage required to
// switch paths (default 0.25).
func WithHysteresis(h float64) Option {
	return func(p *Planner) { p.router.Hysteresis = h }
}

// WithMetrics attaches a telemetry registry: every decision
// increments MetricRowsPacked or MetricRowsRLE and observes the
// modelled cost ratio in MetricCrossoverRatio.
func WithMetrics(reg *telemetry.Registry) Option {
	return func(p *Planner) {
		if reg == nil {
			return
		}
		p.ctrPacked = reg.Counter(MetricRowsPacked)
		p.ctrRLE = reg.Counter(MetricRowsRLE)
		p.histRatio = reg.Histogram(MetricCrossoverRatio, CrossoverBuckets)
	}
}

// New returns a hybrid planner engine with the calibrated default
// cost model and 25% hysteresis.
func New(opts ...Option) *Planner {
	p := &Planner{router: core.Router{Model: core.DefaultRowCostModel(), Hysteresis: 0.25}}
	for _, opt := range opts {
		opt(p)
	}
	return p
}

// Name implements Engine.
func (p *Planner) Name() string { return "planner" }

// OneMachine implements core.OneMachine: the router's hysteresis and
// the packed path's buffers carry over from row to row.
func (p *Planner) OneMachine() {}

// RowsPacked reports how many rows this engine routed to the packed
// path so far.
func (p *Planner) RowsPacked() int64 { return p.rowsPacked.Load() }

// RowsRLE reports how many rows this engine routed to the RLE merge
// path so far.
func (p *Planner) RowsRLE() int64 { return p.rowsRLE.Load() }

// decide routes one row and records the decision telemetry.
func (p *Planner) decide(k1, k2, width int) core.Route {
	route := p.router.Decide(k1, k2, width)
	if route == core.RoutePacked {
		p.rowsPacked.Add(1)
		if p.ctrPacked != nil {
			p.ctrPacked.Inc()
		}
	} else {
		p.rowsRLE.Add(1)
		if p.ctrRLE != nil {
			p.ctrRLE.Inc()
		}
	}
	if p.histRatio != nil {
		p.histRatio.Observe(p.router.Model.CostRatio(k1, k2, width))
	}
	return route
}

// XORRow implements Engine. The result row is freshly allocated and
// remains valid after subsequent calls.
func (p *Planner) XORRow(a, b rle.Row) (core.Result, error) {
	return p.run(nil, a, b)
}

// XORRowAppend implements AppendEngine: both paths append their
// result, canonical, to dst, and both are allocation-free once warm.
func (p *Planner) XORRowAppend(dst rle.Row, a, b rle.Row) (core.Result, error) {
	return p.run(dst, a, b)
}

// run validates, routes and executes one row. Iterations reports
// merge steps on the RLE path and words processed on the packed path
// — the unit of work of whichever machine ran the row.
func (p *Planner) run(dst rle.Row, a, b rle.Row) (core.Result, error) {
	if err := core.ValidateRowPair(a, b); err != nil {
		return core.Result{}, err
	}
	width := packWidth(a, b)
	if p.decide(len(a), len(b), width) == core.RoutePacked {
		return p.packed.xor(dst, a, b), nil
	}
	row, steps := core.AppendSequentialXOR(dst, a, b)
	return core.Result{Row: row, Iterations: steps}, nil
}
