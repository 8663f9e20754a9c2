package sysrle

import (
	"context"
	"fmt"

	"sysrle/internal/core"
	"sysrle/internal/planner"
)

// Option configures an image operation such as DiffImage. The zero
// configuration is the serving default: one hybrid planner engine
// per worker, GOMAXPROCS workers, buffer reuse on, no deadline.
type Option func(*config)

type config struct {
	engine  Engine
	workers int
	ctx     context.Context
	reuse   bool
}

func defaultConfig() config {
	return config{ctx: context.Background(), reuse: true}
}

// WithEngine selects the row-difference engine. nil (the default)
// means one planner per worker (NewPlanner): each row goes to the RLE
// merge or the packed-word XOR, whichever is cheaper, and the result
// is byte-identical to every other engine. A non-nil engine is shared
// by every worker. The engines that are one machine each (NewPlanner,
// NewPacked, NewFixedArray) then run on one worker; pass nil for
// row parallelism on the planner, or NewLockstep for the paper's
// iteration counts.
func WithEngine(e Engine) Option { return func(c *config) { c.engine = e } }

// WithWorkers bounds the row-level parallelism; n ≤ 0 (the default)
// means GOMAXPROCS.
func WithWorkers(n int) Option { return func(c *config) { c.workers = n } }

// WithContext attaches a cancellation context. Every row worker
// checks it before starting each row; a row already inside the engine
// finishes, no further row starts, and the operation fails with the
// context's error.
func WithContext(ctx context.Context) Option {
	return func(c *config) {
		if ctx != nil {
			c.ctx = ctx
		}
	}
}

// WithBufferReuse toggles the zero-allocation row path (default on):
// the engine appends each row, already canonical, to the worker's
// reused scratch row. Disabling it makes every row allocate a fresh
// result through the engine's XORRow — useful only for benchmarking
// the difference (see internal/perf).
func WithBufferReuse(enabled bool) Option { return func(c *config) { c.reuse = enabled } }

// DiffImage computes the per-row difference of two equally sized
// images on core.XORRows — the software analogue of the paper's
// one-systolic-array-per-scanline deployment. Row workers claim bands
// of consecutive rows; a single worker (any shared core.OneMachine
// engine, or WithWorkers(1)) runs on the calling goroutine, rows in
// order. The first failing or panicking row stops the diff, which
// fails naming the lowest such row. Rows of the result are canonical.
// With no options it uses one planner per worker and GOMAXPROCS
// workers:
//
//	diff, stats, err := sysrle.DiffImage(a, b)
//	diff, stats, err := sysrle.DiffImage(a, b,
//		sysrle.WithEngine(sysrle.NewSparse()),
//		sysrle.WithWorkers(4),
//		sysrle.WithContext(ctx))
func DiffImage(a, b *Image, opts ...Option) (*Image, *ImageStats, error) {
	diff := NewImage(a.Width, a.Height)
	stats, err := DiffRows(a, b, core.PersistRows(diff), opts...)
	if err != nil {
		return nil, nil, err
	}
	return diff, stats, nil
}

// RowSource serves one operand's rows to DiffRows: an *Image, or an
// rle.RowDecoder decoding an RLEB stream one row at a time.
type RowSource = core.RowSource

// DiffRows is DiffImage without the result image: the worker w that
// finishes difference row y hands it to sink(w), and the row is that
// worker's scratch, valid only during the call. A sequential source
// (rle.RowDecoder) or an order-dependent sink needs WithWorkers(1).
func DiffRows(a, b RowSource, sink func(w int) func(y int, row Row), opts ...Option) (*ImageStats, error) {
	cfg := defaultConfig()
	for _, opt := range opts {
		opt(&cfg)
	}
	_, height := a.Size()
	workers := core.RowWorkers(cfg.engine, cfg.workers, height)
	// When the shared engine is a Verified, the recovered-fault count
	// over this image is the counter's growth during the run.
	var verified *core.Verified
	var recoveredBase int64
	if v, ok := cfg.engine.(*core.Verified); ok {
		verified = v
		recoveredBase = v.Recovered()
	}
	s, err := core.XORRows(cfg.ctx, a, b, workers, func(int) core.Engine {
		eng := cfg.engine
		if eng == nil {
			eng = planner.New()
		}
		if !cfg.reuse {
			eng = allocPerRow{eng}
		}
		return eng
	}, sink)
	if err != nil {
		return nil, fmt.Errorf("sysrle: %w", err)
	}
	stats := &ImageStats{
		TotalIterations:  s.TotalIterations,
		MaxRowIterations: s.MaxRowIterations,
		RowsDiffering:    s.RowsDiffering,
		TotalCells:       s.TotalCells,
		MaxRowCells:      s.MaxRowCells,
	}
	if verified != nil {
		stats.FaultsRecovered = int(verified.Recovered() - recoveredBase)
	}
	return stats, nil
}

// allocPerRow hides an engine's append path, so every row allocates
// its result through XORRow (WithBufferReuse(false)).
type allocPerRow struct{ core.Engine }
