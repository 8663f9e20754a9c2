package sysrle

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"sysrle/internal/core"
	"sysrle/internal/planner"
	"sysrle/internal/rle"
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

// WithContext attaches a cancellation context: cancellation is
// observed between rows (a row already inside the engine finishes)
// and the operation fails with the context's error.
func WithContext(ctx context.Context) Option {
	return func(c *config) {
		if ctx != nil {
			c.ctx = ctx
		}
	}
}

// WithBufferReuse toggles the zero-allocation row path (default on):
// workers gather each row, already canonical, into a reused scratch
// buffer and persist exact-size copies through a per-worker arena.
// Disabling it restores the allocate-per-row path — useful only for
// benchmarking the difference (see internal/perf).
func WithBufferReuse(enabled bool) Option { return func(c *config) { c.reuse = enabled } }

// DiffImage computes the per-row difference of two equally sized
// images, fanning rows across a worker pool — the software analogue
// of the paper's one-systolic-array-per-scanline deployment. Rows of
// the result are canonical. With no options it uses one planner per
// worker and GOMAXPROCS workers:
//
//	diff, stats, err := sysrle.DiffImage(a, b)
//	diff, stats, err := sysrle.DiffImage(a, b,
//		sysrle.WithEngine(sysrle.NewSparse()),
//		sysrle.WithWorkers(4),
//		sysrle.WithContext(ctx))
func DiffImage(a, b *Image, opts ...Option) (*Image, *ImageStats, error) {
	cfg := defaultConfig()
	for _, opt := range opts {
		opt(&cfg)
	}
	if a.Width != b.Width || a.Height != b.Height {
		return nil, nil, fmt.Errorf("sysrle: size mismatch %dx%d vs %dx%d", a.Width, a.Height, b.Width, b.Height)
	}
	workers := core.RowWorkers(cfg.engine, cfg.workers, a.Height)
	// When the shared engine is a Verified, the recovered-fault count
	// over this image is the counter's growth during the run.
	var verified *core.Verified
	var recoveredBase int64
	if v, ok := cfg.engine.(*core.Verified); ok {
		verified = v
		recoveredBase = v.Recovered()
	}
	out := rle.NewImage(a.Width, a.Height)
	iters := make([]int, a.Height)
	cells := make([]int, a.Height)
	errs := make([]error, a.Height)
	rows := make(chan int)
	// One bad row fails the whole diff, so the first failure stops
	// row distribution instead of paying engine time for the rest of
	// a bad image; already-queued rows are skipped.
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			eng := cfg.engine
			if eng == nil {
				eng = planner.New()
			}
			arena := rle.NewArena(0)
			var scratch rle.Row
			for y := range rows {
				if failed.Load() || cfg.ctx.Err() != nil {
					continue
				}
				var res core.Result
				var err error
				if cfg.reuse {
					res, err = core.XORRowAppend(eng, scratch[:0], a.Rows[y], b.Rows[y])
				} else {
					res, err = eng.XORRow(a.Rows[y], b.Rows[y])
				}
				if err != nil {
					errs[y] = err
					failed.Store(true)
					continue
				}
				if cfg.reuse {
					scratch = res.Row
					out.Rows[y] = arena.Persist(scratch)
				} else {
					out.Rows[y] = res.Row.Canonicalize()
				}
				iters[y] = res.Iterations
				cells[y] = res.Cells
			}
		}()
	}
feed:
	for y := 0; y < a.Height && !failed.Load(); y++ {
		select {
		case rows <- y:
		case <-cfg.ctx.Done():
			break feed
		}
	}
	close(rows)
	wg.Wait()
	if err := cfg.ctx.Err(); err != nil {
		return nil, nil, fmt.Errorf("sysrle: %w", err)
	}
	for y, err := range errs {
		if err != nil {
			return nil, nil, fmt.Errorf("sysrle: row %d: %w", y, err)
		}
	}
	stats := &ImageStats{}
	for y, n := range iters {
		stats.TotalIterations += n
		if n > stats.MaxRowIterations {
			stats.MaxRowIterations = n
		}
		stats.TotalCells += cells[y]
		if cells[y] > stats.MaxRowCells {
			stats.MaxRowCells = cells[y]
		}
		if len(out.Rows[y]) > 0 {
			stats.RowsDiffering++
		}
	}
	if verified != nil {
		stats.FaultsRecovered = int(verified.Recovered() - recoveredBase)
	}
	return out, stats, nil
}
