// Package fault is a deterministic, seedable fault-injection
// framework for the systolic engines. The systolic-array literature
// treats cell-fault detection and recovery as a first-class concern
// (Brent–Kung–Luk style linear-time arrays assume cells can fail);
// this package provides the fault half of that story — Engine wraps
// any core.Engine and injects cell-level faults on a seeded schedule —
// while core.Verified provides the detection-and-recovery half.
//
// Fault classes map to concrete array failure modes:
//
//	corrupt-run    a cell's register latches a wrong span (the result
//	               gains an overlap or a bogus extension)
//	drop-run       a shift is lost between two cells (a result run
//	               silently disappears)
//	stuck-empty    a cell's output is stuck at the empty value, so the
//	               wired-AND termination fires with no result runs
//	error          a transient failure detected by the host interface
//	               (returned as an error wrapping ErrInjected)
//	slow           a cell misses its clock budget (the call sleeps)
//	panic          the simulated host crashes mid-row (the call panics)
//
// Everything is deterministic given Plan.Seed, so a chaos run that
// fails can be replayed exactly.
package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"time"

	"sysrle/internal/core"
	"sysrle/internal/rle"
	"sysrle/internal/telemetry"
)

// ErrInjected is the root of every injected transient error, so
// callers can distinguish chaos from genuine failures.
var ErrInjected = errors.New("fault: injected transient failure")

// Kind names one fault class.
type Kind string

// The fault classes. See the package comment for the array failure
// mode each one models.
const (
	KindCorruptRun Kind = "corrupt-run"
	KindDropRun    Kind = "drop-run"
	KindStuckEmpty Kind = "stuck-empty"
	KindError      Kind = "error"
	KindSlow       Kind = "slow"
	KindPanic      Kind = "panic"
)

// Kinds returns every fault class, in a stable order.
func Kinds() []Kind {
	return []Kind{KindCorruptRun, KindDropRun, KindStuckEmpty, KindError, KindSlow, KindPanic}
}

func validKind(k Kind) bool {
	for _, v := range Kinds() {
		if v == k {
			return true
		}
	}
	return false
}

// DefaultSlowFor is how long a slow fault stalls when the plan leaves
// SlowFor zero.
const DefaultSlowFor = 10 * time.Millisecond

// Plan is a deterministic fault schedule: each XORRow call draws from
// a PRNG seeded with Seed and, with probability Rate, injects one
// fault chosen uniformly from Kinds.
type Plan struct {
	// Seed seeds the schedule; the same seed replays the same faults.
	Seed int64
	// Rate is the per-call injection probability in [0, 1].
	Rate float64
	// Kinds restricts which fault classes may fire; empty means all.
	Kinds []Kind
	// SlowFor is the stall duration of a slow fault; 0 means
	// DefaultSlowFor.
	SlowFor time.Duration
}

// ParsePlan parses the -fault-inject flag syntax: comma-separated
// key=value pairs, e.g.
//
//	rate=0.05,seed=7,kinds=panic+slow,slow=50ms
//
// Unknown keys, malformed values, out-of-range rates and unknown fault
// kinds are errors. An empty kinds list (or no kinds key) enables all
// classes.
func ParsePlan(s string) (Plan, error) {
	p := Plan{Rate: 0.01}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return Plan{}, fmt.Errorf("fault: bad plan term %q (want key=value)", part)
		}
		switch key {
		case "rate":
			r, err := strconv.ParseFloat(val, 64)
			if err != nil || r < 0 || r > 1 {
				return Plan{}, fmt.Errorf("fault: bad rate %q (want 0..1)", val)
			}
			p.Rate = r
		case "seed":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return Plan{}, fmt.Errorf("fault: bad seed %q", val)
			}
			p.Seed = n
		case "kinds":
			for _, k := range strings.Split(val, "+") {
				kind := Kind(strings.TrimSpace(k))
				if !validKind(kind) {
					return Plan{}, fmt.Errorf("fault: unknown kind %q (have %v)", k, Kinds())
				}
				p.Kinds = append(p.Kinds, kind)
			}
		case "slow":
			d, err := time.ParseDuration(val)
			if err != nil || d < 0 {
				return Plan{}, fmt.Errorf("fault: bad slow duration %q", val)
			}
			p.SlowFor = d
		default:
			return Plan{}, fmt.Errorf("fault: unknown plan key %q", key)
		}
	}
	return p, nil
}

// String renders the plan back into ParsePlan syntax.
func (p Plan) String() string {
	parts := []string{fmt.Sprintf("rate=%g", p.Rate), fmt.Sprintf("seed=%d", p.Seed)}
	if len(p.Kinds) > 0 {
		ks := make([]string, len(p.Kinds))
		for i, k := range p.Kinds {
			ks[i] = string(k)
		}
		parts = append(parts, "kinds="+strings.Join(ks, "+"))
	}
	if p.SlowFor > 0 {
		parts = append(parts, "slow="+p.SlowFor.String())
	}
	return strings.Join(parts, ",")
}

// Injector draws faults from a plan. One injector may be shared by
// many wrapped engines (the schedule is global, the way one flaky
// board is global to every array built on it); all methods are safe
// for concurrent use.
type Injector struct {
	plan Plan

	mu       sync.Mutex
	rng      *rand.Rand
	injected map[Kind]int64

	counters map[Kind]*telemetry.Counter
}

// NewInjector returns an injector following the plan, recording
// sysrle_fault_injected_total{kind=...} when reg is non-nil.
func NewInjector(plan Plan, reg *telemetry.Registry) *Injector {
	if plan.SlowFor <= 0 {
		plan.SlowFor = DefaultSlowFor
	}
	if len(plan.Kinds) == 0 {
		plan.Kinds = Kinds()
	}
	in := &Injector{
		plan:     plan,
		rng:      rand.New(rand.NewSource(plan.Seed)),
		injected: make(map[Kind]int64),
	}
	if reg != nil {
		reg.Help("sysrle_fault_injected_total", "Faults injected by the chaos engine, by kind.")
		in.counters = make(map[Kind]*telemetry.Counter, len(plan.Kinds))
		for _, k := range plan.Kinds {
			in.counters[k] = reg.Counter("sysrle_fault_injected_total", telemetry.L("kind", string(k)))
		}
	}
	return in
}

// Plan returns the schedule the injector follows.
func (in *Injector) Plan() Plan { return in.plan }

// roll decides whether the next call faults and, if so, which class
// fires and a position draw for run-level faults.
func (in *Injector) roll() (kind Kind, pos int, fire bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.rng.Float64() >= in.plan.Rate {
		return "", 0, false
	}
	kind = in.plan.Kinds[in.rng.Intn(len(in.plan.Kinds))]
	return kind, in.rng.Intn(1 << 20), true
}

// note records one actually-applied fault.
func (in *Injector) note(k Kind) {
	in.mu.Lock()
	in.injected[k]++
	in.mu.Unlock()
	if c := in.counters[k]; c != nil {
		c.Inc()
	}
}

// Injected returns how many faults of each class have actually been
// applied (a drop-run drawn against an empty result, for example, is
// not counted — nothing was dropped).
func (in *Injector) Injected() map[Kind]int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make(map[Kind]int64, len(in.injected))
	for k, v := range in.injected {
		out[k] = v
	}
	return out
}

// Total returns the total number of applied faults.
func (in *Injector) Total() int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	var n int64
	for _, v := range in.injected {
		n += v
	}
	return n
}

// Engine wraps an inner engine with fault injection. Wrap it in a
// core.Verified to get the full inject → detect → recover loop.
type Engine struct {
	inner core.Engine
	inj   *Injector
}

// Wrap returns inner with faults injected per the injector's plan. A
// nil injector returns inner unchanged, so chaos mode can be wired
// unconditionally and enabled by configuration.
func Wrap(inner core.Engine, inj *Injector) core.Engine {
	if inj == nil {
		return inner
	}
	return Engine{inner: inner, inj: inj}
}

// Name implements core.Engine.
func (e Engine) Name() string { return e.inner.Name() + "+fault" }

// Flush implements core.Flusher by flushing the inner engine, whose
// rows run through its append path and so leave their telemetry to
// Flush.
func (e Engine) Flush() {
	if f, ok := e.inner.(core.Flusher); ok {
		f.Flush()
	}
}

// XORRow implements core.Engine, possibly injecting one fault.
func (e Engine) XORRow(a, b rle.Row) (core.Result, error) {
	kind, pos, fire := e.inj.roll()
	if !fire {
		return e.row(a, b)
	}
	switch kind {
	case KindError:
		e.inj.note(kind)
		return core.Result{}, fmt.Errorf("%w (row with %d+%d runs)", ErrInjected, len(a), len(b))
	case KindPanic:
		e.inj.note(kind)
		panic(fmt.Sprintf("fault: injected panic (row with %d+%d runs)", len(a), len(b)))
	case KindSlow:
		e.inj.note(kind)
		time.Sleep(e.inj.plan.SlowFor)
		return e.row(a, b)
	}
	res, err := e.row(a, b)
	if err != nil {
		return res, err
	}
	switch kind {
	case KindStuckEmpty:
		// The result cells read back empty: the wired-AND saw
		// termination but every RegSmall output is stuck at ∅.
		e.inj.note(kind)
		res.Row = nil
	case KindDropRun:
		if n := len(res.Row); n > 0 {
			e.inj.note(kind)
			i := pos % n
			row := append(rle.Row(nil), res.Row[:i]...)
			res.Row = append(row, res.Row[i+1:]...)
		}
	case KindCorruptRun:
		if n := len(res.Row); n > 0 {
			e.inj.note(kind)
			row := res.Row.Clone()
			i := pos % n
			if i+1 < n {
				// Latch error: the run extends into its right
				// neighbour, violating the Theorem-2 ordering.
				row[i].Length = row[i+1].Start - row[i].Start + 1
			} else {
				// Last run: grow it past its true end.
				row[i].Length += 1 + pos%3
			}
			res.Row = row
		}
	}
	return res, nil
}

// row runs the inner engine on one row pair into a fresh row.
func (e Engine) row(a, b rle.Row) (core.Result, error) {
	return core.XORRowAppend(e.inner, nil, a, b)
}
