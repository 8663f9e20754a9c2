package sysrle

import (
	"fmt"
	"slices"
	"strings"

	"sysrle/internal/broadcast"
	"sysrle/internal/core"
	"sysrle/internal/planner"
	"sysrle/internal/telemetry"
)

// EngineInfo is one entry of the engine registry: a stable name, a
// one-line description, and a constructor returning a fresh engine.
type EngineInfo struct {
	Name        string
	Description string
	New         func() Engine
}

// engineRegistry is the single source of truth for engine names:
// every command resolves its -engine flag through it, and the HTTP
// service and the job runner resolve engine= through NewServedEngine,
// which serves a subset of it.
var engineRegistry = []EngineInfo{
	{
		Name:        "lockstep",
		Description: "deterministic systolic array sweep (the paper's algorithm)",
		New:         func() Engine { return core.Lockstep{} },
	},
	{
		Name:        "channel",
		Description: "goroutine-per-cell systolic engine (CSP rendering of the hardware)",
		New:         func() Engine { return core.Channel{} },
	},
	{
		Name:        "sequential",
		Description: "the paper's §2 sequential merge baseline",
		New:         func() Engine { return core.Sequential{} },
	},
	{
		Name:        "sparse",
		Description: "lockstep-equivalent simulator costed by actual data movement",
		New:         func() Engine { return core.Sparse{} },
	},
	{
		Name:        "bus",
		Description: "the paper's §6 broadcast-bus extension (unlimited bandwidth)",
		New:         func() Engine { return broadcast.Bus{} },
	},
	{
		Name:        "verified",
		Description: "lockstep with per-row invariant checks and sequential recovery",
		New:         func() Engine { return core.NewVerified(core.Lockstep{}) },
	},
	{
		Name:        "packed",
		Description: "pack → 64-bit word XOR → repack (the §6 uncompressed baseline, one word per 64 pixels)",
		New:         func() Engine { return planner.NewPacked() },
	},
	{
		Name:        "planner",
		Description: "hybrid per-row router: RLE merge or packed XOR, whichever the calibrated cost model prices cheaper (default)",
		New:         func() Engine { return planner.New() },
	},
}

// Engines lists the registered engines in registration order. The
// returned slice is a copy; mutate freely.
func Engines() []EngineInfo {
	out := make([]EngineInfo, len(engineRegistry))
	copy(out, engineRegistry)
	return out
}

// EngineNames returns the registered engine names in registration
// order — the values NewEngineByName accepts.
func EngineNames() []string {
	names := make([]string, len(engineRegistry))
	for i, e := range engineRegistry {
		names[i] = e.Name
	}
	return names
}

// DefaultEngine is the registry name of the serving default: the
// engine the empty name selects.
const DefaultEngine = "planner"

// NewEngineByName constructs a fresh engine by registry name. The
// empty name means DefaultEngine. Stateful engines ("planner",
// "packed", "verified") are newly constructed on every call, so each
// caller gets its own.
func NewEngineByName(name string) (Engine, error) {
	if name == "" {
		name = DefaultEngine
	}
	for _, e := range engineRegistry {
		if e.Name == name {
			return e.New(), nil
		}
	}
	return nil, fmt.Errorf("sysrle: unknown engine %q (have %s)", name, strings.Join(EngineNames(), ", "))
}

// servedEngines are the registry names the /v1 service runs: the
// kernels, plus lockstep on a fixed array. The other simulators cost
// far more per row (channel starts a goroutine per cell) and stay
// library, benchmark and oracle tools.
var servedEngines = []string{"planner", "sequential", "packed", "lockstep"}

// MaxServedCells is the array size of the served lockstep engine. A
// simulated lockstep row costs O(cells × iterations), which for the
// worst row pair grows with the square of its width, so, like the
// paper's hardware, the served array has a fixed number of cells: a
// row pair that needs more fails with core.ErrTooWide before any cell
// is built.
const MaxServedCells = 1024

// NewServedEngine constructs a fresh engine for one request or job by
// registry name, the empty name meaning DefaultEngine. Only the served
// engines are accepted: planner, sequential, packed, and lockstep
// capped at MaxServedCells. The planner counts its routing decisions
// in reg when reg is non-nil.
func NewServedEngine(name string, reg *telemetry.Registry) (Engine, error) {
	if name == "" {
		name = DefaultEngine
	}
	switch {
	case name == "planner":
		return planner.New(planner.WithMetrics(reg)), nil
	case name == "lockstep":
		return servedLockstep{}, nil
	case slices.Contains(servedEngines, name):
		return NewEngineByName(name)
	}
	what := "unknown"
	if slices.Contains(EngineNames(), name) {
		what = "unserved"
	}
	return nil, fmt.Errorf("sysrle: %s engine %q (served: %s)", what, name, strings.Join(servedEngines, ", "))
}

// servedLockstep is the lockstep engine on an array of MaxServedCells
// cells.
type servedLockstep struct{ core.Lockstep }

// XORRow implements Engine through the capped append path.
func (e servedLockstep) XORRow(a, b Row) (Result, error) { return e.XORRowAppend(nil, a, b) }

// XORRowAppend implements core.AppendEngine.
func (e servedLockstep) XORRowAppend(dst, a, b Row) (Result, error) {
	if err := core.CheckCells(a, b, MaxServedCells); err != nil {
		return Result{}, err
	}
	return e.Lockstep.XORRowAppend(dst, a, b)
}
