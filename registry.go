package sysrle

import (
	"fmt"
	"strings"

	"sysrle/internal/broadcast"
	"sysrle/internal/core"
	"sysrle/internal/planner"
)

// EngineInfo is one entry of the engine registry: a stable name, a
// one-line description, and a constructor returning a fresh engine.
type EngineInfo struct {
	Name        string
	Description string
	New         func() Engine
}

// engineRegistry is the single source of truth for engine names —
// the HTTP service, the job runner and every command resolve the
// engine= parameter/flag through it instead of hand-rolled switches.
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
