package sysrle

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"sysrle/internal/core"
	"sysrle/internal/systolic"
	"sysrle/internal/workload"
)

// testImagePair builds a generated image and a perturbed copy — the
// inspection workload the options API is exercised against.
func testImagePair(t *testing.T, seed int64) (*Image, *Image) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	a, err := workload.GenerateImage(rng, workload.PaperRow(500, 0.3), 48)
	if err != nil {
		t.Fatal(err)
	}
	b := a.Clone()
	for y := 0; y < b.Height; y += 2 {
		mask, err := workload.ErrorMask(rng, 500, workload.PaperErrors(4))
		if err != nil {
			t.Fatal(err)
		}
		b.Rows[y] = XOR(b.Rows[y], mask)
	}
	return a, b
}

func TestDiffImageBufferReuseEquivalence(t *testing.T) {
	a, b := testImagePair(t, 11)
	for _, name := range EngineNames() {
		eng, err := NewEngineByName(name)
		if err != nil {
			t.Fatal(err)
		}
		reuse, reuseStats, err := DiffImage(a, b, WithEngine(eng))
		if err != nil {
			t.Fatalf("%s reuse: %v", name, err)
		}
		eng2, _ := NewEngineByName(name)
		plain, plainStats, err := DiffImage(a, b, WithEngine(eng2), WithBufferReuse(false))
		if err != nil {
			t.Fatalf("%s no-reuse: %v", name, err)
		}
		if !reuse.Equal(plain) {
			t.Errorf("%s: buffer reuse changed the pixels", name)
		}
		if reuseStats.TotalIterations != plainStats.TotalIterations ||
			reuseStats.RowsDiffering != plainStats.RowsDiffering ||
			reuseStats.TotalCells != plainStats.TotalCells {
			t.Errorf("%s: buffer reuse changed the stats: %+v vs %+v", name, reuseStats, plainStats)
		}
	}
}

func TestDiffImageCellStats(t *testing.T) {
	a, b := testImagePair(t, 13)
	_, stats, err := DiffImage(a, b, WithEngine(NewLockstep()))
	if err != nil {
		t.Fatal(err)
	}
	if stats.MaxRowCells == 0 || stats.TotalCells < stats.MaxRowCells {
		t.Errorf("cell stats inconsistent: %+v", stats)
	}
	// The sequential baseline has no cell array; the stats must say so
	// rather than report a stale or invented size.
	_, seqStats, err := DiffImage(a, b, WithEngine(NewSequential()))
	if err != nil {
		t.Fatal(err)
	}
	if seqStats.TotalCells != 0 || seqStats.MaxRowCells != 0 {
		t.Errorf("sequential engine reported cells: %+v", seqStats)
	}
}

func TestDiffImageContextCancellation(t *testing.T) {
	a, b := testImagePair(t, 17)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := DiffImage(a, b, WithContext(ctx)); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled context: err = %v", err)
	}
	// A nil context is treated as the default background context.
	if _, _, err := DiffImage(a, b, WithContext(nil)); err != nil {
		t.Errorf("nil context: %v", err)
	}
}

func TestDiffImageFaultsRecovered(t *testing.T) {
	a, b := testImagePair(t, 19)
	v := core.NewVerified(core.Lockstep{})
	_, stats, err := DiffImage(a, b, WithEngine(v))
	if err != nil {
		t.Fatal(err)
	}
	if stats.FaultsRecovered != 0 {
		t.Errorf("healthy engine recovered %d faults", stats.FaultsRecovered)
	}
	// A primary that miscomputes every row forces one recovery per row,
	// and the per-image stat must report the delta for this image only
	// even though the engine's counter is cumulative.
	broken := core.NewVerified(flakyEngine{})
	for round := 1; round <= 2; round++ {
		_, stats, err = DiffImage(a, b, WithEngine(broken), WithWorkers(2))
		if err != nil {
			t.Fatal(err)
		}
		if stats.FaultsRecovered != a.Height {
			t.Errorf("round %d: FaultsRecovered = %d, want %d", round, stats.FaultsRecovered, a.Height)
		}
	}
}

// flakyEngine computes XOR but always reports a wrong first run,
// tripping Verified's result check on every row.
type flakyEngine struct{}

func (flakyEngine) Name() string { return "flaky" }

func (flakyEngine) XORRow(a, b Row) (Result, error) {
	res, err := core.Lockstep{}.XORRow(a, b)
	if err != nil {
		return Result{}, err
	}
	out := append(Row{{Start: 0, Length: 1}}, res.Row.Canonicalize()...)
	res.Row = out
	return res, nil
}

func TestDiffImageSingleMachineEnginesClamped(t *testing.T) {
	a, b := testImagePair(t, 23)
	// The planner engines and FixedArray are one machine each;
	// DiffImage must not race many workers over them even when asked
	// to (run under -race).
	want, _, err := DiffImage(a, b, WithEngine(NewLockstep()))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []Engine{NewPlanner(), NewPacked()} {
		got, _, err := DiffImage(a, b, WithEngine(e), WithWorkers(8))
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Errorf("%s result differs", e.Name())
		}
	}
	arr := NewFixedArray(700)
	got, _, err := DiffImage(a, b, WithEngine(arr), WithWorkers(8))
	defer arr.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Error("fixed array result differs")
	}
}

func TestEngineRegistry(t *testing.T) {
	names := EngineNames()
	if len(names) == 0 {
		t.Fatal("empty registry")
	}
	seen := map[string]bool{}
	for _, info := range Engines() {
		if seen[info.Name] {
			t.Errorf("duplicate engine name %q", info.Name)
		}
		seen[info.Name] = true
		if info.Description == "" {
			t.Errorf("%s: empty description", info.Name)
		}
		eng, err := NewEngineByName(info.Name)
		if err != nil {
			t.Fatalf("%s: %v", info.Name, err)
		}
		if eng == nil {
			t.Fatalf("%s: nil engine", info.Name)
		}
		if c, ok := eng.(interface{ Close() }); ok {
			defer c.Close()
		}
	}
	for _, want := range []string{"lockstep", "channel", "sequential", "sparse", "bus", "verified", "packed", "planner"} {
		if !seen[want] {
			t.Errorf("registry missing %q", want)
		}
	}
	// Stateful engines must be fresh per call, not shared.
	s1, _ := NewEngineByName("planner")
	s2, _ := NewEngineByName("planner")
	if s1 == s2 {
		t.Error("NewEngineByName returned a shared planner")
	}
	// The default: empty name means the planner.
	def, err := NewEngineByName("")
	if err != nil || def.Name() != NewPlanner().Name() || DefaultEngine != "planner" {
		t.Errorf("default engine = %v, %v", def, err)
	}
	// Unknown names fail loudly and list the valid ones.
	_, err = NewEngineByName("quantum")
	if err == nil {
		t.Fatal("unknown engine accepted")
	}
	if !strings.Contains(err.Error(), "quantum") || !strings.Contains(err.Error(), "lockstep") {
		t.Errorf("unhelpful error: %v", err)
	}
}

// TestNewServedEngine: the service resolves exactly the served names,
// the empty name to the default, and refuses the other simulators
// with an error that names the served set.
func TestNewServedEngine(t *testing.T) {
	for _, name := range append(slices.Clone(servedEngines), "") {
		eng, err := NewServedEngine(name, nil)
		if err != nil {
			t.Fatalf("%q: %v", name, err)
		}
		want, _ := NewEngineByName(name)
		if eng.Name() != want.Name() {
			t.Errorf("%q: served %s, registry %s", name, eng.Name(), want.Name())
		}
		if _, ok := eng.(core.ValidAppendEngine); !ok {
			t.Errorf("%q: %T has no unchecked append entry", name, eng)
		}
	}
	for _, name := range []string{"channel", "sparse", "bus", "verified", "quantum"} {
		_, err := NewServedEngine(name, nil)
		if err == nil || !strings.Contains(err.Error(), "planner, sequential, packed, lockstep") {
			t.Errorf("%q: err = %v, want a refusal naming the served set", name, err)
		}
	}
}

// TestServedLockstepCellCap: the served lockstep refuses a row pair
// needing more than MaxServedCells cells with core.ErrTooWide before
// its array runs — zero iterations, no snapshot — and runs one that
// fits exactly.
func TestServedLockstepCellCap(t *testing.T) {
	alternating := func(width int) (a, b Row) {
		for x := 0; x+1 < width; x += 2 {
			a = append(a, Run{Start: x, Length: 1})
			b = append(b, Run{Start: x + 1, Length: 1})
		}
		return a, b
	}
	snapshots := 0
	eng := servedLockstep{core.Lockstep{Observer: func(int, systolic.Phase, []core.Cell) { snapshots++ }}}
	a, b := alternating(4096)
	for _, res := range []func() (Result, error){
		func() (Result, error) { return eng.XORRow(a, b) },
		func() (Result, error) { return eng.XORRowAppend(nil, a, b) },
		func() (Result, error) { return eng.XORRowAppendValid(nil, a, b) },
	} {
		r, err := res()
		if !errors.Is(err, core.ErrTooWide) || r.Iterations != 0 || snapshots != 0 {
			t.Errorf("over the cap: err %v, %d iterations, %d snapshots; want ErrTooWide, 0, 0", err, r.Iterations, snapshots)
		}
	}
	a, b = alternating(MaxServedCells - 1)
	a = append(a, Run{Start: MaxServedCells - 2, Length: 1}) // 1023 runs, 1024 cells
	r, err := eng.XORRow(a, b)
	if err != nil || r.Cells != MaxServedCells || snapshots == 0 {
		t.Errorf("at the cap: err %v, %d cells, %d snapshots", err, r.Cells, snapshots)
	}
}

func TestRegistryEnginesAgreeOnPaperRow(t *testing.T) {
	a, b, want := paperRows()
	for _, name := range EngineNames() {
		eng, err := NewEngineByName(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.XORRow(a, b)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Row.EqualBits(want) {
			t.Errorf("%s: %v", name, res.Row)
		}
		if c, ok := eng.(interface{ Close() }); ok {
			c.Close()
		}
	}
}
