package inspect

import (
	"math/rand"
	"strings"
	"testing"

	"sysrle/internal/core"
	"sysrle/internal/planner"
	"sysrle/internal/rle"
	"sysrle/internal/workload"
)

func testLayout(t *testing.T, seed int64) *Layout {
	t.Helper()
	layout, err := GenerateBoard(rand.New(rand.NewSource(seed)), DefaultBoard(400, 300))
	if err != nil {
		t.Fatal(err)
	}
	return layout
}

func TestGenerateBoard(t *testing.T) {
	layout := testLayout(t, 1)
	art := layout.Art
	if art.Width() != 400 || art.Height() != 300 {
		t.Fatalf("art %dx%d", art.Width(), art.Height())
	}
	density := float64(art.Popcount()) / float64(400*300)
	if density < 0.03 || density > 0.6 {
		t.Errorf("implausible board density %v", density)
	}
	if len(layout.Pads) == 0 {
		t.Fatal("no pads")
	}
	for _, p := range layout.Pads {
		if !art.Get(p.X, p.Y) {
			t.Fatalf("pad centre (%d,%d) not copper", p.X, p.Y)
		}
	}
	// Board art compresses well under RLE: far fewer runs than
	// pixels (the premise of the whole paper).
	img := art.ToRLE()
	if img.RunCount()*20 > 400*300 {
		t.Errorf("board art barely compresses: %d runs", img.RunCount())
	}
}

func TestGenerateBoardDeterministic(t *testing.T) {
	a := testLayout(t, 7)
	b := testLayout(t, 7)
	if !a.Art.Equal(b.Art) {
		t.Error("same seed, different board")
	}
}

func TestGenerateBoardRejectsBadParams(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	bad := []BoardParams{
		{Width: 10, Height: 10, PadPitch: 24, PadRadius: 4, TraceWidth: 3, TraceProb: 0.5},
		{Width: 400, Height: 300, PadPitch: 24, PadRadius: 0, TraceWidth: 3, TraceProb: 0.5},
		{Width: 400, Height: 300, PadPitch: 24, PadRadius: 4, TraceWidth: 3, TraceProb: 1.5},
		{Width: 400, Height: 300, PadPitch: 24, PadRadius: 4, TraceWidth: 3, TraceProb: 0.5, ViaCount: -1},
	}
	for _, p := range bad {
		if _, err := GenerateBoard(rng, p); err == nil {
			t.Errorf("accepted %+v", p)
		}
	}
}

func TestDefectTypeStrings(t *testing.T) {
	if OpenCircuit.String() != "open" || MissingPad.String() != "missing-pad" {
		t.Error("defect names wrong")
	}
	if !strings.Contains(DefectType(99).String(), "99") {
		t.Error("unknown defect name wrong")
	}
}

func TestInjectDefectsChangesBoardWithinBBoxes(t *testing.T) {
	layout := testLayout(t, 2)
	rng := rand.New(rand.NewSource(3))
	scan, injected := InjectDefects(rng, layout, 12)
	if len(injected) < 8 {
		t.Fatalf("only %d/12 defects placed", len(injected))
	}
	// Every changed pixel lies inside some injected bbox.
	for y := 0; y < scan.Height(); y++ {
		for x := 0; x < scan.Width(); x++ {
			if scan.Get(x, y) == layout.Art.Get(x, y) {
				continue
			}
			found := false
			for _, inj := range injected {
				if inj.overlaps(x, y, x, y) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("stray change at (%d,%d)", x, y)
			}
		}
	}
	// And each defect's polarity matches its type where it changed
	// pixels (spot check: at least one changed pixel per defect).
	changed := 0
	for _, inj := range injected {
		for y := inj.Y0; y <= inj.Y1; y++ {
			for x := inj.X0; x <= inj.X1; x++ {
				if scan.Get(x, y) != layout.Art.Get(x, y) {
					changed++
					y = inj.Y1 + 1
					break
				}
			}
		}
	}
	if changed < len(injected)*3/4 {
		t.Errorf("only %d/%d defects visibly changed pixels", changed, len(injected))
	}
}

func TestInjectOneEveryType(t *testing.T) {
	layout := testLayout(t, 4)
	// The defect types that take copper away; the rest add it.
	removesCopper := map[DefectType]bool{OpenCircuit: true, MouseBite: true, Pinhole: true, MissingPad: true}
	for typ := DefectType(0); typ < numDefectTypes; typ++ {
		rng := rand.New(rand.NewSource(int64(typ) + 10))
		scan := layout.Art.Clone()
		inj, ok := InjectOne(rng, layout, scan, typ)
		if !ok {
			t.Errorf("%v: no placement found", typ)
			continue
		}
		if inj.Type != typ {
			t.Errorf("%v: recorded type %v", typ, inj.Type)
		}
		diff := 0
		removed := 0
		for y := inj.Y0; y <= inj.Y1; y++ {
			for x := inj.X0; x <= inj.X1; x++ {
				was, is := layout.Art.Get(x, y), scan.Get(x, y)
				if was != is {
					diff++
					if was && !is {
						removed++
					}
				}
			}
		}
		if diff == 0 {
			t.Errorf("%v: no pixels changed", typ)
		}
		if removesCopper[typ] && removed == 0 {
			t.Errorf("%v: removes copper but none removed", typ)
		}
		if !removesCopper[typ] && removed == diff {
			t.Errorf("%v: adds copper but only removals seen", typ)
		}
	}
}

func TestCompareCleanBoard(t *testing.T) {
	layout := testLayout(t, 5)
	ref := layout.Art.ToRLE()
	ins := &Inspector{}
	rep, err := ins.Compare(ref, layout.Art.ToRLE())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("clean board reported defects: %+v", rep.Defects)
	}
	if rep.DiffArea != 0 || rep.RowsDiffering != 0 {
		t.Errorf("clean board diff area %d rows %d", rep.DiffArea, rep.RowsDiffering)
	}
	if rep.RowsCompared != 300 {
		t.Errorf("rows compared %d", rep.RowsCompared)
	}
	if !strings.Contains(FormatReport(rep), "clean") {
		t.Error("report missing clean verdict")
	}
}

func TestCompareFindsAllInjectedDefects(t *testing.T) {
	layout := testLayout(t, 6)
	rng := rand.New(rand.NewSource(8))
	scan, injected := InjectDefects(rng, layout, 10)
	if len(injected) < 6 {
		t.Fatalf("only %d defects placed", len(injected))
	}
	ins := &Inspector{}
	rep, err := ins.Compare(layout.Art.ToRLE(), scan.ToRLE())
	if err != nil {
		t.Fatal(err)
	}
	for _, inj := range injected {
		found := false
		for _, d := range rep.Defects {
			if inj.overlaps(d.X0, d.Y0, d.X1, d.Y1) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("injected %v at (%d,%d)-(%d,%d) not detected",
				inj.Type, inj.X0, inj.Y0, inj.X1, inj.Y1)
		}
	}
	// Every reported defect overlaps some injected one (no false
	// positives on synthetic data).
	for _, d := range rep.Defects {
		found := false
		for _, inj := range injected {
			if inj.overlaps(d.X0, d.Y0, d.X1, d.Y1) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("false positive %+v", d)
		}
	}
	out := FormatReport(rep)
	if !strings.Contains(out, "defect(s)") {
		t.Errorf("report: %s", out)
	}
}

func TestCompareClassifiesPolarity(t *testing.T) {
	layout := testLayout(t, 9)
	// One guaranteed missing-copper defect (missing pad) and one
	// extra-copper defect (isolated blob).
	scan := layout.Art.Clone()
	rngA := rand.New(rand.NewSource(11))
	injMissing, ok := InjectOne(rngA, layout, scan, MissingPad)
	if !ok {
		t.Fatal("missing-pad placement failed")
	}
	injExtra, ok := InjectOne(rngA, layout, scan, ExtraCopper)
	if !ok {
		t.Fatal("extra-copper placement failed")
	}
	rep, err := (&Inspector{}).Compare(layout.Art.ToRLE(), scan.ToRLE())
	if err != nil {
		t.Fatal(err)
	}
	check := func(inj Injected, wantKind string) {
		for _, d := range rep.Defects {
			if inj.overlaps(d.X0, d.Y0, d.X1, d.Y1) {
				if d.Kind != wantKind {
					t.Errorf("%v classified %q, want %q", inj.Type, d.Kind, wantKind)
				}
				return
			}
		}
		t.Errorf("%v not detected", inj.Type)
	}
	check(injMissing, "missing-copper")
	check(injExtra, "extra-copper")
}

func TestCompareEngineChoiceEquivalent(t *testing.T) {
	layout := testLayout(t, 12)
	rng := rand.New(rand.NewSource(13))
	scan, _ := InjectDefects(rng, layout, 6)
	ref, scanImg := layout.Art.ToRLE(), scan.ToRLE()
	repLock, err := (&Inspector{Engine: core.Lockstep{}}).Compare(ref, scanImg)
	if err != nil {
		t.Fatal(err)
	}
	repChan, err := (&Inspector{Engine: core.Channel{}, Workers: 2}).Compare(ref, scanImg)
	if err != nil {
		t.Fatal(err)
	}
	repSeq, err := (&Inspector{Engine: core.Sequential{}}).Compare(ref, scanImg)
	if err != nil {
		t.Fatal(err)
	}
	if len(repLock.Defects) != len(repChan.Defects) || len(repLock.Defects) != len(repSeq.Defects) {
		t.Fatalf("defect counts differ: %d / %d / %d",
			len(repLock.Defects), len(repChan.Defects), len(repSeq.Defects))
	}
	for i := range repLock.Defects {
		if repLock.Defects[i] != repChan.Defects[i] {
			t.Errorf("defect %d differs between engines", i)
		}
	}
	if repLock.TotalIterations != repChan.TotalIterations {
		t.Errorf("iteration totals differ: %d vs %d", repLock.TotalIterations, repChan.TotalIterations)
	}
}

// TestCompareSharedOneMachineEngine shares one planner (and one packed
// engine) across four requested row workers. Run under -race: the
// Inspector must size its pool through core.RowWorkers, which gives a
// shared core.OneMachine engine one worker, or the workers race on the
// router's hysteresis state and the packed word buffers.
func TestCompareSharedOneMachineEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(512))
	ref, err := workload.GenerateImage(rng, workload.PaperRow(512, 0.3), 256)
	if err != nil {
		t.Fatal(err)
	}
	scan, err := workload.GenerateImage(rng, workload.PaperRow(512, 0.3), 256)
	if err != nil {
		t.Fatal(err)
	}
	want, err := (&Inspector{Engine: core.Sequential{}, Workers: 4}).Compare(ref, scan)
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range []core.Engine{planner.New(), planner.NewPacked(), nil} {
		got, err := (&Inspector{Engine: eng, Workers: 4}).Compare(ref, scan)
		if err != nil {
			t.Fatalf("%v: %v", eng, err)
		}
		if got.DiffArea != want.DiffArea || got.DiffRuns != want.DiffRuns ||
			got.RowsDiffering != want.RowsDiffering || len(got.Defects) != len(want.Defects) {
			t.Errorf("%v: area/runs/rows/defects %d/%d/%d/%d, sequential merge %d/%d/%d/%d", eng,
				got.DiffArea, got.DiffRuns, got.RowsDiffering, len(got.Defects),
				want.DiffArea, want.DiffRuns, want.RowsDiffering, len(want.Defects))
		}
	}
}

func TestCompareMinDefectArea(t *testing.T) {
	layout := testLayout(t, 14)
	scan := layout.Art.Clone()
	scan.Set(200, 150, !scan.Get(200, 150)) // single-pixel noise
	rep, err := (&Inspector{MinDefectArea: 3}).Compare(layout.Art.ToRLE(), scan.ToRLE())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Errorf("noise not suppressed: %+v", rep.Defects)
	}
	if rep.DiffArea != 1 {
		t.Errorf("diff area = %d, want 1", rep.DiffArea)
	}
}

func TestCompareSizeMismatch(t *testing.T) {
	if _, err := (&Inspector{}).Compare(rle.NewImage(4, 4), rle.NewImage(4, 5)); err == nil {
		t.Error("size mismatch accepted")
	}
}

func TestCompareIterationStats(t *testing.T) {
	layout := testLayout(t, 15)
	rng := rand.New(rand.NewSource(16))
	scan, injected := InjectDefects(rng, layout, 5)
	if len(injected) == 0 {
		t.Fatal("no defects placed")
	}
	// Lockstep is pinned: the bound below is on systolic iterations.
	rep, err := (&Inspector{Engine: core.Lockstep{}}).Compare(layout.Art.ToRLE(), scan.ToRLE())
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalIterations == 0 || rep.MaxRowIterations == 0 {
		t.Error("iteration stats empty on defective board")
	}
	if rep.MaxRowIterations > rep.TotalIterations {
		t.Error("max exceeds total")
	}
	// The paper's headline: highly similar images take few systolic
	// iterations per row even on a large board.
	if rep.MaxRowIterations > 40 {
		t.Errorf("max/row iterations %d implausibly high for localized defects", rep.MaxRowIterations)
	}
}
