package inspect

import (
	"context"
	"fmt"
	"sort"

	"sysrle/internal/core"
	"sysrle/internal/planner"
	"sysrle/internal/rle"
)

// Defect is one reported difference blob.
type Defect struct {
	// Kind is the classified polarity: "missing-copper" (present in
	// the reference, absent in the scan) or "extra-copper".
	Kind string
	// Type is the specific defect label from local connectivity
	// analysis: short, spur, extra-copper, open, pinhole, mousebite
	// or missing-feature.
	Type string
	// X0, Y0, X1, Y1 is the inclusive bounding box.
	X0, Y0, X1, Y1 int
	// Area is the differing pixel count.
	Area int
	// Shape carries the blob's moment-based descriptors (centroid,
	// elongation, fill) for downstream filtering and review UIs.
	Shape Features
}

// Report is the outcome of one board comparison.
type Report struct {
	Defects []Defect
	// RowsCompared and RowsDiffering count scanlines.
	RowsCompared  int
	RowsDiffering int
	// TotalIterations sums the engine's per-row iteration counts —
	// the systolic cost of the whole board; MaxRowIterations is the
	// critical path if each row had its own array.
	TotalIterations  int
	MaxRowIterations int
	// DiffRuns and DiffArea size the raw difference image.
	DiffRuns int
	DiffArea int
	// AlignDX, AlignDY is the registration offset applied to the
	// scan before comparison (0,0 when alignment is disabled or the
	// scan was already registered).
	AlignDX int
	AlignDY int
}

// Clean reports whether no defects were found.
func (r *Report) Clean() bool { return len(r.Defects) == 0 }

// Inspector compares scans against a reference using an RLE
// difference engine.
type Inspector struct {
	// Engine computes row differences; nil means one hybrid planner
	// per row worker (planner.New). A non-nil engine is shared by the
	// row workers, so a core.OneMachine engine runs on one worker.
	Engine core.Engine
	// Workers bounds the row-comparison parallelism; 0 means
	// GOMAXPROCS.
	Workers int
	// MinDefectArea suppresses difference blobs smaller than this
	// many pixels (sensor noise); 0 keeps everything.
	MinDefectArea int
	// MaxAlignShift, when positive, registers the scan against the
	// reference before comparing by searching translations within
	// ±MaxAlignShift pixels (Align). The found offset is reported in
	// Report.AlignDX/AlignDY.
	MaxAlignShift int
}

// Compare diffs a scanned board against the reference and returns the
// classified defect report. Rows run on core.XORRows — the software
// analogue of one systolic array per scanline.
func (ins *Inspector) Compare(ref, scan *rle.Image) (*Report, error) {
	return ins.CompareContext(context.Background(), ref, scan)
}

// CompareContext is Compare with a deadline: every row worker checks
// ctx before starting each row (a row already inside the engine
// finishes), and the comparison fails with the context's error. The
// first row whose engine fails or panics stops the comparison, which
// fails naming the lowest such row instead of crashing the process.
// One worker (any shared core.OneMachine engine, or Workers: 1) runs
// on the calling goroutine, rows in order.
func (ins *Inspector) CompareContext(ctx context.Context, ref, scan *rle.Image) (*Report, error) {
	if ref.Width != scan.Width || ref.Height != scan.Height {
		return nil, fmt.Errorf("inspect: size mismatch %dx%d vs %dx%d", ref.Width, ref.Height, scan.Width, scan.Height)
	}
	alignDX, alignDY := 0, 0
	if ins.MaxAlignShift > 0 {
		var dx, dy int
		if ins.MaxAlignShift > 4 {
			// Large shift budgets use the coarse-to-fine pyramid;
			// the exhaustive search is O(shift²).
			var err error
			dx, dy, _, err = AlignPyramid(ref, scan, ins.MaxAlignShift)
			if err != nil {
				return nil, err
			}
		} else {
			dx, dy, _ = Align(ref, scan, ins.MaxAlignShift)
		}
		if dx != 0 || dy != 0 {
			scan = rle.Translate(scan, dx, dy)
		}
		alignDX, alignDY = dx, dy
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("inspect: %w", err)
	}
	workers := core.RowWorkers(ins.Engine, ins.Workers, ref.Height)
	rows, err := core.XORRows(ctx, ref, scan, workers, func(int) core.Engine {
		if ins.Engine != nil {
			return ins.Engine
		}
		return planner.New()
	})
	if err != nil {
		return nil, fmt.Errorf("inspect: %w", err)
	}
	diff := rows.Image
	stats := rows.Stats()

	rep := &Report{
		RowsCompared:     ref.Height,
		RowsDiffering:    stats.RowsDiffering,
		TotalIterations:  stats.TotalIterations,
		MaxRowIterations: stats.MaxRowIterations,
		AlignDX:          alignDX,
		AlignDY:          alignDY,
	}
	for _, row := range diff.Rows {
		rep.DiffRuns += len(row)
		rep.DiffArea += row.Area()
	}

	for _, comp := range Components(diff) {
		if comp.Area < ins.MinDefectArea {
			continue
		}
		rep.Defects = append(rep.Defects, Defect{
			Kind: classify(ref, comp),
			Type: classifyDetailed(ref, comp),
			X0:   comp.X0, Y0: comp.Y0, X1: comp.X1, Y1: comp.Y1,
			Area:  comp.Area,
			Shape: ComputeFeatures(comp),
		})
	}
	sort.Slice(rep.Defects, func(i, j int) bool {
		if rep.Defects[i].Y0 != rep.Defects[j].Y0 {
			return rep.Defects[i].Y0 < rep.Defects[j].Y0
		}
		return rep.Defects[i].X0 < rep.Defects[j].X0
	})
	return rep, nil
}

// classify decides a blob's polarity by majority vote of its pixels
// against the reference: differing pixels that are foreground in the
// reference are copper the scan lost.
func classify(ref *rle.Image, comp Component) string {
	missing := 0
	for _, lr := range comp.Runs {
		refRow := ref.Row(lr.Y)
		missing += rle.AND(refRow, rle.Row{lr.Run}).Area()
	}
	if 2*missing >= comp.Area {
		return "missing-copper"
	}
	return "extra-copper"
}

// FormatReport renders a human-readable summary.
func FormatReport(rep *Report) string {
	s := fmt.Sprintf("rows compared: %d, differing: %d; diff runs: %d, diff pixels: %d\n",
		rep.RowsCompared, rep.RowsDiffering, rep.DiffRuns, rep.DiffArea)
	s += fmt.Sprintf("engine iterations: total %d, max/row %d\n",
		rep.TotalIterations, rep.MaxRowIterations)
	if rep.Clean() {
		return s + "board is clean\n"
	}
	s += fmt.Sprintf("%d defect(s):\n", len(rep.Defects))
	for i, d := range rep.Defects {
		s += fmt.Sprintf("  %2d. %-15s (%s) bbox=(%d,%d)-(%d,%d) area=%d elong=%.1f fill=%.2f\n",
			i+1, d.Type, d.Kind, d.X0, d.Y0, d.X1, d.Y1, d.Area, d.Shape.Elongation, d.Shape.Fill)
	}
	return s
}
