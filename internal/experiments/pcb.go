package experiments

import (
	"fmt"
	"math/rand"

	"sysrle/internal/core"
	"sysrle/internal/inspect"
	"sysrle/internal/metrics"
)

// PCB-scale application experiment: the paper's motivating workload
// (§1) quantified end to end. For boards of increasing size and
// defect count, compare the total systolic iterations across all
// scanlines against the total sequential merge steps — the concrete
// version of "the system performance critically depends on the speed
// of this operation".

// PCBPoint is one (board size, defect count) configuration.
type PCBPoint struct {
	Width, Height int
	Defects       int
	RowsDiffering metrics.Welford
	SystolicTotal metrics.Welford
	SystolicMax   metrics.Welford
	SeqTotal      metrics.Welford
	DetectedAll   int // trials where every injected defect was found
	Trials        int
}

// PCBSweep runs the inspection pipeline over generated boards.
func PCBSweep(cfg Config, sizes [][2]int, defectCounts []int) ([]PCBPoint, error) {
	var points []PCBPoint
	for _, wh := range sizes {
		for _, nd := range defectCounts {
			p := PCBPoint{Width: wh[0], Height: wh[1], Defects: nd}
			rng := rand.New(rand.NewSource(cfg.Seed + int64(wh[0]*31+nd)))
			for trial := 0; trial < cfg.trials(); trial++ {
				layout, err := inspect.GenerateBoard(rng, inspect.DefaultBoard(wh[0], wh[1]))
				if err != nil {
					return nil, err
				}
				scanBits, injected := inspect.InjectDefects(rng, layout, nd)
				ref, scan := layout.Art.ToRLE(), scanBits.ToRLE()

				sysRep, err := (&inspect.Inspector{Engine: core.Lockstep{}, MinDefectArea: 2}).Compare(ref, scan)
				if err != nil {
					return nil, err
				}
				seqRep, err := (&inspect.Inspector{Engine: core.Sequential{}}).Compare(ref, scan)
				if err != nil {
					return nil, err
				}
				p.RowsDiffering.Add(float64(sysRep.RowsDiffering))
				p.SystolicTotal.Add(float64(sysRep.TotalIterations))
				p.SystolicMax.Add(float64(sysRep.MaxRowIterations))
				p.SeqTotal.Add(float64(seqRep.TotalIterations))
				p.Trials++
				all := true
				for _, inj := range injected {
					found := false
					for _, d := range sysRep.Defects {
						if inj.X0 <= d.X1 && d.X0 <= inj.X1 && inj.Y0 <= d.Y1 && d.Y0 <= inj.Y1 {
							found = true
							break
						}
					}
					if !found {
						all = false
						break
					}
				}
				if all {
					p.DetectedAll++
				}
			}
			points = append(points, p)
		}
	}
	return points, nil
}

// PCBTable renders the sweep.
func PCBTable(points []PCBPoint) *metrics.Table {
	t := metrics.NewTable(
		"PCB inspection (§1 application): systolic vs. sequential totals per board",
		"board", "defects", "rows-diff", "sys-total", "sys-max/row", "seq-total", "speedup", "detected")
	for _, p := range points {
		speedup := p.SeqTotal.Mean() / p.SystolicTotal.Mean()
		if p.SystolicTotal.Mean() == 0 {
			speedup = 0
		}
		t.Add(
			fmt.Sprintf("%dx%d", p.Width, p.Height),
			fmt.Sprintf("%d", p.Defects),
			fmt.Sprintf("%.1f", p.RowsDiffering.Mean()),
			fmt.Sprintf("%.0f", p.SystolicTotal.Mean()),
			fmt.Sprintf("%.1f", p.SystolicMax.Mean()),
			fmt.Sprintf("%.0f", p.SeqTotal.Mean()),
			fmt.Sprintf("%.1fx", speedup),
			fmt.Sprintf("%d/%d", p.DetectedAll, p.Trials))
	}
	return t
}
