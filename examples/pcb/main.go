// PCB inspection: the paper's motivating application (§1) end to end.
//
// A synthetic printed-circuit board is rasterized, a simulated scan
// of it is damaged with classic fabrication defects, and the two are
// compared in the compressed domain with the systolic difference
// engine. Because scan and reference are nearly identical, each
// scanline's systolic array converges in a handful of iterations even
// though the board has hundreds of runs per row — the paper's whole
// point.
//
// Run with: go run ./examples/pcb
package main

import (
	"fmt"
	"log"
	"math/rand"

	"sysrle"
	"sysrle/internal/inspect"
)

func main() {
	rng := rand.New(rand.NewSource(7))

	// Generate the golden reference artwork.
	layout, err := inspect.GenerateBoard(rng, inspect.DefaultBoard(640, 480))
	if err != nil {
		log.Fatal(err)
	}
	ref := layout.Art.ToRLE()
	fmt.Printf("reference board: %dx%d, %d pads, %d runs total (%.2f runs/row)\n",
		ref.Width, ref.Height, len(layout.Pads), ref.RunCount(),
		float64(ref.RunCount())/float64(ref.Height))

	// Simulate a scan with fabrication defects.
	scanBits, injected := inspect.InjectDefects(rng, layout, 10)
	scan := scanBits.ToRLE()
	fmt.Printf("scan: injected %d defects\n", len(injected))
	for _, inj := range injected {
		fmt.Printf("  %-12s at (%d,%d)-(%d,%d)\n", inj.Type, inj.X0, inj.Y0, inj.X1, inj.Y1)
	}

	// Compare in the compressed domain, rows in parallel, on the
	// paper's lockstep engine so the iteration counts below are the
	// systolic ones.
	ins := &inspect.Inspector{Engine: sysrle.NewLockstep(), MinDefectArea: 2}
	rep, err := ins.Compare(ref, scan)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Print(inspect.FormatReport(rep))

	// Check the report against the ground truth.
	matched := 0
	for _, inj := range injected {
		for _, d := range rep.Defects {
			if inj.X0 <= d.X1 && d.X0 <= inj.X1 && inj.Y0 <= d.Y1 && d.Y0 <= inj.Y1 {
				matched++
				break
			}
		}
	}
	fmt.Printf("\nground truth: %d/%d injected defects detected\n", matched, len(injected))

	// The paper's efficiency argument, concretely: per-row systolic
	// iterations vs. what the sequential merge would need.
	totalRuns := ref.RunCount() + scan.RunCount()
	fmt.Printf("systolic iterations across the board: %d (max %d on any row)\n",
		rep.TotalIterations, rep.MaxRowIterations)
	fmt.Printf("sequential merge would touch ≈%d runs — %.0fx more work\n",
		totalRuns, float64(totalRuns)/float64(max(rep.TotalIterations, 1)))
}
