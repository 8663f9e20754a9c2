// Motion detection by frame differencing — one of the applications
// the paper's introduction lists ("motion detection for safety and
// security").
//
// A synthetic scene (static clutter plus two moving objects) is
// rendered frame by frame, each frame is RLE-encoded, and consecutive
// frames are differenced with the systolic engine. The static
// background cancels, so each row's array converges in a few
// iterations and the difference blobs track the movers.
//
// Run with: go run ./examples/motion
package main

import (
	"fmt"
	"log"
	"math/rand"

	"sysrle"
	"sysrle/internal/bitmap"
	"sysrle/internal/inspect"
)

const (
	width  = 320
	height = 200
	frames = 6
)

// renderFrame draws the scene at time t: static clutter plus a disk
// moving right and a box moving down.
func renderFrame(clutter *bitmap.Bitmap, t int) *bitmap.Bitmap {
	frame := clutter.Clone()
	frame.Disk(40+22*t, 70, 9, true)                 // mover 1: left → right
	frame.FillRect(200, 20+18*t, 216, 36+18*t, true) // mover 2: top → bottom
	return frame
}

func main() {
	rng := rand.New(rand.NewSource(11))

	// Static clutter: random rectangles and disks that should cancel
	// perfectly between frames.
	clutter := bitmap.New(width, height)
	for i := 0; i < 25; i++ {
		x, y := rng.Intn(width), rng.Intn(height)
		if rng.Intn(2) == 0 {
			clutter.FillRect(x, y, x+4+rng.Intn(20), y+2+rng.Intn(8), true)
		} else {
			clutter.Disk(x, y, 2+rng.Intn(5), true)
		}
	}

	prev := renderFrame(clutter, 0).ToRLE()
	fmt.Printf("scene %dx%d, %d frames, clutter runs/frame ≈ %d\n\n",
		width, height, frames, prev.RunCount())

	for t := 1; t < frames; t++ {
		cur := renderFrame(clutter, t).ToRLE()
		diff, stats, err := sysrle.DiffImage(prev, cur, sysrle.WithEngine(sysrle.NewLockstep()))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("frame %d→%d: %d rows differ, systolic iterations total=%d max/row=%d\n",
			t-1, t, stats.RowsDiffering, stats.TotalIterations, stats.MaxRowIterations)
		for _, comp := range inspect.Components(diff) {
			if comp.Area < 8 {
				continue // ignore tiny slivers
			}
			fmt.Printf("  motion blob: bbox=(%d,%d)-(%d,%d) area=%d\n",
				comp.X0, comp.Y0, comp.X1, comp.Y1, comp.Area)
		}
		prev = cur
	}

	fmt.Println("\nstatic clutter cancels in the compressed domain; only the movers cost iterations")
}
