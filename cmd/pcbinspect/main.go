// Command pcbinspect demonstrates the paper's motivating application
// end to end: it generates a synthetic PCB, injects fabrication
// defects into a simulated scan, compares scan against reference in
// the compressed domain (the hybrid planner unless -engine names
// another engine, e.g. the paper's lockstep array), and prints the
// defect report.
//
//	pcbinspect [-width 800] [-height 600] [-defects 8] [-seed 1]
//	           [-engine planner|lockstep|channel|sequential|sparse|bus|verified|packed]
//	           [-server http://host:8422]
//	           [-save-ref ref.pbm] [-save-scan scan.pbm]
//
// With -server the comparison runs remotely on a sysdiffd instance
// (or cluster coordinator) through the typed v1 client; generation
// and defect injection stay local so the run remains reproducible
// from -seed alone.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"

	"sysrle"
	"sysrle/internal/apiclient"
	"sysrle/internal/bitmap"
	"sysrle/internal/inspect"
	"sysrle/internal/rle"
)

// run executes one inspection against explicit streams, so tests can
// drive it without a process.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("pcbinspect", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		width    = fs.Int("width", 800, "board width in pixels")
		height   = fs.Int("height", 600, "board height in pixels")
		defects  = fs.Int("defects", 8, "defects to inject")
		seed     = fs.Int64("seed", 1, "RNG seed")
		engine   = fs.String("engine", "", "diff engine (default: planner locally, the server's default with -server): "+strings.Join(sysrle.EngineNames(), ", "))
		saveRef  = fs.String("save-ref", "", "write the reference artwork as PBM")
		saveScan = fs.String("save-scan", "", "write the defective scan as PBM")
		misalign = fs.Int("misalign", 0, "shift the scan by this many pixels to exercise auto-registration")
		server   = fs.String("server", "", "run the comparison on this sysdiffd (or coordinator) instead of locally")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	eng, err := sysrle.NewEngineByName(*engine)
	if err != nil {
		return err
	}
	if *engine == "" {
		eng = nil // the Inspector's default: one planner per row worker
	}

	rng := rand.New(rand.NewSource(*seed))
	layout, err := inspect.GenerateBoard(rng, inspect.DefaultBoard(*width, *height))
	if err != nil {
		return err
	}
	scan, injected := inspect.InjectDefects(rng, layout, *defects)
	fmt.Fprintf(stdout, "board %dx%d: %d pads, %.1f%% copper; injected %d defect(s)\n",
		*width, *height, len(layout.Pads),
		100*float64(layout.Art.Popcount())/float64(*width**height), len(injected))
	for _, inj := range injected {
		fmt.Fprintf(stdout, "  injected %-12s at (%d,%d)-(%d,%d)\n", inj.Type, inj.X0, inj.Y0, inj.X1, inj.Y1)
	}

	scanImg := scan.ToRLE()
	maxShift := 0
	if *misalign != 0 {
		// Simulate an unregistered scan and let the inspector
		// recover the offset.
		scanImg = sysrle.Translate(scanImg, *misalign, -*misalign)
		if maxShift = *misalign; maxShift < 0 {
			maxShift = -maxShift
		}
		maxShift++
		fmt.Fprintf(stdout, "scan deliberately misaligned by (%d,%d)\n", *misalign, -*misalign)
	}
	if *server != "" {
		if err := remoteInspect(*server, *engine, layout.Art.ToRLE(), scanImg, maxShift, stdout); err != nil {
			return err
		}
	} else {
		ins := &inspect.Inspector{Engine: eng, MinDefectArea: 2, MaxAlignShift: maxShift}
		rep, err := ins.Compare(layout.Art.ToRLE(), scanImg)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout)
		if rep.AlignDX != 0 || rep.AlignDY != 0 {
			fmt.Fprintf(stdout, "auto-registration recovered offset (%d,%d)\n", rep.AlignDX, rep.AlignDY)
		}
		fmt.Fprint(stdout, inspect.FormatReport(rep))
	}

	if *saveRef != "" {
		if err := savePBM(*saveRef, layout.Art); err != nil {
			return err
		}
	}
	if *saveScan != "" {
		if err := savePBM(*saveScan, scan); err != nil {
			return err
		}
	}
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "pcbinspect:", err)
		os.Exit(1)
	}
}

// remoteInspect registers the reference on the server, inspects the
// scan against it through the typed client, and prints a report in
// the same spirit as the local path.
func remoteInspect(serverURL, engine string, ref, scan *rle.Image, maxShift int, stdout io.Writer) error {
	c, err := apiclient.New(serverURL, apiclient.Options{})
	if err != nil {
		return err
	}
	ctx := context.Background()
	meta, err := c.PutReference(ctx, ref)
	if err != nil {
		return fmt.Errorf("registering reference: %w", err)
	}
	rep, err := c.Inspect(ctx, apiclient.InspectRequest{
		RefID: meta.ID, Scan: scan, Engine: engine,
		MinDefectArea: 2, MaxAlignShift: maxShift,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\nremote inspection via %s (reference %s)\n", serverURL, meta.ID[:12])
	if rep.AlignDX != 0 || rep.AlignDY != 0 {
		fmt.Fprintf(stdout, "auto-registration recovered offset (%d,%d)\n", rep.AlignDX, rep.AlignDY)
	}
	fmt.Fprintf(stdout, "engine=%s rows=%d differing=%d diff-pixels=%d iterations=%d\n",
		rep.Engine, rep.RowsCompared, rep.RowsDiffering, rep.DiffPixels, rep.TotalIterations)
	if rep.Clean {
		fmt.Fprintln(stdout, "PASS: no defects above threshold")
		return nil
	}
	fmt.Fprintf(stdout, "FAIL: %d defect(s)\n", len(rep.Defects))
	for i, d := range rep.Defects {
		fmt.Fprintf(stdout, "  %2d. %-7s %-12s area=%-4d at (%d,%d)-(%d,%d)\n",
			i+1, d.Kind, d.Type, d.Area, d.X0, d.Y0, d.X1, d.Y1)
	}
	return nil
}

func savePBM(path string, b *bitmap.Bitmap) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return bitmap.WritePBM(f, b)
}
