// Command sysdiff computes the difference (XOR) of two binary images
// in the compressed domain:
//
//	sysdiff [-engine planner|lockstep|channel|sequential|sparse|bus|verified|packed] \
//	        [-o out.pbm] [-format pbm|pbm-plain|png|rlet|rleb] \
//	        [-server http://host:8422] [-ref <id>] \
//	        [-stats] a.pbm b.pbm
//
// Inputs may be PBM (P1/P4), PNG, or this repository's RLE
// text/binary formats; the format is sniffed from the magic bytes.
// The output defaults to PBM on stdout. With -stats, per-image
// engine statistics (iterations, rows differing) go to stderr; pass
// -engine lockstep for the systolic iteration counts the paper's
// evaluation is about. Without -engine the diff runs on the hybrid
// planner locally and on the server's default remotely.
//
// With -server the diff is computed remotely by a sysdiffd instance
// (or a cluster coordinator) through the typed v1 client; -ref names
// a registered reference in place of the first image argument, so the
// golden artwork is never re-uploaded.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"sysrle"
	"sysrle/internal/apiclient"
	"sysrle/internal/imageio"
	"sysrle/internal/rle"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "sysdiff:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("sysdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		engineName = fs.String("engine", "", "diff engine (default: planner locally, the server's default with -server): "+strings.Join(sysrle.EngineNames(), ", "))
		output     = fs.String("o", "", "output file (default stdout)")
		format     = fs.String("format", "pbm", fmt.Sprintf("output format: %v", imageio.Formats()))
		stats      = fs.Bool("stats", false, "print engine statistics to stderr")
		workers    = fs.Int("workers", 0, "row-parallel workers (0 = GOMAXPROCS)")
		serverURL  = fs.String("server", "", "compute the diff on this sysdiffd (or coordinator) instead of locally")
		refID      = fs.String("ref", "", "with -server: use this registered reference as the first image")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	wantArgs := 2
	if *refID != "" {
		if *serverURL == "" {
			return fmt.Errorf("-ref requires -server")
		}
		wantArgs = 1
	}
	if fs.NArg() != wantArgs {
		fs.Usage()
		return fmt.Errorf("expected %d image argument(s), got %d", wantArgs, fs.NArg())
	}

	var diff *rle.Image
	var st sysrle.ImageStats
	var engineUsed string
	if *serverURL != "" {
		res, err := remoteDiff(*serverURL, *engineName, *refID, fs.Args())
		if err != nil {
			return err
		}
		diff, st, engineUsed = res.Image, res.Stats, res.Engine
	} else {
		engine, err := sysrle.NewEngineByName(*engineName)
		if err != nil {
			return err
		}
		a, err := imageio.ReadFile(fs.Arg(0))
		if err != nil {
			return err
		}
		b, err := imageio.ReadFile(fs.Arg(1))
		if err != nil {
			return err
		}
		opts := []sysrle.Option{sysrle.WithWorkers(*workers)}
		if *engineName != "" {
			// Unset, DiffImage builds one planner per worker, so
			// -workers still parallelizes the default.
			opts = append(opts, sysrle.WithEngine(engine))
		}
		var stp *sysrle.ImageStats
		diff, stp, err = sysrle.DiffImage(a, b, opts...)
		if err != nil {
			return err
		}
		st, engineUsed = *stp, engine.Name()
	}
	if *stats {
		fmt.Fprintf(stderr, "engine=%s rows=%d differing=%d diff-runs=%d diff-pixels=%d\n",
			engineUsed, diff.Height, st.RowsDiffering, diff.RunCount(), diff.Area())
		fmt.Fprintf(stderr, "iterations: total=%d max-per-row=%d cells: total=%d max-per-row=%d\n",
			st.TotalIterations, st.MaxRowIterations, st.TotalCells, st.MaxRowCells)
	}
	w := stdout
	if *output != "" {
		f, err := os.Create(*output)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return imageio.Write(w, *format, diff)
}

// remoteDiff ships the diff to a sysdiffd or coordinator through the
// typed client. With a -ref id only the scan is uploaded. An empty
// engine name leaves the choice to the server.
func remoteDiff(serverURL, engineName, refID string, files []string) (*apiclient.DiffResult, error) {
	c, err := apiclient.New(serverURL, apiclient.Options{})
	if err != nil {
		return nil, err
	}
	req := apiclient.DiffRequest{RefID: refID, Engine: engineName}
	scanIdx := 0
	if refID == "" {
		if req.A, err = imageio.ReadFile(files[0]); err != nil {
			return nil, err
		}
		scanIdx = 1
	}
	if req.B, err = imageio.ReadFile(files[scanIdx]); err != nil {
		return nil, err
	}
	return c.Diff(context.Background(), req)
}
