// Command docclean runs the scanned-document cleanup pipeline on one
// page: despeckle, ruled-line extraction and block segmentation, all
// in the compressed (run-length) domain.
//
//	docclean -in page.pbm                      # JSON report to stdout
//	docclean -in page.pbm -o clean.pbm         # also write the cleaned page
//	docclean -gen a4 -seed 7 -o clean.png      # synthetic A4 test page
//	docclean -in page.pbm -server http://host:8422   # clean remotely
//
// Tuning flags mirror the /v1/docclean query parameters; flags left
// at 0 default from the page size inside the pipeline. With -server
// the pipeline runs on a sysdiffd instance (or cluster coordinator)
// through the typed v1 client; the JSON report prints the same way,
// but -o is unavailable remotely (the report endpoint returns no
// cleaned image).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	"sysrle/internal/apiclient"
	"sysrle/internal/docclean"
	"sysrle/internal/imageio"
	"sysrle/internal/rle"
	"sysrle/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "docclean:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("docclean", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		in         = fs.String("in", "", "input page (pbm, png, rlet, rleb; sniffed)")
		gen        = fs.String("gen", "", `generate a synthetic page instead of reading one: "a4"`)
		seed       = fs.Int64("seed", 1, "RNG seed for -gen")
		output     = fs.String("o", "", "write the cleaned page here (format from -format)")
		format     = fs.String("format", "pbm", fmt.Sprintf("cleaned-page format: %v", imageio.Formats()))
		maxSpeckle = fs.Int("max-speckle", 0, "remove components with at most this many pixels (0 = auto)")
		minLine    = fs.Int("min-line", 0, "extract straight lines at least this long (0 = auto)")
		closeX     = fs.Int("close-x", 0, "segmentation closing width (0 = auto)")
		closeY     = fs.Int("close-y", 0, "segmentation closing height (0 = auto)")
		minBlock   = fs.Int("min-block", 0, "report blocks of at least this area (0 = auto)")
		keepLines  = fs.Bool("keep-lines", false, "keep extracted ruled lines in the cleaned page")
		server     = fs.String("server", "", "run the pipeline on this sysdiffd (or coordinator) instead of locally")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if (*in == "") == (*gen == "") {
		return fmt.Errorf("exactly one of -in and -gen is required")
	}
	if *server != "" && *output != "" {
		return fmt.Errorf("-o is unavailable with -server: the remote report mode returns no cleaned image")
	}

	var img *rle.Image
	var err error
	switch {
	case *in != "":
		if img, err = imageio.ReadFile(*in); err != nil {
			return err
		}
	case *gen == "a4":
		rng := rand.New(rand.NewSource(*seed))
		if img, err = workload.GenerateDocument(rng, workload.A4Doc()); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown -gen %q (have a4)", *gen)
	}

	cfg := docclean.Config{
		MaxSpeckleArea: *maxSpeckle,
		MinLineLen:     *minLine,
		CloseGapX:      *closeX,
		CloseGapY:      *closeY,
		MinBlockArea:   *minBlock,
		KeepLines:      *keepLines,
	}
	var res *docclean.Result
	if *server != "" {
		c, err := apiclient.New(*server, apiclient.Options{})
		if err != nil {
			return err
		}
		if res, err = c.DocClean(context.Background(), apiclient.DocCleanRequest{Image: img, Config: cfg}); err != nil {
			return err
		}
	} else {
		if res, err = docclean.Clean(context.Background(), img, cfg); err != nil {
			return err
		}
		if *output != "" {
			f, err := os.Create(*output)
			if err != nil {
				return err
			}
			if err := imageio.Write(f, *format, res.Cleaned); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
	}

	if res.Blocks == nil {
		res.Blocks = []docclean.Block{}
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(res)
}
