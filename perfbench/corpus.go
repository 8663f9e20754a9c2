package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"mime/multipart"

	"sysrle"
	"sysrle/internal/imageio"
	"sysrle/internal/inspect"
	"sysrle/internal/refstore"
	"sysrle/internal/rle"
	"sysrle/internal/workload"
)

// The paper's §5 input model: rows at foreground density 0.3 with runs
// of length 4–20. A similar scan is its reference with error runs of
// length 2–6 flipped, about 1% of each row; a random pair is two
// independent draws.
const (
	density   = 0.3
	errorFrac = 0.01
)

// boundary is fixed so one seed always yields byte-identical bodies.
const boundary = "perfbench-3f9a1c07d2e84b6b95a0c1d2e3f4a5b6"

type opKind int

const (
	opDiff opKind = iota
	opWrite
	opJob
)

// op is one /v1 request, encoded once at set-up, with the answer the
// service must give.
type op struct {
	kind  opKind
	path  string // path and query
	ctype string
	body  []byte
	refID string // the stored reference the request names, if any
	// want is the canonical RLEB of the expected difference (opDiff).
	want []byte
	// wantID is the content id a reference write must return (opWrite).
	wantID string
	// wantScans are a job's expected per-scan verdicts, in scan order.
	wantScans []scanWant
}

type scanWant struct {
	diffPixels, defects int
	clean               bool
}

// corpus is one workload's inputs: the references registered at
// set-up, the read requests the stream draws from, and fresh images
// for reference writes.
type corpus struct {
	refs   []*rle.Image
	refIDs []string
	reads  []*op
	writes []*op
	regime regime
}

// regime records where a corpus sits in the paper's §5 cost model:
// systolic work tracks the run-count difference on similar images and
// the total run count on random ones.
type regime struct {
	DiffPixelFraction float64 `json:"diff_pixel_fraction"`
	InputRunsPerRow   float64 `json:"input_runs_per_row"`
	DiffRunsPerRow    float64 `json:"diff_runs_per_row"`
	Pairs             int     `json:"pairs"`
}

func (g *regime) add(a, b *rle.Image, diffArea, diffRuns int) {
	rows := float64(a.Height)
	g.DiffPixelFraction += float64(diffArea) / (float64(a.Width) * rows)
	g.InputRunsPerRow += float64(a.RunCount()+b.RunCount()) / (2 * rows)
	g.DiffRunsPerRow += float64(diffRuns) / rows
	g.Pairs++
}

func (g *regime) finish() {
	if g.Pairs == 0 {
		return
	}
	n := float64(g.Pairs)
	g.DiffPixelFraction /= n
	g.InputRunsPerRow /= n
	g.DiffRunsPerRow /= n
}

func paperImage(rng *rand.Rand, side int) (*rle.Image, error) {
	return workload.GenerateImage(rng, workload.PaperRow(side, density), side)
}

// similarScan is ref ⊕ an error mask drawn row by row: the paper's
// inspection regime, not an independent draw.
func similarScan(rng *rand.Rand, ref *rle.Image) (*rle.Image, error) {
	ep := workload.CountForPixelFraction(ref.Width, errorFrac, 2, 6)
	ep.Count = max(ep.Count, 1)
	scan := rle.NewImage(ref.Width, ref.Height)
	for y, row := range ref.Rows {
		mask, err := workload.ErrorMask(rng, ref.Width, ep)
		if err != nil {
			return nil, err
		}
		scan.Rows[y] = rle.XOR(row, mask)
	}
	return scan, nil
}

type filePart struct {
	field string
	img   *rle.Image
}

// multipartBody encodes images as canonical RLEB file parts, the way
// apiclient uploads them.
func multipartBody(parts ...filePart) ([]byte, string, error) {
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	if err := mw.SetBoundary(boundary); err != nil {
		return nil, "", err
	}
	for i, p := range parts {
		fw, err := mw.CreateFormFile(p.field, fmt.Sprintf("%s-%d.rleb", p.field, i))
		if err != nil {
			return nil, "", err
		}
		if err := imageio.Write(fw, "rleb", p.img); err != nil {
			return nil, "", fmt.Errorf("encoding %s: %w", p.field, err)
		}
	}
	if err := mw.Close(); err != nil {
		return nil, "", err
	}
	return buf.Bytes(), mw.FormDataContentType(), nil
}

// diffOp builds a /v1/diff request whose expected answer is the §2
// sequential merge of a and b in canonical RLEB. With refID set, a is
// the stored reference and only b is uploaded.
func diffOp(refID string, a, b *rle.Image, g *regime) (*op, error) {
	diff, _, err := sysrle.DiffImage(a, b, sysrle.WithEngine(sysrle.NewSequential()))
	if err != nil {
		return nil, fmt.Errorf("expected answer: %w", err)
	}
	var want bytes.Buffer
	if err := imageio.Write(&want, "rleb", diff); err != nil {
		return nil, err
	}
	g.add(a, b, diff.Area(), diff.RunCount())
	o := &op{kind: opDiff, refID: refID, want: want.Bytes(), path: "/v1/diff?format=rleb"}
	if refID != "" {
		o.path += "&ref=" + refID
		o.body, o.ctype, err = multipartBody(filePart{"b", b})
	} else {
		o.body, o.ctype, err = multipartBody(filePart{"a", a}, filePart{"b", b})
	}
	return o, err
}

// freshWrites derives n distinct images from bases by flipping one
// pixel each, so every reference write registers new content
// (re-registering known content takes a cheaper de-duplicated path).
func freshWrites(bases []*rle.Image, n int) ([]*op, error) {
	flip := rle.Row{{Start: 0, Length: 1}}
	out := make([]*op, 0, n)
	for i := 0; i < n; i++ {
		base := bases[i%len(bases)]
		img := &rle.Image{Width: base.Width, Height: base.Height, Rows: append([]rle.Row(nil), base.Rows...)}
		y := (i / len(bases)) % base.Height
		img.Rows[y] = rle.XOR(base.Rows[y], flip)
		id, err := refstore.ContentID(img)
		if err != nil {
			return nil, err
		}
		body, ctype, err := multipartBody(filePart{"image", img})
		if err != nil {
			return nil, err
		}
		out = append(out, &op{kind: opWrite, path: "/v1/references", ctype: ctype, body: body, wantID: id})
	}
	return out, nil
}

// addRefs draws n references and records their content ids.
func (c *corpus) addRefs(rng *rand.Rand, n, side int) error {
	for i := 0; i < n; i++ {
		ref, err := paperImage(rng, side)
		if err != nil {
			return err
		}
		id, err := refstore.ContentID(ref)
		if err != nil {
			return err
		}
		c.refs = append(c.refs, ref)
		c.refIDs = append(c.refIDs, id)
	}
	return nil
}

// refSimilar: refs references of side², perRef similar scans of each,
// diffed by reference id.
func refSimilar(rng *rand.Rand, side, refs, perRef, writes int) (*corpus, error) {
	c := &corpus{}
	if err := c.addRefs(rng, refs, side); err != nil {
		return nil, err
	}
	for i, ref := range c.refs {
		for j := 0; j < perRef; j++ {
			scan, err := similarScan(rng, ref)
			if err != nil {
				return nil, err
			}
			o, err := diffOp(c.refIDs[i], ref, scan, &c.regime)
			if err != nil {
				return nil, err
			}
			c.reads = append(c.reads, o)
		}
	}
	var err error
	c.writes, err = freshWrites(c.refs, writes)
	c.regime.finish()
	return c, err
}

// uploadRandom: pairs of independent side² draws, both uploaded inline.
func uploadRandom(rng *rand.Rand, side, pairs int) (*corpus, error) {
	c := &corpus{}
	for i := 0; i < pairs; i++ {
		a, err := paperImage(rng, side)
		if err != nil {
			return nil, err
		}
		b, err := paperImage(rng, side)
		if err != nil {
			return nil, err
		}
		o, err := diffOp("", a, b, &c.regime)
		if err != nil {
			return nil, err
		}
		c.reads = append(c.reads, o)
	}
	c.regime.finish()
	return c, nil
}

// batchJobs: refs stored references of side², and jobs batch jobs of
// perJob similar scans each against them. Expected verdicts come from
// an inspector on the §2 sequential engine.
func batchJobs(rng *rand.Rand, side, refs, jobs, perJob int) (*corpus, error) {
	c := &corpus{}
	if err := c.addRefs(rng, refs, side); err != nil {
		return nil, err
	}
	ins := &inspect.Inspector{Engine: sysrle.NewSequential(), Workers: 1}
	for j := 0; j < jobs; j++ {
		r := j % refs
		ref := c.refs[r]
		o := &op{kind: opJob, refID: c.refIDs[r], path: "/v1/jobs?ref=" + c.refIDs[r]}
		parts := make([]filePart, 0, perJob)
		for k := 0; k < perJob; k++ {
			scan, err := similarScan(rng, ref)
			if err != nil {
				return nil, err
			}
			rep, err := ins.Compare(ref, scan)
			if err != nil {
				return nil, fmt.Errorf("expected verdict: %w", err)
			}
			c.regime.add(ref, scan, rep.DiffArea, rep.DiffRuns)
			o.wantScans = append(o.wantScans, scanWant{diffPixels: rep.DiffArea, defects: len(rep.Defects), clean: rep.Clean()})
			parts = append(parts, filePart{"scan", scan})
		}
		var err error
		if o.body, o.ctype, err = multipartBody(parts...); err != nil {
			return nil, err
		}
		c.reads = append(c.reads, o)
	}
	c.regime.finish()
	return c, nil
}
