package inspect

import (
	"cmp"
	"slices"

	"sysrle/internal/rle"
)

// Run-based connected-component labeling: the classic two-pass
// algorithm operating directly on RLE rows (runs are the primitives,
// so cost scales with run count, not pixels). 8-connectivity, which
// is what defect blobs in a difference image call for.

// Component is one connected foreground component of an RLE image.
type Component struct {
	// Label is a dense id, 0..n-1, in scan order of the component's
	// first run.
	Label int
	// Area is the pixel count.
	Area int
	// X0, Y0, X1, Y1 is the inclusive bounding box.
	X0, Y0, X1, Y1 int
	// Runs holds the member runs as (row, run) pairs.
	Runs []LabeledRun
}

// LabeledRun ties a run to its row.
type LabeledRun struct {
	Y   int
	Run rle.Run
}

// labeler is run-based labelling scratch reused from one image to
// the next: runs get flat ids in scan order (row y's runs are
// first[y]…first[y+1]-1) and a union-find over those ids.
type labeler struct {
	first, parent, label []int
}

// run labels img's runs and returns the component count; afterwards
// label[id] is run id's component, numbered in order of each
// component's first run in scan order.
func (l *labeler) run(img *rle.Image) int {
	l.first = append(slices.Grow(l.first[:0], len(img.Rows)+1), 0)
	for _, row := range img.Rows {
		l.first = append(l.first, l.first[len(l.first)-1]+len(row))
	}
	n := l.first[len(img.Rows)]
	l.parent = slices.Grow(l.parent[:0], n)
	for id := 0; id < n; id++ {
		l.parent = append(l.parent, id)
	}
	for y := 1; y < len(img.Rows); y++ {
		prev := img.Rows[y-1]
		// Merge runs that touch a run in the previous row. With
		// 8-connectivity, run [s,e] touches previous-row run
		// [s',e'] iff s' ≤ e+1 and e' ≥ s-1. Both rows are sorted,
		// so sweep with two indices.
		j := 0
		for i, r := range img.Rows[y] {
			for j < len(prev) && prev[j].End() < r.Start-1 {
				j++
			}
			for k := j; k < len(prev) && prev[k].Start <= r.End()+1; k++ {
				l.union(l.first[y]+i, l.first[y-1]+k)
			}
		}
	}
	l.label = slices.Grow(l.label[:0], n)
	count := 0
	for id := 0; id < n; id++ {
		if root := l.find(id); root < id {
			l.label = append(l.label, l.label[root])
		} else {
			l.label = append(l.label, count)
			count++
		}
	}
	return count
}

// find returns x's root, halving the path on the way.
func (l *labeler) find(x int) int {
	p := l.parent
	for p[x] != x {
		p[x] = p[p[x]]
		x = p[x]
	}
	return x
}

// union joins two sets under the smaller root, so that every root is
// its set's first run in scan order.
func (l *labeler) union(a, b int) {
	ra, rb := l.find(a), l.find(b)
	if ra > rb {
		ra, rb = rb, ra
	}
	l.parent[rb] = ra
}

// Components labels the image's connected components
// (8-connectivity) and returns them sorted by first appearance (top
// to bottom, left to right).
func Components(img *rle.Image) []Component {
	var l labeler
	comps := make([]Component, l.run(img))
	// Label counts each component's runs until the labels are dealt.
	for y, row := range img.Rows {
		for i, r := range row {
			c := &comps[l.label[l.first[y]+i]]
			if c.Label == 0 {
				c.X0, c.Y0, c.X1 = r.Start, y, r.End()
			}
			c.Label++
			c.Area += r.Length
			c.X0, c.X1, c.Y1 = min(c.X0, r.Start), max(c.X1, r.End()), y
		}
	}
	// Every component's runs share one backing array, each slice
	// capacity-clipped so appending to one never clobbers the next.
	runs := make([]LabeledRun, l.first[len(img.Rows)])
	for k := range comps {
		comps[k].Runs, runs = runs[:0:comps[k].Label], runs[comps[k].Label:]
	}
	for y, row := range img.Rows {
		for i, r := range row {
			c := &comps[l.label[l.first[y]+i]]
			c.Runs = append(c.Runs, LabeledRun{Y: y, Run: r})
		}
	}
	slices.SortFunc(comps, func(a, b Component) int {
		return cmp.Or(cmp.Compare(a.Y0, b.Y0), cmp.Compare(a.X0, b.X0))
	})
	for i := range comps {
		comps[i].Label = i
	}
	return comps
}
