package sysrle_test

import (
	"fmt"

	"sysrle"
)

// The paper's Figure 1: the difference of two RLE-encoded rows,
// computed by the systolic engine without decompressing.
func ExampleDiff() {
	img1 := sysrle.Row{{Start: 10, Length: 3}, {Start: 16, Length: 2}, {Start: 23, Length: 2}, {Start: 27, Length: 3}}
	img2 := sysrle.Row{{Start: 3, Length: 4}, {Start: 8, Length: 5}, {Start: 15, Length: 5}, {Start: 23, Length: 2}, {Start: 27, Length: 4}}
	diff, err := sysrle.Diff(img1, img2)
	if err != nil {
		panic(err)
	}
	fmt.Println(diff)
	// Output: [(3,4) (8,2) (15,1) (18,2) (30,1)]
}

// Engines expose the paper's figure of merit: the iteration count.
// The systolic engine's cost tracks how much the rows differ; the
// sequential baseline pays for every run.
func ExampleEngine() {
	a := sysrle.Row{{Start: 0, Length: 4}, {Start: 10, Length: 4}, {Start: 20, Length: 4}, {Start: 30, Length: 4}}
	b := sysrle.Row{{Start: 0, Length: 4}, {Start: 10, Length: 4}, {Start: 20, Length: 4}, {Start: 31, Length: 3}}
	for _, engine := range []sysrle.Engine{sysrle.NewLockstep(), sysrle.NewSequential()} {
		res, err := engine.XORRow(a, b)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%s: %d iterations\n", engine.Name(), res.Iterations)
	}
	// Output:
	// systolic-lockstep: 1 iterations
	// sequential: 4 iterations
}

// Whole images diff row by row, fanned across workers; the stats
// report the systolic critical path.
func ExampleDiffImage() {
	a := sysrle.NewImage(16, 2)
	b := sysrle.NewImage(16, 2)
	a.SetRow(0, sysrle.Row{{Start: 2, Length: 4}})
	b.SetRow(0, sysrle.Row{{Start: 2, Length: 4}})
	b.SetRow(1, sysrle.Row{{Start: 8, Length: 3}})
	diff, stats, err := sysrle.DiffImage(a, b)
	if err != nil {
		panic(err)
	}
	fmt.Println(diff.Rows[0], diff.Rows[1], stats.RowsDiffering)
	// Output: [] [(8,3)] 1
}

// Encode and Decode convert between bitstrings and runs.
func ExampleEncode() {
	row := sysrle.Encode([]bool{false, true, true, true, false, false, true, false})
	fmt.Println(row)
	bits := sysrle.Decode(row, 8)
	fmt.Println(bits[1], bits[4], bits[6])
	// Output:
	// [(1,3) (6,1)]
	// true false true
}

// Morphology operates directly on the compressed form.
func ExampleDilate() {
	img := sysrle.NewImage(12, 3)
	img.SetRow(1, sysrle.Row{{Start: 4, Length: 2}})
	out, err := sysrle.Dilate(img, sysrle.Box(1))
	if err != nil {
		panic(err)
	}
	for _, row := range out.Rows {
		fmt.Println(row)
	}
	// Output:
	// [(3,4)]
	// [(3,4)]
	// [(3,4)]
}

// Opening removes foreground detail smaller than the structuring
// element: here a lone speck next to a solid 3-row bar.
func ExampleOpen() {
	img := sysrle.NewImage(12, 3)
	img.SetRow(0, sysrle.Row{{Start: 1, Length: 6}, {Start: 9, Length: 1}}) // bar + speck
	img.SetRow(1, sysrle.Row{{Start: 1, Length: 6}})
	img.SetRow(2, sysrle.Row{{Start: 1, Length: 6}})
	opened, err := sysrle.Open(img, sysrle.Box(1))
	if err != nil {
		panic(err)
	}
	fmt.Println(opened.Rows[0])
	fmt.Println(opened.Rows[1])
	// Output:
	// [(1,6)]
	// [(1,6)]
}
