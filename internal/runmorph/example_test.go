package runmorph_test

import (
	"fmt"

	"sysrle/internal/rle"
	"sysrle/internal/runmorph"
)

// Row-wise morphology operates directly on runs: dilation by two
// pixels each side merges the runs, erosion by the same shrinks the
// merged stretch back.
func ExampleAppendDilateRow() {
	row := rle.Row{{Start: 3, Length: 2}, {Start: 8, Length: 1}}
	dilated := runmorph.AppendDilateRow(nil, row, 2, 2, 16)
	fmt.Println(dilated)
	fmt.Println(runmorph.AppendErodeRow(nil, dilated, 2, 2))
	// Output:
	// [(1,10)]
	// [(3,6)]
}
