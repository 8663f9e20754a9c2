package inspect

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math/rand"
	"testing"

	"sysrle/internal/rle"
	"sysrle/internal/workload"
)

// similarScan is ref ⊕ an error mask drawn row by row: about 1% of
// each row flipped in runs of 2–6 pixels, the §5 inspection regime
// the end-to-end benchmark's batch jobs use.
func similarScan(t testing.TB, rng *rand.Rand, ref *rle.Image) *rle.Image {
	t.Helper()
	ep := workload.CountForPixelFraction(ref.Width, 0.01, 2, 6)
	ep.Count = max(ep.Count, 1)
	scan := rle.NewImage(ref.Width, ref.Height)
	for y, row := range ref.Rows {
		mask, err := workload.ErrorMask(rng, ref.Width, ep)
		if err != nil {
			t.Fatal(err)
		}
		scan.Rows[y] = rle.XOR(row, mask)
	}
	return scan
}

// TestDefectListGolden pins the classified defect lists, byte for
// byte, over a seeded corpus: §5 similar 128² pairs (four scans of
// each of three references) and generated boards with injected
// defects at 400×300 and 800×600. Every label, box, area and shape
// descriptor goes into the hash, so any change to labelling or
// classification that alters one answer fails here.
func TestDefectListGolden(t *testing.T) {
	const want = "87420c31858d9bbfa23aea1308aba1ed9d9349bd20223da626c998a45c2540d1"
	h := sha256.New()
	types := map[string]int{}
	add := func(ref, scan *rle.Image, minArea int) {
		rep, err := (&Inspector{MinDefectArea: minArea}).Compare(ref, scan)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(rep.Defects)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(b)
		h.Write([]byte{'\n'})
		for _, d := range rep.Defects {
			types[d.Type]++
		}
	}
	rng := rand.New(rand.NewSource(25))
	for i := 0; i < 3; i++ {
		ref, err := workload.GenerateImage(rng, workload.PaperRow(128, 0.3), 128)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 4; j++ {
			add(ref, similarScan(t, rng, ref), 0)
		}
	}
	for _, size := range [][2]int{{400, 300}, {800, 600}} {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			layout, err := GenerateBoard(rng, DefaultBoard(size[0], size[1]))
			if err != nil {
				t.Fatal(err)
			}
			scan, _ := InjectDefects(rng, layout, 16)
			add(layout.Art.ToRLE(), scan.ToRLE(), 0)
			add(layout.Art.ToRLE(), scan.ToRLE(), 2)
		}
	}
	t.Logf("defect types: %v", types)
	if len(types) != 7 {
		t.Errorf("corpus yields %d of the 7 defect labels (%v); it must reach every classifier branch", len(types), types)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("defect lists hash to %s, want %s", got, want)
	}
}
