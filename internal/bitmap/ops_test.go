package bitmap

import (
	"math/rand"
	"testing"
)

func TestWordOpsAgainstPixelLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	type namedOp struct {
		name string
		op   func(a, b *Bitmap) (*Bitmap, error)
		ref  func(x, y bool) bool
	}
	ops := []namedOp{
		{"XOR", XOR, func(x, y bool) bool { return x != y }},
		{"AND", AND, func(x, y bool) bool { return x && y }},
		{"OR", OR, func(x, y bool) bool { return x || y }},
		{"AndNot", AndNot, func(x, y bool) bool { return x && !y }},
	}
	for trial := 0; trial < 20; trial++ {
		w, h := 1+rng.Intn(200), 1+rng.Intn(10)
		a := Random(rng, w, h, 0.4)
		b := Random(rng, w, h, 0.4)
		for _, op := range ops {
			got, err := op.op(a, b)
			if err != nil {
				t.Fatal(err)
			}
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					if got.Get(x, y) != op.ref(a.Get(x, y), b.Get(x, y)) {
						t.Fatalf("%s wrong at (%d,%d)", op.name, x, y)
					}
				}
			}
		}
	}
}

func TestOpsSizeMismatch(t *testing.T) {
	a, b := New(8, 8), New(8, 9)
	if _, err := XOR(a, b); err == nil {
		t.Error("XOR accepted size mismatch")
	}
}

func TestNotClearsPadding(t *testing.T) {
	b := New(70, 2) // 58 padding bits per row
	n := Not(b)
	if got := n.Popcount(); got != 140 {
		t.Errorf("Not popcount = %d, want 140 (padding leaked)", got)
	}
	if !Not(n).Equal(b) {
		t.Error("double complement differs")
	}
}

func TestXORPopcountIsHamming(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := Random(rng, 100, 10, 0.3)
	b := a.Clone()
	// Flip exactly 17 known pixels.
	flipped := 0
	for x := 0; x < 100 && flipped < 17; x += 6 {
		b.Set(x, x%10, !b.Get(x, x%10))
		flipped++
	}
	diff, err := XOR(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if got := diff.Popcount(); got != 17 {
		t.Errorf("XOR popcount = %d, want 17", got)
	}
}
