package bitmap

import "testing"

func TestFillRect(t *testing.T) {
	b := New(10, 10)
	b.FillRect(2, 3, 5, 6, true)
	for y := 0; y < 10; y++ {
		for x := 0; x < 10; x++ {
			want := x >= 2 && x <= 5 && y >= 3 && y <= 6
			if b.Get(x, y) != want {
				t.Fatalf("pixel (%d,%d) = %v", x, y, b.Get(x, y))
			}
		}
	}
	// Swapped corners draw the same rectangle.
	c := New(10, 10)
	c.FillRect(5, 6, 2, 3, true)
	if !b.Equal(c) {
		t.Error("FillRect not order-insensitive")
	}
}

func TestFillRectClips(t *testing.T) {
	b := New(4, 4)
	b.FillRect(-5, -5, 10, 10, true)
	if b.Popcount() != 16 {
		t.Errorf("clip fill popcount = %d", b.Popcount())
	}
}

func TestHLineVLineThickness(t *testing.T) {
	b := New(20, 20)
	b.HLine(2, 17, 10, 3, true)
	if b.Popcount() != 16*3 {
		t.Errorf("HLine popcount = %d, want 48", b.Popcount())
	}
	if !b.Get(2, 9) || !b.Get(2, 10) || !b.Get(2, 11) || b.Get(2, 8) || b.Get(2, 12) {
		t.Error("HLine thickness wrong")
	}
	c := New(20, 20)
	c.VLine(10, 2, 17, 3, true)
	if c.Popcount() != 16*3 {
		t.Errorf("VLine popcount = %d, want 48", c.Popcount())
	}
	// Zero thickness: no-op.
	d := New(8, 8)
	d.HLine(0, 7, 4, 0, true)
	d.VLine(4, 0, 7, 0, true)
	if d.Popcount() != 0 {
		t.Error("zero-thickness line drew pixels")
	}
}

func TestDisk(t *testing.T) {
	b := New(21, 21)
	b.Disk(10, 10, 5, true)
	if !b.Get(10, 10) || !b.Get(15, 10) || !b.Get(10, 5) {
		t.Error("disk missing interior/extremes")
	}
	if b.Get(15, 15) { // corner distance ~7.07 > 5
		t.Error("disk overreaches diagonal")
	}
	// Every set pixel within radius.
	for y := 0; y < 21; y++ {
		for x := 0; x < 21; x++ {
			if b.Get(x, y) {
				dx, dy := x-10, y-10
				if dx*dx+dy*dy > 25 {
					t.Fatalf("pixel (%d,%d) outside radius", x, y)
				}
			}
		}
	}
	// Radius 0 is a single pixel; negative radius is a no-op.
	c := New(5, 5)
	c.Disk(2, 2, 0, true)
	if c.Popcount() != 1 {
		t.Errorf("radius-0 disk popcount = %d", c.Popcount())
	}
	c.Disk(2, 2, -1, true)
	if c.Popcount() != 1 {
		t.Error("negative radius drew pixels")
	}
}

func TestLineEndpointsAndConnectivity(t *testing.T) {
	b := New(30, 30)
	b.Line(2, 3, 25, 17, true)
	if !b.Get(2, 3) || !b.Get(25, 17) {
		t.Error("line endpoints unset")
	}
	// Bresenham major-axis property: one pixel per column for a
	// shallow line.
	for x := 2; x <= 25; x++ {
		count := 0
		for y := 0; y < 30; y++ {
			if b.Get(x, y) {
				count++
			}
		}
		if count != 1 {
			t.Fatalf("column %d has %d pixels", x, count)
		}
	}
}
