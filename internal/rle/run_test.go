package rle

import "testing"

func TestRunEnd(t *testing.T) {
	cases := []struct {
		run  Run
		end  int
		desc string
	}{
		{Run{Start: 10, Length: 3}, 12, "paper fig.1 first run of img1"},
		{Run{Start: 0, Length: 1}, 0, "single pixel at origin"},
		{Run{Start: 5, Length: 1}, 5, "single pixel"},
	}
	for _, c := range cases {
		if got := c.run.End(); got != c.end {
			t.Errorf("%s: %v.End() = %d, want %d", c.desc, c.run, got, c.end)
		}
	}
}

func TestSpanRoundTrip(t *testing.T) {
	for start := 0; start < 20; start++ {
		for end := start; end < 25; end++ {
			r := Span(start, end)
			if r.Start != start || r.End() != end {
				t.Fatalf("Span(%d,%d) = %v (end %d)", start, end, r, r.End())
			}
		}
	}
}

func TestSpanPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Span(5,4) did not panic")
		}
	}()
	Span(5, 4)
}

func TestRunContains(t *testing.T) {
	r := Run{Start: 10, Length: 3} // pixels 10,11,12
	for i := 0; i < 20; i++ {
		want := i >= 10 && i <= 12
		if got := r.Contains(i); got != want {
			t.Errorf("Contains(%d) = %v, want %v", i, got, want)
		}
	}
}

func TestRunValid(t *testing.T) {
	cases := []struct {
		r    Run
		want bool
	}{
		{Run{0, 1}, true},
		{Run{10, 3}, true},
		{Run{-1, 3}, false},
		{Run{0, 0}, false},
		{Run{5, -2}, false},
	}
	for _, c := range cases {
		if got := c.r.Valid(); got != c.want {
			t.Errorf("%v.Valid() = %v, want %v", c.r, got, c.want)
		}
	}
}

func TestRunString(t *testing.T) {
	if got := (Run{Start: 10, Length: 3}).String(); got != "(10,3)" {
		t.Errorf("String() = %q, want (10,3)", got)
	}
}
