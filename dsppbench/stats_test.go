package main

import "testing"

func ascending(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(i + 1)
	}
	return s
}

func TestNearestRank(t *testing.T) {
	cases := []struct {
		n, pct int
		want   float64
	}{
		{1000, 99, 990},
		{1000, 50, 500},
		{101, 50, 51},
		{100, 90, 90},
		{120, 90, 108},
		{1001, 99, 991}, // ⌈990.99⌉ = 991
		{20, 50, 10},
	}
	for _, c := range cases {
		got, err := nearestRank(ascending(c.n), c.pct)
		if err != nil {
			t.Fatalf("p%d of %d: %v", c.pct, c.n, err)
		}
		if got != c.want {
			t.Errorf("p%d of %d = %g, want %g", c.pct, c.n, got, c.want)
		}
	}
}

func TestNearestRankTenBeyond(t *testing.T) {
	// p99 needs ten samples past rank ⌈0.99n⌉: 1000 is the first size
	// that has them, 999 leaves only nine.
	if _, err := nearestRank(ascending(1000), 99); err != nil {
		t.Fatalf("p99 of 1000: %v", err)
	}
	if _, err := nearestRank(ascending(999), 99); err == nil {
		t.Fatal("p99 of 999 accepted with 9 samples beyond it")
	}
	if _, err := nearestRank(ascending(99), 90); err == nil {
		t.Fatal("p90 of 99 accepted with 9 samples beyond it")
	}
	if _, err := nearestRank(ascending(100), 90); err != nil {
		t.Fatalf("p90 of 100: %v", err)
	}
	for _, c := range []struct{ pct, want int }{{99, 1000}, {90, 100}, {50, 20}} {
		if got := minSamples(c.pct); got != c.want {
			t.Errorf("minSamples(%d) = %d, want %d", c.pct, got, c.want)
		}
	}
}

func TestBlockPercentile(t *testing.T) {
	// Three blocks of 1000: a burst that fills one block's tail moves
	// that block's p99, not the median of the three.
	sample := make([]float64, 3000)
	for i := range sample {
		sample[i] = float64(i%1000 + 1)
	}
	for i := 1000; i < 1100; i++ {
		sample[i] = 1e6
	}
	got, blocks, err := blockPercentile(sample, 99)
	if err != nil || blocks != 3 || got != 990 {
		t.Errorf("burst: p99 %g over %d blocks (%v), want 990 over 3", got, blocks, err)
	}
	// 2500 samples make two blocks of 1250; the lower median is taken.
	got, blocks, err = blockPercentile(ascending(2500), 99)
	if err != nil || blocks != 2 || got != 1238 {
		t.Errorf("two blocks: p99 %g over %d blocks (%v), want 1238 over 2", got, blocks, err)
	}
	// 120 samples at p90 are one block: the plain nearest-rank p90.
	got, blocks, err = blockPercentile(ascending(120), 90)
	if err != nil || blocks != 1 || got != 108 {
		t.Errorf("one block: p90 %g over %d blocks (%v), want 108 over 1", got, blocks, err)
	}
	if _, _, err := blockPercentile(ascending(999), 99); err == nil {
		t.Error("999 samples accepted for p99")
	}
}

func TestSelfTime(t *testing.T) {
	parent := interval{100, 200}
	cases := []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{110, 120}, {150, 170}}, 70},
		{"overlapping workers", []interval{{110, 150}, {120, 160}, {130, 140}}, 50},
		{"nested", []interval{{110, 190}, {120, 130}}, 20},
		{"touching", []interval{{110, 120}, {120, 130}}, 80},
		{"starts before parent", []interval{{50, 130}}, 70},
		{"ends after parent", []interval{{180, 260}}, 80},
		{"wholly outside", []interval{{0, 90}, {210, 300}}, 100},
		{"covers parent", []interval{{0, 300}}, 0},
		{"unsorted mix", []interval{{170, 230}, {105, 115}, {110, 125}, {60, 101}}, 49},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self %d, want %d", c.name, got, c.want)
		}
	}
}
