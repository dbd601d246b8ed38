package metrics

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestEmptyDist(t *testing.T) {
	var d Dist
	if d.N() != 0 || d.Mean() != 0 || d.Percentile(50) != 0 || d.Max() != 0 {
		t.Fatal("empty distribution must report zeros")
	}
	if d.CDF(10) != nil {
		t.Fatal("empty CDF must be nil")
	}
}

func TestPercentiles(t *testing.T) {
	var d Dist
	for i := 1; i <= 100; i++ {
		d.Add(float64(i))
	}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {100, 100}, {50, 50.5},
	}
	for _, c := range cases {
		if got := d.Percentile(c.p); got != c.want {
			t.Fatalf("P%v = %v, want %v", c.p, got, c.want)
		}
	}
	if d.Median() != d.Percentile(50) {
		t.Fatal("Median != P50")
	}
	if d.Min() != 1 || d.Max() != 100 {
		t.Fatalf("min/max = %v/%v", d.Min(), d.Max())
	}
}

func TestMean(t *testing.T) {
	var d Dist
	d.Add(2)
	d.Add(4)
	d.Add(6)
	if d.Mean() != 4 {
		t.Fatalf("mean = %v, want 4", d.Mean())
	}
}

func TestAddDuration(t *testing.T) {
	var d Dist
	d.AddDuration(1500 * time.Millisecond)
	if d.Max() != 1.5 {
		t.Fatalf("duration sample = %v, want 1.5", d.Max())
	}
}

func TestBoxOrdering(t *testing.T) {
	var d Dist
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		d.Add(rng.Float64() * 100)
	}
	b := d.Box()
	if !(b.P1 <= b.P25 && b.P25 <= b.P50 && b.P50 <= b.P75 && b.P75 <= b.P99 && b.P99 <= b.Max) {
		t.Fatalf("box quantiles out of order: %+v", b)
	}
	if b.String() == "" {
		t.Fatal("empty box string")
	}
}

func TestCDFMonotone(t *testing.T) {
	var d Dist
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		d.Add(rng.NormFloat64())
	}
	cdf := d.CDF(20)
	if len(cdf) != 20 {
		t.Fatalf("CDF points = %d, want 20", len(cdf))
	}
	for i := 1; i < len(cdf); i++ {
		if cdf[i].Value < cdf[i-1].Value || cdf[i].Fraction <= cdf[i-1].Fraction {
			t.Fatal("CDF not monotone")
		}
	}
	if cdf[len(cdf)-1].Fraction != 1 {
		t.Fatal("CDF does not reach 1")
	}
}

func TestAddAfterQueryResorts(t *testing.T) {
	var d Dist
	d.Add(5)
	_ = d.Median()
	d.Add(1) // must trigger a re-sort on next query
	if d.Min() != 1 {
		t.Fatalf("min = %v after late insert, want 1", d.Min())
	}
}

func TestQuickPercentileBounds(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var d Dist
		n := 1 + rng.Intn(200)
		for i := 0; i < n; i++ {
			d.Add(rng.Float64()*2000 - 1000)
		}
		for p := 0.0; p <= 100; p += 7 {
			v := d.Percentile(p)
			if v < d.Min() || v > d.Max() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSparkline(t *testing.T) {
	var d Dist
	for i := 0; i < 100; i++ {
		d.Add(float64(i))
	}
	if s := d.Sparkline(16); len([]rune(s)) != 16 {
		t.Fatalf("sparkline width = %d, want 16", len([]rune(s)))
	}
	var empty Dist
	if empty.Sparkline(8) != "" {
		t.Fatal("empty sparkline should be empty string")
	}
}

func TestDistClone(t *testing.T) {
	var d Dist
	d.Add(1)
	d.Add(2)
	c := d.Clone()
	c.Add(99)
	if d.N() != 2 || c.N() != 3 {
		t.Fatalf("clone not independent: %d/%d samples", d.N(), c.N())
	}
	if c.Max() != 99 || d.Max() != 2 {
		t.Fatalf("clone values wrong: max %v/%v", c.Max(), d.Max())
	}
}
