package main

import (
	"math"
	"testing"
)

func TestSupportedTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestSummarize(t *testing.T) {
	vals := make([]float64, 1000)
	for i := range vals {
		vals[i] = float64(1000 - i) // 1..1000, reversed
	}
	s := summarize(vals, 99)
	if s.N != 1000 || s.TailP != 99 {
		t.Fatalf("n=%d tail p%g, want n=1000 p99", s.N, s.TailP)
	}
	if math.Abs(s.P50-500.5) > 1e-9 || math.Abs(s.Tail-990.01) > 1e-9 || s.Max != 1000 {
		t.Fatalf("p50 %g p99 %g max %g", s.P50, s.Tail, s.Max)
	}

	// 999 samples cannot support p99: the summary falls back to p90 and
	// says so.
	s = summarize(vals[:999], 99)
	if s.TailP != 90 {
		t.Fatalf("999 samples: tail p%g, want p90", s.TailP)
	}
	if got := s.label(); got != "p90 (n=999; p99 needs 1000 samples)" {
		t.Fatalf("label %q", got)
	}
	if s = summarize(nil, 99); s.N != 0 || s.TailP != 0 {
		t.Fatalf("empty summary %+v", s)
	}
}

func TestPercentileInterpolates(t *testing.T) {
	sorted := []float64{10, 20, 30, 40}
	for _, c := range []struct{ p, want float64 }{{0, 10}, {50, 25}, {100, 40}, {25, 17.5}} {
		if got := percentile(sorted, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
}
