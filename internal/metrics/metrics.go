// Package metrics provides the percentile and CDF summaries the evaluation
// harness reports (paper §7 plots percentile boxes, CDFs, and averages),
// plus the bounded, concurrency-safe accumulators the serving layer
// publishes its per-round statistics through (Hist, Window).
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Dist accumulates a sample distribution.
type Dist struct {
	vals   []float64
	sorted bool
}

// Add appends a sample.
func (d *Dist) Add(v float64) {
	d.vals = append(d.vals, v)
	d.sorted = false
}

// AddDuration appends a duration sample in seconds.
func (d *Dist) AddDuration(v time.Duration) { d.Add(v.Seconds()) }

// N returns the sample count.
func (d *Dist) N() int { return len(d.vals) }

// Mean returns the arithmetic mean (0 for empty distributions).
func (d *Dist) Mean() float64 {
	if len(d.vals) == 0 {
		return 0
	}
	var s float64
	for _, v := range d.vals {
		s += v
	}
	return s / float64(len(d.vals))
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) using
// nearest-rank interpolation; 0 for empty distributions.
func (d *Dist) Percentile(p float64) float64 {
	if len(d.vals) == 0 {
		return 0
	}
	d.ensureSorted()
	if p <= 0 {
		return d.vals[0]
	}
	if p >= 100 {
		return d.vals[len(d.vals)-1]
	}
	rank := p / 100 * float64(len(d.vals)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return d.vals[lo]
	}
	frac := rank - float64(lo)
	return d.vals[lo]*(1-frac) + d.vals[hi]*frac
}

// Min returns the smallest sample.
func (d *Dist) Min() float64 { return d.Percentile(0) }

// Max returns the largest sample.
func (d *Dist) Max() float64 { return d.Percentile(100) }

// Median returns the 50th percentile.
func (d *Dist) Median() float64 { return d.Percentile(50) }

// CDF returns n evenly spaced (value, cumulative fraction) points, suitable
// for plotting the paper's CDF figures.
func (d *Dist) CDF(n int) []CDFPoint {
	if len(d.vals) == 0 || n <= 0 {
		return nil
	}
	d.ensureSorted()
	out := make([]CDFPoint, 0, n)
	for i := 1; i <= n; i++ {
		idx := (len(d.vals)*i)/n - 1
		if idx < 0 {
			idx = 0
		}
		out = append(out, CDFPoint{Value: d.vals[idx], Fraction: float64(i) / float64(n)})
	}
	return out
}

// CDFPoint is one point of an empirical CDF.
type CDFPoint struct {
	Value    float64
	Fraction float64
}

// Box returns the five-number summary the paper's box plots use: 1st, 25th,
// 50th, 75th and 99th percentiles (paper Fig. 3), plus the maximum.
func (d *Dist) Box() BoxStats {
	return BoxStats{
		P1:  d.Percentile(1),
		P25: d.Percentile(25),
		P50: d.Percentile(50),
		P75: d.Percentile(75),
		P99: d.Percentile(99),
		Max: d.Max(),
	}
}

// BoxStats is a box-plot summary.
type BoxStats struct {
	P1, P25, P50, P75, P99, Max float64
}

// String formats the box as seconds with millisecond precision.
func (b BoxStats) String() string {
	return fmt.Sprintf("p1=%.3fs p25=%.3fs p50=%.3fs p75=%.3fs p99=%.3fs max=%.3fs",
		b.P1, b.P25, b.P50, b.P75, b.P99, b.Max)
}

func (d *Dist) ensureSorted() {
	if !d.sorted {
		sort.Float64s(d.vals)
		d.sorted = true
	}
}

// Values returns the (sorted) raw samples. The slice must not be modified.
func (d *Dist) Values() []float64 {
	d.ensureSorted()
	return d.vals
}

// Clone returns an independent deep copy of the distribution.
func (d *Dist) Clone() *Dist {
	return &Dist{vals: append([]float64(nil), d.vals...), sorted: d.sorted}
}

// Sparkline renders the distribution's CDF as a crude text plot for
// terminal output.
func (d *Dist) Sparkline(width int) string {
	if len(d.vals) == 0 || width <= 0 {
		return ""
	}
	levels := []rune("▁▂▃▄▅▆▇█")
	cdf := d.CDF(width)
	max := d.Max()
	if max == 0 {
		return strings.Repeat("▁", width)
	}
	var sb strings.Builder
	for _, p := range cdf {
		idx := int(p.Value / max * float64(len(levels)-1))
		if idx < 0 {
			idx = 0
		}
		if idx >= len(levels) {
			idx = len(levels) - 1
		}
		sb.WriteRune(levels[idx])
	}
	return sb.String()
}
