package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie beyond a percentile
// before the benchmark reports it: p99 needs 1000 samples, p90 needs 100.
const minBeyond = 10

// tailPercentiles are the tail percentiles the benchmark reports, highest
// first; summarize picks the highest one the sample count supports.
var tailPercentiles = []float64{99.9, 99, 90, 50}

// supportedTail returns the highest percentile in tailPercentiles with at
// least minBeyond samples beyond it, or 0 when even the median is not
// supported.
func supportedTail(n int) float64 {
	for _, p := range tailPercentiles {
		if float64(n)*(1-p/100) >= minBeyond-1e-9 {
			return p
		}
	}
	return 0
}

// percentile returns the p-th percentile (0..100) of sorted by linear
// interpolation between the closest ranks; NaN when sorted is empty.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// timing is a summary of one latency sample set: the median, the requested
// tail percentile when the sample supports it (otherwise the highest one it
// does), and the sample count printed beside both.
type timing struct {
	N     int
	P50   float64
	Tail  float64 // value at TailP
	TailP float64 // percentile Tail reports; < Want when unsupported
	Want  float64 // tail percentile the caller asked for
	Max   float64
}

// summarize sorts vals in place and summarizes them with the want-th
// percentile as the tail, capped at the highest supported percentile.
func summarize(vals []float64, want float64) timing {
	sort.Float64s(vals)
	t := timing{N: len(vals), Want: want}
	if len(vals) == 0 {
		return t
	}
	t.P50 = percentile(vals, 50)
	t.Max = vals[len(vals)-1]
	t.TailP = math.Min(want, supportedTail(len(vals)))
	if t.TailP == 0 {
		t.TailP = 50
	}
	t.Tail = percentile(vals, t.TailP)
	return t
}

// label describes the tail for the report, flagging an unsupported request.
func (t timing) label() string {
	if t.TailP < t.Want {
		return fmt.Sprintf("p%g (n=%d; p%g needs %d samples)", t.TailP, t.N, t.Want,
			int(math.Ceil(minBeyond/(1-t.Want/100))))
	}
	return fmt.Sprintf("p%g (n=%d)", t.TailP, t.N)
}

// median returns the median of vals without modifying it; NaN when empty.
func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return percentile(s, 50)
}
