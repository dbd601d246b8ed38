package metrics

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Hist bucket layout: log-linear, histSub sub-buckets per power of two for
// magnitudes in [2^histMinExp, 2^histMaxExp), mirrored for negative
// samples around one zero bucket. Magnitudes below the range count as
// zero; magnitudes above it share the outermost bucket.
const (
	histSubBits = 4
	histSub     = 1 << histSubBits
	histMinExp  = -32
	histMaxExp  = 32
	histSide    = (histMaxExp - histMinExp) * histSub // buckets per sign
	histZero    = histSide                            // index of the zero bucket
	histBuckets = 2*histSide + 1
)

// HistRelErr bounds the relative error of a Hist percentile against a
// sample of the requested rank, for magnitudes in [2^-32, 2^32): each
// bucket spans 1/16 of its power of two and reports its midpoint.
const HistRelErr = 1.0 / (2 * histSub)

// Hist is a fixed-size log-linear histogram safe for concurrent use: Add
// records a sample with atomic updates only and never allocates, so its
// memory (about 16 KiB) is independent of how many samples it has seen.
// N, Mean and Max are exact; percentiles are bucket estimates within
// HistRelErr. The zero value is an empty histogram. The serving layer
// records its per-round and per-placement statistics through it while
// clients poll aggregate stats.
type Hist struct {
	buckets [histBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64 // float64 bits
	max     atomic.Uint64 // orderedKey of the largest sample; 0 when empty
}

// Add records a sample.
//
//firmament:hotpath
func (h *Hist) Add(v float64) {
	h.buckets[histIndex(v)].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			break
		}
	}
	k := orderedKey(v)
	for {
		old := h.max.Load()
		if k <= old || h.max.CompareAndSwap(old, k) {
			break
		}
	}
}

// AddDuration records a duration sample in seconds.
//
//firmament:hotpath
func (h *Hist) AddDuration(v time.Duration) { h.Add(v.Seconds()) }

// Snapshot copies the histogram. The copy is safe to summarize while
// producers keep adding; each field is read atomically, but a sample
// added during the copy may show in some fields and not others.
func (h *Hist) Snapshot() *HistSnapshot {
	s := &HistSnapshot{
		n:   h.count.Load(),
		sum: math.Float64frombits(h.sum.Load()),
		max: h.max.Load(),
	}
	for i := range h.buckets {
		c := h.buckets[i].Load()
		s.buckets[i] = c
		s.total += c
	}
	return s
}

// HistSnapshot is a point-in-time copy of a Hist.
type HistSnapshot struct {
	buckets [histBuckets]uint64
	total   uint64 // sum of buckets, the rank base for Percentile
	n       uint64
	sum     float64
	max     uint64
}

// N returns the sample count.
func (s *HistSnapshot) N() int { return int(s.n) }

// Mean returns the arithmetic mean (0 for an empty histogram).
func (s *HistSnapshot) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

// Max returns the largest sample (0 for an empty histogram).
func (s *HistSnapshot) Max() float64 {
	if s.n == 0 {
		return 0
	}
	return fromOrderedKey(s.max)
}

// Percentile estimates the p-th percentile (0 ≤ p ≤ 100): the midpoint of
// the bucket holding the sample nearest rank p/100·(N-1), capped at Max.
// Within HistRelErr of that sample for magnitudes in range; 0 for an empty
// histogram.
func (s *HistSnapshot) Percentile(p float64) float64 {
	if s.total == 0 {
		return 0
	}
	if p >= 100 {
		return s.Max()
	}
	p = math.Max(p, 0)
	rank := uint64(math.Round(p / 100 * float64(s.total-1)))
	var seen uint64
	for i, c := range s.buckets {
		seen += c
		if seen > rank {
			return math.Min(bucketMid(i), s.Max())
		}
	}
	return s.Max() // unreachable: rank < total
}

// histIndex returns the bucket of v. Buckets are ordered by value:
// negatives below histZero, positives above it.
func histIndex(v float64) int {
	bits := math.Float64bits(math.Abs(v))
	exp := int(bits>>52) - 1023
	if exp < histMinExp {
		return histZero
	}
	off := histSide - 1
	if exp < histMaxExp {
		off = (exp-histMinExp)*histSub + int(bits>>(52-histSubBits))&(histSub-1)
	}
	if v < 0 {
		return histZero - 1 - off
	}
	return histZero + 1 + off
}

// bucketMid returns the midpoint of bucket i.
func bucketMid(i int) float64 {
	if i == histZero {
		return 0
	}
	off, sign := i-histZero-1, 1.0
	if i < histZero {
		off, sign = histZero-1-i, -1
	}
	exp, sub := off/histSub+histMinExp, off%histSub
	return sign * math.Ldexp(1+(float64(sub)+0.5)/histSub, exp)
}

// orderedKey maps v to an integer that orders like v and is above 0 for
// every non-NaN value, so the zero key can mean "no sample".
func orderedKey(v float64) uint64 {
	b := math.Float64bits(v)
	if b>>63 == 1 {
		return ^b
	}
	return b | 1<<63
}

func fromOrderedKey(k uint64) float64 {
	if k>>63 == 1 {
		return math.Float64frombits(k &^ (1 << 63))
	}
	return math.Float64frombits(^k)
}

// Window keeps the most recent samples of a stream, up to a fixed size,
// for consumers that need exact values of recent samples. Its storage
// grows on demand to that size and is then reused as a ring, so memory is
// bounded however long the stream runs. Safe for concurrent use.
type Window struct {
	mu   sync.Mutex
	size int
	vals []float64
	next int // slot the next sample overwrites once vals is full
}

// NewWindow returns an empty window holding at most size samples.
func NewWindow(size int) *Window { return &Window{size: size} }

// Add records a sample, evicting the oldest once the window is full.
func (w *Window) Add(v float64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.vals) < w.size {
		if len(w.vals) == cap(w.vals) {
			grown := make([]float64, len(w.vals), min(max(2*cap(w.vals), 64), w.size))
			copy(grown, w.vals)
			w.vals = grown
		}
		w.vals = append(w.vals, v)
		return
	}
	w.vals[w.next] = v
	w.next = (w.next + 1) % w.size
}

// AddDuration records a duration sample in seconds.
func (w *Window) AddDuration(v time.Duration) { w.Add(v.Seconds()) }

// Snapshot returns the samples the window holds as an independent Dist.
func (w *Window) Snapshot() *Dist {
	w.mu.Lock()
	defer w.mu.Unlock()
	return &Dist{vals: append([]float64(nil), w.vals...)}
}
