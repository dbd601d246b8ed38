package metrics

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// TestHistMatchesDist checks Hist against the exact Dist on seeded samples
// of several shapes: N and Max must be exact, Mean within 1e-9 relative,
// and every percentile within HistRelErr of a sample bracketing Dist's
// interpolated percentile.
func TestHistMatchesDist(t *testing.T) {
	shapes := []struct {
		name string
		gen  func(*rand.Rand) float64
	}{
		{"lognormal", func(r *rand.Rand) float64 { return 1e-3 * math.Exp(2*r.NormFloat64()) }},
		{"uniform", func(r *rand.Rand) float64 { return 1000 * r.Float64() }},
		{"zero", func(*rand.Rand) float64 { return 0 }},
		{"negative", func(r *rand.Rand) float64 { return -math.Exp(r.NormFloat64()) }},
		{"mixed-sign", func(r *rand.Rand) float64 { return 100 * r.NormFloat64() }},
	}
	for _, sh := range shapes {
		for seed := int64(1); seed <= 20; seed++ {
			r := rand.New(rand.NewSource(seed))
			n := 1 + r.Intn(5000)
			var h Hist
			var d Dist
			for i := 0; i < n; i++ {
				v := sh.gen(r)
				h.Add(v)
				d.Add(v)
			}
			s := h.Snapshot()
			if s.N() != d.N() || s.Max() != d.Max() {
				t.Fatalf("%s seed %d: N/Max = %d/%v, want %d/%v", sh.name, seed, s.N(), s.Max(), d.N(), d.Max())
			}
			if got, want := s.Mean(), d.Mean(); math.Abs(got-want) > 1e-9*math.Abs(want) {
				t.Fatalf("%s seed %d: Mean = %v, want %v", sh.name, seed, got, want)
			}
			sorted := d.Values()
			for _, p := range []float64{0, 1, 25, 50, 75, 99, 100} {
				rank := p / 100 * float64(n-1)
				lo, hi := sorted[int(math.Floor(rank))], sorted[int(math.Ceil(rank))]
				got := s.Percentile(p)
				if got < lo-HistRelErr*math.Abs(lo) || got > hi+HistRelErr*math.Abs(hi) {
					t.Fatalf("%s seed %d n %d: p%v = %v, Dist brackets [%v, %v] (interpolated %v)",
						sh.name, seed, n, p, got, lo, hi, d.Percentile(p))
				}
			}
		}
	}
}

func TestEmptyHist(t *testing.T) {
	var h Hist
	s := h.Snapshot()
	if s.N() != 0 || s.Mean() != 0 || s.Percentile(50) != 0 || s.Max() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
}

// TestHistConcurrentAddSnapshot races writers against a snapshotting
// reader; run it under -race.
func TestHistConcurrentAddSnapshot(t *testing.T) {
	var h Hist
	const workers = 8
	const each = 2000
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		last := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := h.Snapshot()
			if s.N() < last {
				t.Errorf("N went backwards: %d after %d", s.N(), last)
				return
			}
			last = s.N()
			if p := s.Percentile(50); p < 0 || p > each-1 {
				t.Errorf("p50 %v outside the sample range", p)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				h.Add(float64(i))
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-readerDone
	s := h.Snapshot()
	if s.N() != workers*each || s.Max() != each-1 {
		t.Fatalf("N/Max = %d/%v, want %d/%d", s.N(), s.Max(), workers*each, each-1)
	}
	if want := float64(each-1) / 2; s.Mean() != want {
		t.Fatalf("Mean = %v, want %v", s.Mean(), want)
	}
}

// TestSteadyStateHistAdd pins the 0-allocation contract of the serving
// path's per-sample recording.
func TestSteadyStateHistAdd(t *testing.T) {
	var h Hist
	v := 0.0
	allocs := testing.AllocsPerRun(1000, func() {
		v += 1e-4
		h.Add(v)
		h.AddDuration(time.Duration(v * 1e9))
	})
	if allocs != 0 {
		t.Fatalf("Hist.Add allocates %v times per call pair, want 0", allocs)
	}
}

// TestWindowKeepsNewest checks the ring: N stops at the window size, the
// newest samples are the ones kept, and storage never exceeds the size.
func TestWindowKeepsNewest(t *testing.T) {
	const size = 100
	w := NewWindow(size)
	for i := 1; i <= 50; i++ {
		w.Add(float64(i))
	}
	if n := w.Snapshot().N(); n != 50 {
		t.Fatalf("N = %d before the window filled, want 50", n)
	}
	for i := 51; i <= 250; i++ {
		w.Add(float64(i))
	}
	d := w.Snapshot()
	if d.N() != size {
		t.Fatalf("N = %d, want the window size %d", d.N(), size)
	}
	for i, v := range d.Values() {
		if want := float64(250 - size + 1 + i); v != want {
			t.Fatalf("Values()[%d] = %v, want %v (the newest %d samples)", i, v, want, size)
		}
	}
	if c := cap(w.vals); c > size {
		t.Fatalf("window storage grew to %d slots, past its size %d", c, size)
	}
}
