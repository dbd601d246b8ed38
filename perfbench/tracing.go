package main

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// spanBudget caps the spans kept per span name. Past it a call is still
// counted and timed into the name's totals, but its span is dropped: the
// cost model alone is called a few thousand times per round.
const spanBudget = 50000

// span is one timed call at a layer boundary. IDs start at 1; Parent 0 is a
// root. Trace is the job ID the call concerns, or -1 when none.
type span struct {
	ID, Parent uint64
	Trace      int64
	Name       string
	Start, End int64 // ns since the tracer's epoch
}

// sampleBudget caps the call durations kept per span name for percentiles.
const sampleBudget = 200000

// nameTotals aggregates every call of one span name, kept or dropped.
type nameTotals struct {
	calls, ns, kept int64
	us              []float64 // call durations, the first sampleBudget
}

// tracer keeps spans in memory for the traced run. A nil *tracer records
// nothing: untraced runs pass nil and pay one pointer test per call.
type tracer struct {
	epoch  time.Time
	nextID atomic.Uint64
	// cur is the open span of the one goroutine that issues HTTP requests;
	// the counting transport parents its round-trip spans on it.
	cur atomic.Uint64

	mu     sync.Mutex
	spans  []span
	totals map[string]*nameTotals
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), totals: make(map[string]*nameTotals)}
}

// now returns the tracer clock; 0 on a nil tracer.
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// begin allocates a span ID and returns it with the start time.
func (t *tracer) begin() (uint64, int64) {
	if t == nil {
		return 0, 0
	}
	return t.nextID.Add(1), t.now()
}

// end records the span that began at start under id and returns its
// duration in ns.
func (t *tracer) end(id, parent uint64, trace int64, name string, start int64) int64 {
	if t == nil {
		return 0
	}
	end := t.now()
	t.mu.Lock()
	tot := t.totals[name]
	if tot == nil {
		tot = &nameTotals{}
		t.totals[name] = tot
	}
	tot.calls++
	tot.ns += end - start
	if len(tot.us) < sampleBudget {
		tot.us = append(tot.us, float64(end-start)/1e3)
	}
	if tot.kept < spanBudget {
		tot.kept++
		t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, Start: start, End: end})
	}
	t.mu.Unlock()
	return end - start
}

// call times fn as a span named name and returns its duration in ns.
func (t *tracer) call(name string, parent uint64, trace int64, fn func()) int64 {
	if t == nil {
		fn()
		return 0
	}
	id, start := t.begin()
	fn()
	return t.end(id, parent, trace, name, start)
}

// durations returns a copy of the call durations (µs) kept for name.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if tot := t.totals[name]; tot != nil {
		return append([]float64(nil), tot.us...)
	}
	return nil
}

// layerTime is one span name's row in the self-time table.
type layerTime struct {
	Name        string
	Calls, Kept int64
	TotalMs     float64 // all calls
	SelfMs      float64 // kept spans minus the time their children cover
	KeptMs      float64
}

// selfTimes returns the per-name totals and self times, by name. A span's
// self time is its duration minus the union of its children's intervals.
func (t *tracer) selfTimes() []layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[uint64][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]float64)
	kept := make(map[string]float64)
	for _, s := range t.spans {
		d := float64(s.End - s.Start)
		kept[s.Name] += d / 1e6
		self[s.Name] += (d - float64(covered(s, children[s.ID]))) / 1e6
	}
	var out []layerTime
	for name, tot := range t.totals {
		out = append(out, layerTime{Name: name, Calls: tot.calls, Kept: tot.kept,
			TotalMs: float64(tot.ns) / 1e6, SelfMs: self[name], KeptMs: kept[name]})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered returns the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	return total + curHi - curLo
}

// writeCSV writes every kept span, one per line.
func (t *tracer) writeCSV(w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "id,parent,trace,name,start_ns,end_ns")
	for _, s := range t.spans {
		fmt.Fprintf(bw, "%d,%d,%d,%s,%d,%d\n", s.ID, s.Parent, s.Trace, s.Name, s.Start, s.End)
	}
	return bw.Flush()
}
