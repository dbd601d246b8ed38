package main

import (
	"container/heap"
	"errors"
	"math"
	"time"

	"firmament/internal/cluster"
	"firmament/internal/core"
)

// openLoop drives an open-loop workload from one client goroutine: it
// submits jobs when they are due whatever the scheduler is doing, completes
// every task its sped-up duration after the Watch reader saw it placed,
// fires the machine churn and scrapes Stats once a second.
type openLoop struct {
	e  *runEnv
	in *streamInputs

	next     int // stream cursor
	byJob    map[cluster.JobID]*jobRec
	gens     map[cluster.TaskID]uint32 // placements seen; a completion is for one placement
	comps    compHeap
	batch    []cluster.TaskID
	flush    int64 // batch completions this often (ns); 0 completes at once
	lastSent int64
	consumed int // history entries processed

	submitted, placed int // arrival-stream tasks submitted and placed at least once
	down              map[cluster.MachineID]bool
	nextScrape        int64
	genLateMs         []float64 // measured window only
	backlog           []backlogSample
	timer             *time.Timer
}

// backlogSample is the outstanding stream tasks at one instant.
type backlogSample struct {
	at int64
	n  int
}

// completion is a task due to complete at at, for its gen-th placement.
type completion struct {
	at   int64
	task cluster.TaskID
	gen  uint32
}

type compHeap []completion

func (h compHeap) Len() int           { return len(h) }
func (h compHeap) Less(i, j int) bool { return h[i].at < h[j].at }
func (h compHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *compHeap) Push(x any)        { *h = append(*h, x.(completion)) }
func (h *compHeap) Pop() any {
	old := *h
	c := old[len(old)-1]
	*h = old[:len(old)-1]
	return c
}

func newOpenLoop(e *runEnv, in *streamInputs) *openLoop {
	o := &openLoop{e: e, in: in, byJob: make(map[cluster.JobID]*jobRec),
		gens: make(map[cluster.TaskID]uint32), down: make(map[cluster.MachineID]bool),
		timer: time.NewTimer(time.Hour)}
	if e.w.http {
		// Over HTTP completions ride one batch request every 5 ms.
		o.flush = int64(5 * time.Millisecond)
	}
	return o
}

// scaled copies j's specs with durations scaled by f.
func scaled(j jobInput, f float64) []cluster.TaskSpec {
	specs := make([]cluster.TaskSpec, len(j.specs))
	for i, s := range j.specs {
		s.Duration = time.Duration(float64(s.Duration) * f)
		specs[i] = s
	}
	return specs
}

// prefill submits the setup jobs (durations scaled for rate) and waits
// until all of them are placed.
func (o *openLoop) prefill(rate float64, timeout time.Duration) error {
	f := o.in.durScale(rate)
	var waits []<-chan struct{}
	for _, j := range o.in.prefill {
		specs := scaled(j, f)
		rec := o.e.submit(j, specs, -1, -1)
		if rec == nil {
			continue
		}
		o.track(rec, specs)
		waits = append(waits, o.e.await(rec.id, len(rec.tasks)))
	}
	deadline := time.After(timeout)
	for _, w := range waits {
		select {
		case <-w:
		case <-deadline:
			return errors.New("prefill placement timed out")
		}
	}
	o.e.hmu.Lock()
	o.e.tracking = false
	o.e.hmu.Unlock()
	return nil
}

func (o *openLoop) track(rec *jobRec, specs []cluster.TaskSpec) {
	rec.durs = make([]time.Duration, len(specs))
	for i, s := range specs {
		rec.durs[i] = s.Duration
	}
	o.byJob[rec.id] = rec
}

// phase is one fixed-rate stretch of the arrival stream.
type phase struct {
	rate       float64
	start, end int64
	scale      float64 // duration scale keeping occupancy steady at rate
	cum        float64 // tasks scheduled so far
	ops        []machineOp
	nextOp     int
}

// due returns when the phase's next job is due: jobs are spaced by their
// task count at the phase's rate.
func (p *phase) due() int64 { return p.start + int64(p.cum/p.rate*1e9) }

// runPhase submits the stream at rate for d, firing ops (offsets from the
// phase start) on the way.
func (o *openLoop) runPhase(idx int, rate float64, d time.Duration, ops []machineOp) *phase {
	now := o.e.now()
	p := &phase{rate: rate, start: now, end: now + int64(d), scale: o.in.durScale(rate), ops: ops}
	for {
		now = o.e.now()
		if now >= p.end {
			break
		}
		o.service(now)
		for p.nextOp < len(p.ops) && p.start+int64(p.ops[p.nextOp].at) <= now {
			op := p.ops[p.nextOp]
			o.e.machineOp(op.machine, op.remove)
			o.down[op.machine] = op.remove
			p.nextOp++
		}
		for due := p.due(); due <= now && due < p.end; due = p.due() {
			j := o.in.stream[o.next%len(o.in.stream)]
			o.next++
			p.cum += float64(len(j.specs))
			specs := scaled(j, p.scale)
			if rec := o.e.submit(j, specs, due, idx); rec != nil {
				o.track(rec, specs)
				o.submitted += len(rec.tasks)
				if idx == 0 {
					o.genLateMs = append(o.genLateMs, float64(rec.sent-due)/1e6)
				}
			}
			now = o.e.now()
		}
		until := p.end
		if d := p.due(); d < until {
			until = d
		}
		if p.nextOp < len(p.ops) {
			until = min(until, p.start+int64(p.ops[p.nextOp].at))
		}
		o.wait(until)
	}
	o.flushCompletions(true)
	return p
}

// settle keeps completing tasks without submitting until every submitted
// stream task has been placed or d has passed. Tasks still unplaced then
// are the checker's to report.
func (o *openLoop) settle(d time.Duration) {
	end := o.e.now() + int64(d)
	for {
		now := o.e.now()
		o.service(now)
		if o.placed >= o.submitted || now >= end {
			o.flushCompletions(true)
			return
		}
		o.wait(end)
	}
}

// restoreAll restores every machine the churn left removed.
func (o *openLoop) restoreAll() {
	for m, isDown := range o.down {
		if isDown {
			o.e.machineOp(m, false)
			o.down[m] = false
		}
	}
}

// outstanding is the stream tasks submitted but not yet placed.
func (o *openLoop) outstanding() int { return o.submitted - o.placed }

// service consumes new Watch receipts, completes due tasks and scrapes.
func (o *openLoop) service(now int64) {
	for _, ev := range o.e.history()[o.consumed:] {
		o.consumed++
		p := ev.p
		rec := o.byJob[p.Job]
		if rec == nil {
			continue // a job whose submit failed; the checker reports it
		}
		switch p.Kind {
		case core.DecisionPlaced:
			g := o.gens[p.Task] + 1
			o.gens[p.Task] = g
			if g == 1 && rec.phase >= 0 {
				o.placed++
			}
			idx := int(int64(p.Task) & 0xffffffff)
			heap.Push(&o.comps, completion{at: ev.at + int64(rec.durs[idx]), task: p.Task, gen: g})
		case core.DecisionPreempted:
			o.gens[p.Task]++ // its running placement will not complete
		}
	}
	for len(o.comps) > 0 && o.comps[0].at <= now {
		c := heap.Pop(&o.comps).(completion)
		if o.gens[c.task] == c.gen {
			o.batch = append(o.batch, c.task)
		}
	}
	o.flushCompletions(false)
	if n := len(o.backlog); n == 0 || now-o.backlog[n-1].at >= int64(50*time.Millisecond) {
		o.backlog = append(o.backlog, backlogSample{at: now, n: o.outstanding()})
	}
	if now >= o.nextScrape {
		o.e.scrape()
		o.nextScrape = now + int64(time.Second)
	}
}

// flushCompletions sends the batched completions (at once in process,
// every flush interval over HTTP, or now when force is set).
func (o *openLoop) flushCompletions(force bool) {
	if len(o.batch) == 0 {
		return
	}
	now := o.e.now()
	if !force && o.flush > 0 && now-o.lastSent < o.flush {
		return
	}
	o.lastSent = now
	o.e.attempt(len(o.batch))
	if err := o.e.sys.door.complete(o.batch); err != nil {
		o.e.fail("complete %d tasks: %v", len(o.batch), err)
	}
	o.batch = o.batch[:0]
}

// wait sleeps until until (ns since epoch), the next completion, flush or
// scrape, or new Watch receipts, whichever comes first.
func (o *openLoop) wait(until int64) {
	if len(o.comps) > 0 {
		until = min(until, o.comps[0].at)
	}
	if len(o.batch) > 0 {
		until = min(until, o.lastSent+o.flush)
	}
	until = min(until, o.nextScrape)
	d := time.Duration(until - o.e.now())
	if d <= 0 {
		return
	}
	if !o.timer.Stop() {
		select {
		case <-o.timer.C:
		default:
		}
	}
	o.timer.Reset(d)
	select {
	case <-o.e.signal:
	case <-o.timer.C:
	}
}

// Ladder geometry: rungs from ladderLo × the fixed rate upward, each
// ladderStep above the last, so a one-rung flip moves max_rate_tasks_s by
// 5%. The search probes rungs by bisection.
const (
	ladderLo    = 0.5
	ladderStep  = 1.05
	ladderRungs = 52 // up to 6x the fixed rate
	rungLength  = time.Second
)

// rung is one probed offered rate.
type rung struct {
	rate   float64
	p99Ms  float64
	label  string
	growth bool // the backlog grew across the rung
	pass   bool
}

// ladder bisects the rung ladder for the highest offered rate whose
// place_p99 meets latencyLimit without a growing backlog, within budget.
// It returns 0 when even the lowest rung fails.
func (o *openLoop) ladder(base float64, budget time.Duration) (float64, []rung) {
	deadline := o.e.now() + int64(budget)
	lo, hi := -1, ladderRungs // highest pass, lowest fail
	var probed []rung
	for hi-lo > 1 && o.e.now() < deadline {
		mid := (lo + hi) / 2
		rate := base * ladderLo * math.Pow(ladderStep, float64(mid))
		o.settle(3 * time.Second)
		r := o.probe(len(probed)+1, rate)
		probed = append(probed, r)
		if r.pass {
			lo = mid
		} else {
			hi = mid
		}
	}
	if lo < 0 {
		return 0, probed
	}
	return base * ladderLo * math.Pow(ladderStep, float64(lo)), probed
}

// probe offers rate for one rung and judges it: every task due in the rung
// must be placed within latencyLimit at the 99th percentile (an unplaced
// task misses), and the backlog sampled in the rung's last third must not
// exceed the middle third's by more than half plus one maximal job.
func (o *openLoop) probe(idx int, rate float64) rung {
	o.backlog = o.backlog[:0]
	p := o.runPhase(idx, rate, rungLength, nil)
	o.settle(2 * latencyLimit)
	s := phaseSamples(o.e.jobs, firstPlacements(o.e.history()), idx)
	t := summarize(s.placeMs, 99)
	third := (p.end - p.start) / 3
	var mid, last []float64
	for _, b := range o.backlog {
		switch {
		case b.at >= p.start+2*third:
			last = append(last, float64(b.n))
		case b.at >= p.start+third:
			mid = append(mid, float64(b.n))
		}
	}
	growth := len(mid) > 0 && len(last) > 0 &&
		sum(last)/float64(len(last)) > 1.5*sum(mid)/float64(len(mid))+float64(o.e.w.slots()/10)
	return rung{rate: rate, p99Ms: t.Tail, label: t.label(), growth: growth,
		pass: t.N > 0 && t.Tail <= float64(latencyLimit)/1e6 && !growth}
}
