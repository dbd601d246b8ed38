package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"firmament/internal/api"
	"firmament/internal/cluster"
	"firmament/internal/core"
	"firmament/internal/service"
)

// jobRec is one acknowledged submission as the client saw it. Times are ns
// since the run epoch; in the closed loop a job is due when it is sent.
type jobRec struct {
	id               cluster.JobID
	tasks            []cluster.TaskID
	durs             []time.Duration // open loop: when each task completes after placement
	due, sent, acked int64
	phase            int // -1: setup; 0: measured window; 1..: ladder rungs
}

// waiter is a closed-loop client parked until its job is fully placed.
type waiter struct {
	left int
	done chan struct{}
}

// runEnv is one repetition: a freshly built system, its Watch reader, and
// the history the client saw.
type runEnv struct {
	w     *workload
	sys   *system
	tr    *tracer
	epoch time.Time

	hmu      sync.Mutex
	events   []watchEvent
	signal   chan struct{} // capacity 1: new events arrived
	tracking bool          // count placements per job for waiters
	waiters  map[cluster.JobID]*waiter
	early    map[cluster.JobID]int // placements seen before their job registered

	watchStop func()
	watchErr  func() error
	watchDone chan struct{}

	mu        sync.Mutex // guards the fields below (two closed-loop clients)
	jobs      []*jobRec
	ops       []opRec
	scrapeMs  []float64
	failures  []string
	attempted int
}

// newRun builds the system and starts the Watch reader.
func newRun(w *workload, tr *tracer, dir string) (*runEnv, error) {
	e := &runEnv{w: w, tr: tr, epoch: time.Now(), signal: make(chan struct{}, 1),
		tracking: true, waiters: make(map[cluster.JobID]*waiter), early: make(map[cluster.JobID]int)}
	sys, err := buildSystem(w, tr, dir)
	if err != nil {
		return nil, err
	}
	e.sys = sys
	ch, stop, errf, err := sys.door.watch()
	if err != nil {
		sys.door.close()
		return nil, fmt.Errorf("watch: %w", err)
	}
	e.watchStop, e.watchErr, e.watchDone = stop, errf, make(chan struct{})
	go e.readWatch(ch)
	return e, nil
}

// now returns ns since the run epoch.
func (e *runEnv) now() int64 { return int64(time.Since(e.epoch)) }

// readWatch is the one Watch reader: it stamps every receipt, appends it to
// the history and wakes whoever waits on it.
func (e *runEnv) readWatch(ch <-chan service.Placement) {
	defer close(e.watchDone)
	for p := range ch {
		id, start := e.tr.begin()
		at := e.now()
		e.hmu.Lock()
		e.events = append(e.events, watchEvent{p: p, at: at})
		if e.tracking && p.Kind == core.DecisionPlaced {
			if wt := e.waiters[p.Job]; wt != nil {
				if wt.left--; wt.left == 0 {
					close(wt.done)
					delete(e.waiters, p.Job)
				}
			} else {
				e.early[p.Job]++
			}
		}
		e.hmu.Unlock()
		select {
		case e.signal <- struct{}{}:
		default:
		}
		e.tr.end(id, 0, int64(p.Job), "watch.Receive", start)
	}
}

// await returns a channel closed once n placements of job have arrived.
func (e *runEnv) await(job cluster.JobID, n int) <-chan struct{} {
	e.hmu.Lock()
	defer e.hmu.Unlock()
	wt := &waiter{left: n - e.early[job], done: make(chan struct{})}
	delete(e.early, job)
	if wt.left <= 0 {
		close(wt.done)
	} else {
		e.waiters[job] = wt
	}
	return wt.done
}

// history returns the Watch receipts so far.
func (e *runEnv) history() []watchEvent {
	e.hmu.Lock()
	defer e.hmu.Unlock()
	return e.events
}

func (e *runEnv) fail(format string, args ...any) {
	e.mu.Lock()
	e.failures = append(e.failures, fmt.Sprintf(format, args...))
	e.mu.Unlock()
}

func (e *runEnv) attempt(n int) {
	e.mu.Lock()
	e.attempted += n
	e.mu.Unlock()
}

// submit sends one job due at due and records it; it returns nil when the
// submit failed.
func (e *runEnv) submit(j jobInput, specs []cluster.TaskSpec, due int64, phase int) *jobRec {
	sent := e.now()
	if due < 0 {
		due = sent
	}
	id, tasks, err := e.sys.door.submit(j.class, j.prio, specs)
	acked := e.now()
	e.attempt(1)
	if err != nil {
		e.fail("submit: %v", err)
		return nil
	}
	rec := &jobRec{id: id, tasks: tasks, due: due, sent: sent, acked: acked, phase: phase}
	e.mu.Lock()
	e.jobs = append(e.jobs, rec)
	e.mu.Unlock()
	return rec
}

// rounds reads the service's round counter through the front door.
func (e *runEnv) rounds() int64 {
	st, err := e.sys.door.stats()
	if err != nil {
		e.fail("stats: %v", err)
		return 0
	}
	return st.Rounds
}

// machineOp removes or restores m, bracketing the call with round reads
// for the checker.
func (e *runEnv) machineOp(m cluster.MachineID, remove bool) {
	before := e.rounds()
	var err error
	if remove {
		err = e.sys.door.removeMachine(m)
	} else {
		err = e.sys.door.restoreMachine(m)
	}
	after := e.rounds()
	e.attempt(1)
	if err != nil {
		e.fail("machine %d op: %v", m, err)
		return
	}
	e.mu.Lock()
	e.ops = append(e.ops, opRec{machine: m, remove: remove, before: before, after: after})
	e.mu.Unlock()
}

// scrape is the 1 Hz operator scrape: Stats() in process, GET /v1/stats
// over HTTP.
func (e *runEnv) scrape() {
	t0 := time.Now()
	_, err := e.sys.door.stats()
	ms := float64(time.Since(t0)) / 1e6
	e.mu.Lock()
	e.scrapeMs = append(e.scrapeMs, ms)
	e.mu.Unlock()
	if err != nil {
		e.fail("stats scrape: %v", err)
	}
}

// mark is the state at a window boundary, for per-layer deltas.
type mark struct {
	at           int64
	cpu          time.Duration // process CPU time, user + system
	st           service.Stats
	mem          runtime.MemStats
	policyCalls  int64
	policyNs     int64
	policyRounds int64
	requests     int64
	bytes        int64
	walBytes     int64
	walWrites    int
	fsyncs       int
}

// mark records the window boundary. It reads the service's own Stats
// directly: this is the harness's bookkeeping, not operator load. It
// collects garbage first, so the heap it records is the live heap.
func (e *runEnv) mark() mark {
	m := mark{at: e.now(), cpu: processCPU(), st: e.sys.svc.Stats()}
	runtime.GC()
	runtime.ReadMemStats(&m.mem)
	if tm := e.sys.model; tm != nil {
		m.policyCalls, m.policyNs, m.policyRounds = tm.calls.Load(), tm.ns.Load(), tm.rounds.Load()
	}
	if ct := e.sys.ct; ct != nil {
		m.requests, m.bytes = ct.requests.Load(), ct.bytes.Load()
	}
	if fs := e.sys.fs; fs != nil {
		fs.st.mu.Lock()
		m.walBytes, m.walWrites, m.fsyncs = fs.st.writeBytes, len(fs.st.writeUs), len(fs.st.fsyncMs)
		fs.st.mu.Unlock()
	}
	return m
}

// quiesce waits until the scheduling loop is idle with nothing pending, so
// the final counters are read between rounds, and returns them as the
// client sees them.
func (e *runEnv) quiesce(timeout time.Duration) (api.Stats, error) {
	deadline := time.Now().Add(timeout)
	last, stable := int64(-1), time.Now()
	for time.Now().Before(deadline) {
		st := e.sys.svc.Stats()
		if st.Rounds != last || st.Pending > 0 {
			last, stable = st.Rounds, time.Now()
		} else if time.Since(stable) >= 50*time.Millisecond {
			return e.sys.door.stats()
		}
		time.Sleep(5 * time.Millisecond)
	}
	return api.Stats{}, errors.New("scheduler did not go idle before the deadline")
}

// close ends the Watch subscription and shuts the system down.
func (e *runEnv) close() error {
	e.watchStop()
	<-e.watchDone
	err := e.sys.door.close()
	if werr := e.watchErr(); werr != nil && err == nil {
		err = werr
	}
	return err
}

// ackedJobs returns the acknowledged submissions for the checker.
func (e *runEnv) ackedJobs() []ackedJob {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]ackedJob, len(e.jobs))
	for i, j := range e.jobs {
		out[i] = ackedJob{id: j.id, tasks: j.tasks}
	}
	return out
}
