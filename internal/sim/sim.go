// Package sim is Firmament's trace-driven cluster simulator, modelled on
// Borg's "Fauxmaster" (paper §7.1): it runs the scheduler's real code and
// scheduling logic against simulated machines, stubbing out only task
// execution. Solver algorithm runtime is measured in wall-clock time and
// injected into the virtual clock, so task placement latency emerges
// exactly as in the paper's Fig. 2b timeline: tasks submitted while a
// solver run is in flight wait for the next run.
//
// The simulator drives either a flow-based scheduler (core.Scheduler) or a
// queue-based baseline (baselines.QueueScheduler), optionally models input
// transfers over the netsim fabric (for the §7.5 testbed experiments), and
// collects the distributions the paper's figures report.
package sim

import (
	"container/heap"
	"fmt"
	"time"

	"firmament/internal/baselines"
	"firmament/internal/cluster"
	"firmament/internal/core"
	"firmament/internal/metrics"
	"firmament/internal/netsim"
	"firmament/internal/storage"
	"firmament/internal/trace"
)

// Env bundles the substrate a scheduler under test operates on.
type Env struct {
	Cluster *cluster.Cluster
	Store   *storage.Store
	Fabric  *netsim.Fabric
}

// BackgroundFlow is a persistent flow present for the whole simulation
// (the paper's iperf batch traffic and nginx service traffic, §7.5).
type BackgroundFlow struct {
	Src, Dst  cluster.MachineID
	Class     netsim.Class
	RateLimit int64
}

// Config configures a simulation run. Exactly one of NewFlowScheduler and
// NewQueueScheduler must be set.
type Config struct {
	Topology cluster.Topology
	Workload *trace.Workload
	Seed     int64

	// UseStorage creates an input file (with replica placement) for every
	// task with InputSize > 0, enabling locality-aware policies.
	UseStorage    bool
	StorageConfig storage.Config

	// UseFabric models input transfers over the network: a task completes
	// when both its compute time has elapsed and its remote input has
	// arrived. Requires UseStorage for replica locations.
	UseFabric  bool
	Background []BackgroundFlow

	// MaxVirtual caps the virtual clock (0: 20× the workload horizon plus
	// ten hours, a backstop against unplaceable work spinning forever).
	MaxVirtual time.Duration

	// RescheduleInterval is how soon the flow scheduler re-runs when tasks
	// are waiting but nothing has changed (unscheduled costs rise between
	// rounds). Default 100ms. Arrivals prepone the delayed round.
	RescheduleInterval time.Duration

	// WarmupCut excludes tasks submitted before this virtual time from the
	// latency and response-time distributions, so that a prefilled
	// steady-state backlog does not dominate the statistics.
	WarmupCut time.Duration

	NewFlowScheduler  func(env *Env) *core.Scheduler
	NewQueueScheduler func(env *Env) baselines.QueueScheduler
}

// RoundPoint records one scheduling round for timeline plots (Figure 16).
type RoundPoint struct {
	At      time.Duration // virtual time the round started
	Runtime time.Duration // algorithm runtime
	Winner  string
	Tasks   int64
	Util    float64 // slot utilization at round start
}

// Results aggregates a simulation run.
type Results struct {
	SchedulerName    string
	PlacementLatency metrics.Dist // submit→placed per placement event
	ResponseTime     metrics.Dist // batch task submit→completion
	JobResponseTime  metrics.Dist // batch job submit→last task completion
	AlgorithmRuntime metrics.Dist // per flow-scheduler round
	Timeline         []RoundPoint
	Winners          map[string]int
	Placed           int
	Preempted        int
	Migrated         int
	TasksCompleted   int
	LocalBytes       int64 // input bytes read machine-locally (Table 15b)
	RackLocalBytes   int64 // input bytes read machine- or rack-locally
	TotalBytes       int64
	VirtualEnd       time.Duration
	Rounds           int
}

// Locality returns the fraction of input bytes read machine-locally
// (Table 15b).
func (r *Results) Locality() float64 {
	if r.TotalBytes == 0 {
		return 0
	}
	return float64(r.LocalBytes) / float64(r.TotalBytes)
}

// RackLocality returns the fraction of input bytes read without crossing
// racks.
func (r *Results) RackLocality() float64 {
	if r.TotalBytes == 0 {
		return 0
	}
	return float64(r.RackLocalBytes) / float64(r.TotalBytes)
}

// event kinds.
type evKind uint8

const (
	evJobArrival evKind = iota
	evComputeDone
	evFlowCheck
	evScheduleRound
	evApplyRound
	evQueueTick
	evRetryTask
)

type event struct {
	at   time.Duration
	seq  int64 // tie-break for determinism
	kind evKind

	jobIdx  int
	task    cluster.TaskID
	epoch   int64 // placement epoch (stale timers are ignored)
	version int64 // fabric event version
	round   *core.Round
	started time.Duration // when the applying round's solve started
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// taskRuntime tracks per-task simulation state.
type taskRuntime struct {
	epoch        int64 // bumped on every placement/preemption
	partsLeft    int   // compute (+ transfer) remaining before completion
	flow         netsim.FlowID
	hasFlow      bool
	batch        bool
	placedBefore bool
}

// Sim is a single simulation run.
type Sim struct {
	cfg     Config
	env     *Env
	sched   *core.Scheduler
	qsched  baselines.QueueScheduler
	events  eventHeap
	seq     int64
	now     time.Duration
	results *Results

	taskState map[cluster.TaskID]*taskRuntime
	jobBatch  map[cluster.JobID]bool

	flowBusy       bool
	dirty          bool
	roundVer       int64
	delayedPending bool
	queue          []cluster.TaskID
	queueBusy      bool

	lastFabric time.Duration
	fabricVer  int64
	batchAlive int
	jobsToCome int
}

// New builds a simulation from cfg.
func New(cfg Config) (*Sim, error) {
	if (cfg.NewFlowScheduler == nil) == (cfg.NewQueueScheduler == nil) {
		return nil, fmt.Errorf("sim: exactly one scheduler constructor must be set")
	}
	if cfg.UseFabric && !cfg.UseStorage {
		return nil, fmt.Errorf("sim: UseFabric requires UseStorage")
	}
	env := &Env{Cluster: cluster.New(cfg.Topology)}
	if cfg.UseStorage {
		sc := cfg.StorageConfig
		if sc.Seed == 0 {
			sc.Seed = cfg.Seed
		}
		env.Store = storage.NewStore(env.Cluster, sc)
	}
	if cfg.UseFabric {
		env.Fabric = netsim.NewFabric(env.Cluster)
	}
	if cfg.MaxVirtual == 0 {
		cfg.MaxVirtual = 20*cfg.Workload.Horizon + 10*time.Hour
	}
	if cfg.RescheduleInterval == 0 {
		cfg.RescheduleInterval = 100 * time.Millisecond
	}
	s := &Sim{
		cfg: cfg,
		env: env,
		results: &Results{
			Winners: make(map[string]int),
		},
		taskState: make(map[cluster.TaskID]*taskRuntime),
		jobBatch:  make(map[cluster.JobID]bool),
	}
	if cfg.NewFlowScheduler != nil {
		s.sched = cfg.NewFlowScheduler(env)
	} else {
		s.qsched = cfg.NewQueueScheduler(env)
		s.results.SchedulerName = s.qsched.Name()
	}
	if s.sched != nil {
		s.results.SchedulerName = "firmament/" + s.sched.Pool().Mode.String()
	}
	env.Cluster.Hooks = cluster.Hooks{
		Placed:    s.onPlaced,
		Preempted: s.onPreempted,
	}
	for _, bg := range cfg.Background {
		if env.Fabric != nil {
			env.Fabric.StartFlow(bg.Src, bg.Dst, bg.Class, netsim.Persistent, bg.RateLimit)
		}
	}
	for i := range cfg.Workload.Jobs {
		s.push(&event{at: cfg.Workload.Jobs[i].Submit, kind: evJobArrival, jobIdx: i})
	}
	s.jobsToCome = len(cfg.Workload.Jobs)
	return s, nil
}

// Env exposes the simulation substrate.
func (s *Sim) Env() *Env { return s.env }

func (s *Sim) push(ev *event) {
	ev.seq = s.seq
	s.seq++
	heap.Push(&s.events, ev)
}

// Run executes the simulation to completion and returns the results.
func (s *Sim) Run() (*Results, error) {
	for s.events.Len() > 0 {
		ev := heap.Pop(&s.events).(*event)
		if s.cfg.MaxVirtual > 0 && ev.at > s.cfg.MaxVirtual {
			break
		}
		if ev.at > s.now {
			s.now = ev.at
		}
		if err := s.handle(ev); err != nil {
			return nil, err
		}
		if s.done() {
			break
		}
	}
	s.results.VirtualEnd = s.now
	return s.results, nil
}

// done reports whether the interesting part of the workload has finished:
// no batch work left anywhere and no more arrivals.
func (s *Sim) done() bool {
	return s.jobsToCome == 0 && s.batchAlive == 0 && !s.flowBusy
}

func (s *Sim) handle(ev *event) error {
	switch ev.kind {
	case evJobArrival:
		s.handleJobArrival(ev.jobIdx)
	case evComputeDone:
		s.handleComputeDone(ev.task, ev.epoch)
	case evFlowCheck:
		s.handleFlowCheck(ev.version)
	case evScheduleRound:
		return s.handleScheduleRound(ev.version)
	case evApplyRound:
		return s.handleApplyRound(ev.round, ev.started)
	case evQueueTick:
		s.handleQueueTick()
	case evRetryTask:
		s.handleRetryTask(ev.task)
	}
	return nil
}

func (s *Sim) handleJobArrival(idx int) {
	jt := &s.cfg.Workload.Jobs[idx]
	s.jobsToCome--
	specs := make([]cluster.TaskSpec, len(jt.Tasks))
	for i, tt := range jt.Tasks {
		file := int64(-1)
		if s.env.Store != nil && tt.InputSize > 0 {
			file = s.env.Store.AddFile(tt.InputSize)
		}
		specs[i] = cluster.TaskSpec{
			Duration:  tt.Duration,
			InputFile: file,
			InputSize: tt.InputSize,
			NetDemand: tt.NetDemand,
		}
	}
	job := s.env.Cluster.SubmitJob(jt.Class, jt.Priority, s.now, specs)
	batch := jt.Class == cluster.Batch
	s.jobBatch[job.ID] = batch
	for _, id := range job.Tasks {
		s.taskState[id] = &taskRuntime{batch: batch}
		if batch {
			s.batchAlive++
		}
	}
	if s.qsched != nil {
		for _, id := range job.Tasks {
			s.enqueueTask(id)
		}
	}
	s.kickScheduler()
}

// kickScheduler starts a flow scheduling round if one is not in flight,
// preponing a delayed idle-reschedule round if one is pending.
func (s *Sim) kickScheduler() {
	s.dirty = true
	if s.sched == nil {
		return
	}
	if s.flowBusy && !s.delayedPending {
		return // solver in flight; the apply step re-kicks
	}
	s.delayedPending = false
	s.flowBusy = true
	s.roundVer++
	s.push(&event{at: s.now, kind: evScheduleRound, version: s.roundVer})
}

func (s *Sim) handleScheduleRound(version int64) error {
	if s.sched == nil || version != s.roundVer {
		return nil // superseded by a preponed round
	}
	s.delayedPending = false
	s.dirty = false
	started := s.now
	round, err := s.sched.Schedule(s.now)
	if err != nil {
		return fmt.Errorf("sim: scheduling round at %v: %w", s.now, err)
	}
	// The flow scheduler's placement pipeline (paper Fig. 2b): the virtual
	// clock advances by the measured update + solve + extraction time
	// before decisions take effect.
	delta := round.Stats.UpdateTime + round.Stats.Pool.AlgorithmTime + round.Stats.ExtractTime
	s.results.AlgorithmRuntime.AddDuration(round.Stats.Pool.AlgorithmTime)
	s.results.Winners[round.Stats.Pool.Winner]++
	s.results.Rounds++
	s.results.Timeline = append(s.results.Timeline, RoundPoint{
		At:      started,
		Runtime: round.Stats.Pool.AlgorithmTime,
		Winner:  round.Stats.Pool.Winner,
		Tasks:   round.Stats.Tasks,
		Util:    s.env.Cluster.SlotUtilization(),
	})
	s.push(&event{at: s.now + delta, kind: evApplyRound, round: round, started: started})
	return nil
}

func (s *Sim) handleApplyRound(round *core.Round, started time.Duration) error {
	ap := s.sched.ApplyRound(round, s.now)
	s.results.Preempted += ap.Preempted
	s.results.Migrated += ap.Migrated
	s.flowBusy = false
	// Run again immediately if state changed while the solver ran; if
	// tasks are merely waiting (their unscheduled costs rise with time),
	// re-run after the reschedule interval instead of spinning.
	if s.dirty {
		s.kickScheduler()
	} else if s.env.Cluster.NumPending() > 0 {
		s.flowBusy = true
		s.delayedPending = true
		s.roundVer++
		s.push(&event{at: s.now + s.cfg.RescheduleInterval, kind: evScheduleRound, version: s.roundVer})
	}
	return nil
}

// onPlaced is the cluster hook: record latency, arm compute and transfer.
func (s *Sim) onPlaced(t *cluster.Task, now time.Duration) {
	st := s.taskState[t.ID]
	if st == nil {
		return
	}
	st.epoch++
	if !st.placedBefore {
		st.placedBefore = true
		if t.SubmitTime >= s.cfg.WarmupCut {
			s.results.PlacementLatency.AddDuration(now - t.SubmitTime)
		}
		s.results.Placed++
	}
	st.partsLeft = 1
	s.push(&event{at: now + t.Duration, kind: evComputeDone, task: t.ID, epoch: st.epoch})

	if s.env.Store != nil && t.InputFile >= 0 && t.InputSize > 0 {
		frac := s.env.Store.MachineLocality(t.InputFile, t.Machine)
		rackFrac := s.env.Store.RackLocality(t.InputFile, s.env.Cluster.RackOf(t.Machine))
		if rackFrac < frac {
			rackFrac = frac
		}
		s.results.TotalBytes += t.InputSize
		s.results.LocalBytes += int64(frac * float64(t.InputSize))
		s.results.RackLocalBytes += int64(rackFrac * float64(t.InputSize))
		if s.env.Fabric != nil {
			remote := t.InputSize - int64(frac*float64(t.InputSize))
			if remote > 0 {
				src, ok := s.env.Store.BestReplica(t.InputFile, t.Machine)
				if ok && src != t.Machine {
					s.advanceFabric()
					st.flow = s.env.Fabric.StartFlow(src, t.Machine, netsim.ClassNormal, remote, 0)
					st.hasFlow = true
					st.partsLeft = 2
					s.armFabric()
				}
			}
		}
	}
}

// onPreempted cancels in-flight work for an evicted task.
func (s *Sim) onPreempted(t *cluster.Task, now time.Duration) {
	st := s.taskState[t.ID]
	if st == nil {
		return
	}
	st.epoch++ // invalidates pending compute timers
	if st.hasFlow {
		s.advanceFabric()
		s.env.Fabric.StopFlow(st.flow)
		st.hasFlow = false
		s.armFabric()
	}
	if s.qsched != nil {
		s.enqueueTask(t.ID)
	}
	s.kickScheduler()
}

func (s *Sim) handleComputeDone(id cluster.TaskID, epoch int64) {
	st := s.taskState[id]
	if st == nil || st.epoch != epoch {
		return // stale timer from a superseded placement
	}
	st.partsLeft--
	if st.partsLeft == 0 {
		s.completeTask(id)
	}
}

func (s *Sim) completeTask(id cluster.TaskID) {
	// Complete retires both records; take them first. A job record that
	// vanishes with this completion marks the job done.
	t := s.env.Cluster.Task(id)
	job := s.env.Cluster.Job(t.Job)
	st := s.taskState[id]
	if st.hasFlow {
		s.advanceFabric()
		s.env.Fabric.StopFlow(st.flow)
		st.hasFlow = false
		s.armFabric()
	}
	if err := s.env.Cluster.Complete(id, s.now); err != nil {
		return
	}
	s.results.TasksCompleted++
	if st.batch {
		s.batchAlive--
		if t.SubmitTime >= s.cfg.WarmupCut {
			s.results.ResponseTime.AddDuration(s.now - t.SubmitTime)
		}
		if s.env.Cluster.Job(t.Job) == nil {
			if job.SubmitTime >= s.cfg.WarmupCut {
				s.results.JobResponseTime.AddDuration(s.now - job.SubmitTime)
			}
		}
	}
	delete(s.taskState, id)
	if s.qsched != nil {
		s.kickQueue() // a slot freed; stalled queue may proceed
	}
	s.kickScheduler()
}

// --- fabric bookkeeping -------------------------------------------------

func (s *Sim) advanceFabric() {
	if s.env.Fabric == nil {
		return
	}
	if s.now > s.lastFabric {
		s.env.Fabric.Advance(s.now - s.lastFabric)
		s.lastFabric = s.now
	}
}

// armFabric schedules the next transfer-completion check.
func (s *Sim) armFabric() {
	if s.env.Fabric == nil {
		return
	}
	s.fabricVer++
	if _, dt, ok := s.env.Fabric.NextCompletion(); ok {
		s.push(&event{at: s.now + dt, kind: evFlowCheck, version: s.fabricVer})
	}
}

func (s *Sim) handleFlowCheck(version int64) {
	if version != s.fabricVer || s.env.Fabric == nil {
		return // superseded by a later flow change
	}
	s.advanceFabric()
	// Complete every finished transfer.
	for {
		id, dt, ok := s.env.Fabric.NextCompletion()
		if !ok || dt > 0 {
			break
		}
		s.env.Fabric.StopFlow(id)
		for tid, st := range s.taskState {
			if st.hasFlow && st.flow == id {
				st.hasFlow = false
				st.partsLeft--
				if st.partsLeft == 0 {
					s.completeTask(tid)
				}
				break
			}
		}
	}
	s.armFabric()
}

// --- queue-based baseline driving ---------------------------------------

func (s *Sim) enqueueTask(id cluster.TaskID) {
	if s.qsched.Distributed() {
		// Distributed schedulers decide per task in parallel.
		s.push(&event{at: s.now + s.qsched.DecisionLatency(), kind: evRetryTask, task: id})
		return
	}
	s.queue = append(s.queue, id)
	s.kickQueue()
}

func (s *Sim) kickQueue() {
	if s.qsched == nil || s.queueBusy || len(s.queue) == 0 {
		return
	}
	s.queueBusy = true
	s.push(&event{at: s.now + s.qsched.DecisionLatency(), kind: evQueueTick})
}

func (s *Sim) handleQueueTick() {
	s.queueBusy = false
	if len(s.queue) == 0 {
		return
	}
	id := s.queue[0]
	s.queue = s.queue[1:]
	t := s.env.Cluster.Task(id)
	if t == nil || t.State != cluster.TaskPending {
		s.kickQueue()
		return
	}
	if m, ok := s.qsched.PlaceTask(t, s.now); ok {
		if err := s.env.Cluster.Place(id, m, s.now); err == nil {
			s.kickQueue()
			return
		}
	}
	// Head-of-line blocked: requeue and wait for a completion to retry.
	s.queue = append([]cluster.TaskID{id}, s.queue...)
}

func (s *Sim) handleRetryTask(id cluster.TaskID) {
	t := s.env.Cluster.Task(id)
	if t == nil || t.State != cluster.TaskPending {
		return
	}
	if m, ok := s.qsched.PlaceTask(t, s.now); ok {
		if err := s.env.Cluster.Place(id, m, s.now); err == nil {
			return
		}
	}
	// Retry a distributed decision shortly.
	s.push(&event{at: s.now + 10*time.Millisecond, kind: evRetryTask, task: id})
}

// Run builds and executes a simulation in one call.
func Run(cfg Config) (*Results, error) {
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return s.Run()
}
