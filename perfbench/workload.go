package main

import (
	"math/rand"
	"time"

	"firmament/internal/cluster"
	"firmament/internal/trace"
)

// workload is one named traffic mix. Open-loop workloads replay a
// Google-shape job stream at a fixed offered task rate; the closed loop
// resubmits one job shape as fast as it is placed.
type workload struct {
	name     string
	topo     cluster.Topology
	openLoop bool
	http     bool    // API client over loopback in front of a durable service
	rate     float64 // open loop: offered tasks/s in the fixed-rate phase
	ladder   bool    // open loop: search the highest rate meeting latencyLimit
	clients  int     // closed loop: concurrent submitters
	jobTasks int     // closed loop: tasks per job
}

const (
	// traceOpenRate is the fixed-rate phase of trace-open: about 60% of the
	// max_rate_tasks_s the ladder measured on a 2-core x86 host (see
	// README.md for the calibration).
	traceOpenRate = 6000
	// httpRate is the lower fixed rate of trace-http-durable.
	httpRate = 3000
	// latencyLimit is the place_p99_ms a ladder rung must meet.
	latencyLimit = 100 * time.Millisecond
	// snapshotEvery is the durable service's snapshot cadence in rounds.
	snapshotEvery = 256
	// utilization is the slot share the trace keeps busy (service plus
	// batch); serviceShare is the part of it held by long-running service
	// jobs, prefilled in setup.
	utilization  = 0.5
	serviceShare = 0.4
)

var workloads = map[string]*workload{
	"trace-open": {name: "trace-open", openLoop: true, rate: traceOpenRate, ladder: true,
		topo: cluster.Topology{Racks: 16, MachinesPerRack: 16, SlotsPerMachine: 12}},
	"recurring-closed": {name: "recurring-closed", clients: 2, jobTasks: 32,
		topo: cluster.Topology{Racks: 4, MachinesPerRack: 16, SlotsPerMachine: 32}},
	"trace-http-durable": {name: "trace-http-durable", openLoop: true, http: true, rate: httpRate,
		topo: cluster.Topology{Racks: 16, MachinesPerRack: 16, SlotsPerMachine: 12}},
}

func (w *workload) machines() int { return w.topo.Racks * w.topo.MachinesPerRack }
func (w *workload) slots() int    { return w.machines() * w.topo.SlotsPerMachine }

// jobInput is one generated job submission.
type jobInput struct {
	class cluster.JobClass
	prio  int
	specs []cluster.TaskSpec
}

// streamInputs are an open-loop workload's generated inputs: the jobs
// submitted during setup (long-running service jobs and the batch backlog
// of a cluster in steady state) and the arrival stream, in order. Arrival
// times are not part of the inputs: the runner spaces jobs at the offered
// task rate of the phase that submits them, and scales durations so that
// Little's law keeps the batch occupancy at its steady-state level.
type streamInputs struct {
	prefill []jobInput
	stream  []jobInput
	// meanDur is the mean batch task duration in the stream as generated.
	meanDur time.Duration
	// batchSlots is the batch occupancy target: the slots not held by
	// service jobs at the trace's utilization.
	batchSlots float64
}

// genSpeedup is the trace speedup the stream is generated at; only the
// shape of the durations matters, the runner rescales them per phase.
const genSpeedup = 1000

// generateStream generates at least tasks arrival-stream tasks for w from
// seed with trace.Generate: Google-shape job sizes (45% single-task,
// heavy-tailed, capped at a tenth of the cluster as the trace package
// documents for subsampled clusters), log-normal batch durations and a
// prefilled steady state.
func generateStream(w *workload, seed int64, tasks int) *streamInputs {
	slots := float64(w.slots())
	batchSlots := slots * utilization * (1 - serviceShare)
	// Generated task rate at genSpeedup (Little's law, as trace.Generate
	// tunes it): batch slots over the mean log-normal duration.
	meanDur := 420 * 4.1 / genSpeedup // seconds; exp(1.68^2/2) ≈ 4.1
	horizon := time.Duration(float64(tasks) / (batchSlots / meanDur) * 1.3 * float64(time.Second))
	tw := trace.Generate(trace.Config{
		Machines:        w.machines(),
		SlotsPerMachine: w.topo.SlotsPerMachine,
		Utilization:     utilization,
		ServiceShare:    serviceShare,
		Horizon:         horizon,
		Speedup:         genSpeedup,
		Seed:            seed,
		Prefill:         true,
		MaxJobSize:      w.slots() / 10,
	})
	in := &streamInputs{batchSlots: batchSlots}
	var sum time.Duration
	var n int
	for _, j := range tw.Jobs {
		ji := jobInput{class: j.Class, prio: j.Priority, specs: make([]cluster.TaskSpec, len(j.Tasks))}
		for i, t := range j.Tasks {
			ji.specs[i] = cluster.TaskSpec{Duration: t.Duration, InputSize: t.InputSize, NetDemand: t.NetDemand}
		}
		if j.Submit == 0 {
			in.prefill = append(in.prefill, ji)
			continue
		}
		in.stream = append(in.stream, ji)
		for _, t := range j.Tasks {
			sum += t.Duration
			n++
		}
	}
	if n > 0 {
		in.meanDur = sum / time.Duration(n)
	}
	return in
}

// durScale returns the factor that keeps batch occupancy at its target
// when tasks arrive at rate per second: occupancy = rate × mean duration.
func (in *streamInputs) durScale(rate float64) float64 {
	return in.batchSlots / (rate * in.meanDur.Seconds())
}

// recurringJob returns the closed loop's one job shape, drawn from seed.
func recurringJob(w *workload, seed int64) jobInput {
	rng := rand.New(rand.NewSource(seed))
	spec := cluster.TaskSpec{
		Duration:  time.Duration(1+rng.Intn(60)) * time.Second,
		InputSize: int64(16+rng.Intn(1024)) << 20,
	}
	ji := jobInput{class: cluster.Batch, prio: rng.Intn(4), specs: make([]cluster.TaskSpec, w.jobTasks)}
	for i := range ji.specs {
		ji.specs[i] = spec
	}
	return ji
}

// machineOp is one scheduled machine removal or restore.
type machineOp struct {
	at      time.Duration // offset from the window start
	machine cluster.MachineID
	remove  bool
}

// machineChurn schedules seeded remove/restore pairs over window: a
// removal every 1.5–3 s, each restored 0.5–1.5 s later (so at most one
// machine is down at a time). A restore falling past the window is left
// to the drain.
func machineChurn(w *workload, seed int64, window time.Duration) []machineOp {
	rng := rand.New(rand.NewSource(seed ^ 0x6d616368))
	var ops []machineOp
	for at := jitter(rng, 1500, 3000); at < window; at += jitter(rng, 1500, 3000) {
		m := cluster.MachineID(rng.Intn(w.machines()))
		ops = append(ops, machineOp{at: at, machine: m, remove: true})
		if back := at + jitter(rng, 500, 1500); back < window {
			ops = append(ops, machineOp{at: back, machine: m})
		}
	}
	return ops
}

func jitter(rng *rand.Rand, loMs, hiMs int) time.Duration {
	return time.Duration(loMs+rng.Intn(hiMs-loMs)) * time.Millisecond
}
