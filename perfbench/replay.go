package main

import (
	"container/heap"
	"fmt"
	"runtime/metrics"
	"time"

	"firmament/internal/cluster"
	"firmament/internal/core"
	"firmament/internal/policy"
)

// coreRounds is the stepped core replay's per-round record.
type coreRounds struct {
	drainUs, updateUs, solveUs, extractUs, applyUs, roundUs []float64
	updateAllocKB                                           []float64
	events, changes                                         []float64
	pool                                                    []core.PoolResult
}

// replayStep is the virtual time each replayed round folds in: the
// service's default round interval.
const replayStep = time.Millisecond

// replayCore replays a workload's generated inputs straight into the core
// scheduler in virtual time, for up to budget of wall time. Each round
// folds the events due in one replayStep — arrivals at the workload's rate
// (or, closed loop, the clients' next jobs), completions of tasks whose
// duration has elapsed, machine churn — and then times the round's steps
// through the core's public functions one by one.
func replayCore(w *workload, in *streamInputs, job jobInput, churn []machineOp, budget time.Duration) (*coreRounds, error) {
	cl := cluster.New(w.topo)
	sched := core.NewScheduler(cl, policy.NewLoadSpread(cl), core.DefaultConfig())
	gm, pool := sched.GraphManager(), sched.Pool()
	out := &coreRounds{}

	var comps compHeap
	durs := make(map[cluster.JobID][]time.Duration)
	submit := func(now time.Duration, j jobInput, specs []cluster.TaskSpec) {
		job := cl.SubmitJob(j.class, j.prio, now, specs)
		d := make([]time.Duration, len(specs))
		for i, s := range specs {
			d[i] = s.Duration
		}
		durs[job.ID] = d
	}
	var scale float64
	if w.openLoop {
		scale = in.durScale(w.rate)
		for _, j := range in.prefill {
			submit(0, j, scaled(j, scale))
		}
	}
	var placedLast []cluster.TaskID // closed loop: completed one round after placement

	allocs := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	heapAllocs := func() uint64 {
		metrics.Read(allocs)
		return allocs[0].Value.Uint64()
	}

	var cum float64
	next, nextOp := 0, 0
	start := time.Now()
	for now := time.Duration(0); time.Since(start) < budget; {
		now += replayStep
		if w.openLoop {
			for ; time.Duration(cum/w.rate*float64(time.Second)) <= now; next++ {
				j := in.stream[next%len(in.stream)]
				cum += float64(len(j.specs))
				submit(now, j, scaled(j, scale))
			}
			for len(comps) > 0 && time.Duration(comps[0].at) <= now {
				c := heap.Pop(&comps).(completion)
				cl.Complete(c.task, now) // a task evicted by churn is stale here
			}
			for ; nextOp < len(churn) && churn[nextOp].at <= now; nextOp++ {
				if op := churn[nextOp]; op.remove {
					cl.RemoveMachine(op.machine, now)
				} else {
					cl.RestoreMachine(op.machine, now)
				}
			}
		} else {
			for _, t := range placedLast {
				cl.Complete(t, now)
			}
			placedLast = placedLast[:0]
			for c := 0; c < w.clients; c++ {
				submit(now, job, job.specs)
			}
		}

		t0 := time.Now()
		nev := gm.ApplyClusterEvents()
		t1 := time.Now()
		a0 := heapAllocs()
		gm.UpdateRound(now)
		a1 := heapAllocs()
		t2 := time.Now()
		nch := gm.Changes().Len()
		res, err := pool.Solve(gm.Graph(), gm.Changes())
		gm.Changes().Reset()
		if err != nil {
			return nil, fmt.Errorf("replayed round at %v: %w", now, err)
		}
		t3 := time.Now()
		m := gm.ExtractPlacements()
		t4 := time.Now()
		sched.ApplyRoundRecorded(&core.Round{Mappings: m}, now, func(d core.Decision) {
			if d.Kind != core.DecisionPlaced {
				return
			}
			if w.openLoop {
				dur := durs[d.Job][int(int64(d.Task)&0xffffffff)]
				heap.Push(&comps, completion{at: int64(now + dur), task: d.Task})
			} else {
				placedLast = append(placedLast, d.Task)
			}
		})
		t5 := time.Now()

		us := func(a, b time.Time) float64 { return float64(b.Sub(a)) / 1e3 }
		out.drainUs = append(out.drainUs, us(t0, t1))
		out.updateUs = append(out.updateUs, us(t1, t2))
		out.solveUs = append(out.solveUs, us(t2, t3))
		out.extractUs = append(out.extractUs, us(t3, t4))
		out.applyUs = append(out.applyUs, us(t4, t5))
		out.roundUs = append(out.roundUs, us(t0, t5))
		out.updateAllocKB = append(out.updateAllocKB, float64(a1-a0)/1024)
		out.events = append(out.events, float64(nev))
		out.changes = append(out.changes, float64(nch))
		out.pool = append(out.pool, res)
	}
	return out, nil
}
