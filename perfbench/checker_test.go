package main

import (
	"strings"
	"testing"

	"firmament/internal/api"
	"firmament/internal/cluster"
	"firmament/internal/core"
	"firmament/internal/service"
)

func task(j cluster.JobID, i int) cluster.TaskID { return cluster.TaskID(int64(j)<<32 | int64(i)) }

func ev(t cluster.TaskID, kind core.DecisionKind, m cluster.MachineID, round uint64) watchEvent {
	return watchEvent{p: service.Placement{Task: t, Job: cluster.JobOfTask(t), Kind: kind, Machine: m, Round: round}}
}

// cleanHistory is a valid run: two jobs, a machine removal that evicts
// one task (re-placed elsewhere), a restore, and conserving counters.
func cleanHistory() ([]ackedJob, []watchEvent, []opRec, api.Stats) {
	jobs := []ackedJob{
		{id: 1, tasks: []cluster.TaskID{task(1, 0), task(1, 1)}},
		{id: 2, tasks: []cluster.TaskID{task(2, 0)}},
	}
	events := []watchEvent{
		ev(task(1, 0), core.DecisionPlaced, 3, 1),
		ev(task(1, 1), core.DecisionPlaced, 4, 1),
		// Machine 3 removed between rounds 2 and 3: task(1,0) evicted and
		// placed again; nothing lands on 3 until it is restored.
		ev(task(1, 0), core.DecisionPlaced, 5, 4),
		ev(task(2, 0), core.DecisionPlaced, 6, 4),
		ev(task(1, 1), core.DecisionPreempted, cluster.InvalidMachine, 5),
		ev(task(1, 1), core.DecisionPlaced, 3, 9),
	}
	ops := []opRec{
		{machine: 3, remove: true, before: 2, after: 2},
		{machine: 3, remove: false, before: 8, after: 8},
	}
	final := api.Stats{Submitted: 3, Running: 2, Completed: 1, Placed: 5, Preempted: 1}
	return jobs, events, ops, final
}

func TestCheckerAcceptsCleanHistory(t *testing.T) {
	jobs, events, ops, final := cleanHistory()
	if vs := checkHistory(jobs, events, ops, final); len(vs) != 0 {
		t.Fatalf("clean history flagged: %+v", vs)
	}
}

func TestCheckerCatchesPlantedViolations(t *testing.T) {
	cases := []struct {
		name  string
		plant func(jobs *[]ackedJob, events *[]watchEvent, ops *[]opRec, final *api.Stats)
		want  string
	}{
		{"duplicate placement", func(_ *[]ackedJob, events *[]watchEvent, _ *[]opRec, final *api.Stats) {
			*events = append(*events, ev(task(2, 0), core.DecisionPlaced, 7, 10))
			final.Placed++
		}, "second placement without a preemption"},
		{"placement on removed machine", func(_ *[]ackedJob, events *[]watchEvent, _ *[]opRec, _ *api.Stats) {
			(*events)[3] = ev(task(2, 0), core.DecisionPlaced, 3, 4)
		}, "placement on a removed machine"},
		{"placement on a machine never restored", func(_ *[]ackedJob, events *[]watchEvent, ops *[]opRec, _ *api.Stats) {
			*ops = (*ops)[:1]
			(*events)[5] = ev(task(1, 1), core.DecisionPlaced, 3, 20)
		}, "placement on a removed machine"},
		{"acknowledged task never placed", func(jobs *[]ackedJob, _ *[]watchEvent, _ *[]opRec, _ *api.Stats) {
			(*jobs)[1].tasks = append((*jobs)[1].tasks, task(2, 1))
		}, "acknowledged task never placed"},
		{"counters do not conserve", func(_ *[]ackedJob, _ *[]watchEvent, _ *[]opRec, final *api.Stats) {
			final.Completed = 0
		}, "counters do not conserve"},
		{"watch drops", func(_ *[]ackedJob, _ *[]watchEvent, _ *[]opRec, final *api.Stats) {
			final.WatchDropped = 1
			final.Placed++
		}, "Watch events dropped"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			jobs, events, ops, final := cleanHistory()
			c.plant(&jobs, &events, &ops, &final)
			vs := checkHistory(jobs, events, ops, final)
			for _, v := range vs {
				if strings.Contains(v.what, c.want) {
					return
				}
			}
			t.Fatalf("planted %s not caught; got %+v", c.name, vs)
		})
	}
}

// A placement in the round that may have drained just before a removal
// was queued is legal: the bracket's lower round can precede the enqueue.
func TestCheckerAllowsRacingRound(t *testing.T) {
	jobs, events, ops, final := cleanHistory()
	events[3] = ev(task(2, 0), core.DecisionPlaced, 3, 2) // round 2 == remove.after
	// The eviction of task(2,0) by the removal then re-places it.
	events = append(events, ev(task(2, 0), core.DecisionPlaced, 8, 4))
	final.Placed++
	if vs := checkHistory(jobs, events, ops, final); len(vs) != 0 {
		t.Fatalf("racing round flagged: %+v", vs)
	}
}
