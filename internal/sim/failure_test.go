package sim

import (
	"testing"
	"time"

	"firmament/internal/cluster"
	"firmament/internal/core"
	"firmament/internal/policy"
	"firmament/internal/trace"
)

// TestMachineFailureMidSimulation injects a machine failure while tasks are
// running: evicted tasks must reschedule elsewhere and still complete, with
// their response times reflecting the restart.
func TestMachineFailureMidSimulation(t *testing.T) {
	topo := cluster.Topology{Racks: 2, MachinesPerRack: 4, SlotsPerMachine: 2}
	w := trace.SingleJob(8, 2*time.Second)
	s, err := New(flowConfig(w, topo, core.ModeFirmament))
	if err != nil {
		t.Fatal(err)
	}
	// Inject the failure through the placement hook: when the fourth task
	// lands, its machine dies mid-apply. This also exercises hook
	// reentrancy — the eviction happens while the scheduler is still
	// applying the round.
	cl := s.Env().Cluster
	orig := cl.Hooks.Placed
	killed := false
	var victim cluster.MachineID = cluster.InvalidMachine
	placements := 0
	// Count the failure's evictions as they happen: completed tasks retire
	// from the cluster tables, so their records cannot be inspected after
	// the run. RemoveMachine invokes the hook before it returns.
	origPreempted := cl.Hooks.Preempted
	removing := false
	evicted := make(map[cluster.TaskID]bool)
	cl.Hooks.Preempted = func(task *cluster.Task, now time.Duration) {
		origPreempted(task, now)
		if removing {
			evicted[task.ID] = true
		}
	}
	cl.Hooks.Placed = func(task *cluster.Task, now time.Duration) {
		orig(task, now)
		placements++
		if placements == 4 && !killed {
			killed = true
			victim = task.Machine
			removing = true
			cl.RemoveMachine(victim, now)
			removing = false
			s.kickScheduler()
		}
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !killed {
		t.Fatal("failure never injected")
	}
	if res.TasksCompleted != 8 {
		t.Fatalf("completed %d/8 tasks despite machine failure", res.TasksCompleted)
	}
	if cl.Machine(victim).Running() != 0 {
		t.Fatal("failed machine still hosts tasks")
	}
	// At least one task must have been evicted and restarted (it then
	// completed: all 8 did).
	if len(evicted) == 0 {
		t.Fatal("no task was evicted from the failed machine")
	}
}

// TestFailureRecoveryEndToEnd uses the scheduler directly: place tasks,
// fail a machine, and verify rescheduling plus graph consistency — the
// §5.2 machine-failure change path.
func TestFailureRecoveryEndToEnd(t *testing.T) {
	cl := cluster.New(cluster.Topology{Racks: 2, MachinesPerRack: 4, SlotsPerMachine: 2})
	sched := core.NewScheduler(cl, policy.NewLoadSpread(cl), core.DefaultConfig())
	cl.SubmitJob(cluster.Batch, 0, 0, make([]cluster.TaskSpec, 10))
	if _, _, err := sched.RunOnce(0); err != nil {
		t.Fatal(err)
	}
	// Fail two machines in sequence, rescheduling in between.
	for i, victim := range []cluster.MachineID{0, 3} {
		now := time.Duration(i+1) * time.Second
		evicted := cl.Machine(victim).Running()
		cl.RemoveMachine(victim, now)
		_, ap, err := sched.RunOnce(now)
		if err != nil {
			t.Fatalf("reschedule after failure %d: %v", i, err)
		}
		if ap.Placed < evicted {
			t.Fatalf("only %d of %d evicted tasks rescheduled", ap.Placed, evicted)
		}
		if err := sched.GraphManager().Graph().CheckFeasible(); err != nil {
			t.Fatalf("graph infeasible after failure %d: %v", i, err)
		}
	}
	if cl.NumRunning() != 10 {
		t.Fatalf("running = %d after recoveries, want 10", cl.NumRunning())
	}
	// Restore a machine; the scheduler must be able to use it again.
	cl.RestoreMachine(0, 10*time.Second)
	cl.SubmitJob(cluster.Batch, 0, 10*time.Second, make([]cluster.TaskSpec, 2))
	if _, ap, err := sched.RunOnce(10 * time.Second); err != nil || ap.Placed != 2 {
		t.Fatalf("placement after restore: %+v, %v", ap, err)
	}
}

// TestOversubscriptionRecovery floods a tiny cluster, then lets tasks
// complete: every queued task must eventually run, and placement latency
// tails must reflect the queueing (the paper's §7.3 recovery behaviour).
func TestOversubscriptionRecovery(t *testing.T) {
	topo := cluster.Topology{Racks: 1, MachinesPerRack: 2, SlotsPerMachine: 2}
	w := trace.SingleJob(16, 200*time.Millisecond) // 4 slots, 4 waves
	res, err := Run(flowConfig(w, topo, core.ModeFirmament))
	if err != nil {
		t.Fatal(err)
	}
	if res.TasksCompleted != 16 {
		t.Fatalf("completed %d/16", res.TasksCompleted)
	}
	// Final wave waits ≈3 task durations.
	if res.PlacementLatency.Max() < 0.5 {
		t.Fatalf("max placement latency %.3fs, expected ≥3 waves of waiting",
			res.PlacementLatency.Max())
	}
	if res.VirtualEnd < 800*time.Millisecond {
		t.Fatalf("simulation ended at %v, before 4 waves could run", res.VirtualEnd)
	}
}
