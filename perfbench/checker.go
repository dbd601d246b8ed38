package main

import (
	"fmt"
	"sort"

	"firmament/internal/api"
	"firmament/internal/cluster"
	"firmament/internal/core"
	"firmament/internal/service"
)

// The output checker replays the history a client saw — acknowledged
// submits, Watch events in receipt order, machine ops bracketed by the
// round counter read just before and just after each call, and the final
// counters — and reports every violation of four properties:
//
//   - every acknowledged task is placed;
//   - no task is placed a second time without a preemption, or a removal
//     of its machine, in between;
//   - nothing lands on a machine that was removed and not yet restored;
//   - the final counters conserve tasks, and Watch delivered every
//     decision the counters report.
//
// Round brackets make the machine checks exact without seeing inside the
// service: a round's number is taken before it drains its op queue, so
// every round numbered above the counter read after a call has enacted
// it, and every round numbered below the counter read before a call
// drained its queue before the op was queued.

// ackedJob is one acknowledged submission.
type ackedJob struct {
	id    cluster.JobID
	tasks []cluster.TaskID
}

// watchEvent is one Watch receipt.
type watchEvent struct {
	p  service.Placement
	at int64 // ns since the run epoch
}

// opRec is one acknowledged machine op with its round bracket.
type opRec struct {
	machine       cluster.MachineID
	remove        bool
	before, after int64 // Stats().Rounds just before and just after the call
}

// violation is one class of checker finding with its count.
type violation struct {
	what  string
	count int
	first string // the first instance, for the report
}

// checkHistory returns the violations in a run's client-visible history.
// ops must be in call order.
func checkHistory(jobs []ackedJob, events []watchEvent, ops []opRec, final api.Stats) []violation {
	found := make(map[string]*violation)
	var order []string
	flag := func(what, detail string) {
		v := found[what]
		if v == nil {
			v = &violation{what: what, first: detail}
			found[what] = v
			order = append(order, what)
		}
		v.count++
	}

	known := make(map[cluster.TaskID]bool)
	for _, j := range jobs {
		for _, t := range j.tasks {
			known[t] = true
		}
	}

	// Down windows per machine: rounds in (remove.after, restore.before)
	// certainly ran with the machine removed.
	type window struct{ from, to int64 } // exclusive bounds; to < 0: open
	down := make(map[cluster.MachineID][]window)
	open := make(map[cluster.MachineID]int64)
	removes := make(map[cluster.MachineID][]opRec)
	for _, o := range ops {
		if o.remove {
			open[o.machine] = o.after
			removes[o.machine] = append(removes[o.machine], o)
			continue
		}
		if from, ok := open[o.machine]; ok {
			down[o.machine] = append(down[o.machine], window{from, o.before})
			delete(open, o.machine)
		}
	}
	for m, from := range open {
		down[m] = append(down[m], window{from, -1})
	}
	isDown := func(m cluster.MachineID, round int64) bool {
		for _, w := range down[m] {
			if round > w.from && (w.to < 0 || round < w.to) {
				return true
			}
		}
		return false
	}
	// evicted reports whether a removal of m may have been enacted in a
	// round in (r1, r2].
	evicted := func(m cluster.MachineID, r1, r2 int64) bool {
		for _, o := range removes[m] {
			if o.before <= r2 && o.after+1 > r1 {
				return true
			}
		}
		return false
	}

	type taskState struct {
		running bool
		machine cluster.MachineID
		round   int64
	}
	state := make(map[cluster.TaskID]*taskState)
	var placedEvents, migratedEvents, preemptedEvents int64
	for _, e := range events {
		p := e.p
		round := int64(p.Round)
		if !known[p.Task] {
			flag("decision for a task no acknowledged submit returned",
				fmt.Sprintf("task %d (%s) in round %d", p.Task, p.Kind, round))
		}
		st := state[p.Task]
		switch p.Kind {
		case core.DecisionPlaced:
			placedEvents++
			if st == nil {
				st = &taskState{}
				state[p.Task] = st
			} else if st.running && !evicted(st.machine, st.round, round) {
				flag("second placement without a preemption in between",
					fmt.Sprintf("task %d on machine %d in round %d, already on %d since round %d",
						p.Task, p.Machine, round, st.machine, st.round))
			}
			st.running, st.machine, st.round = true, p.Machine, round
		case core.DecisionMigrated:
			migratedEvents++
			if st == nil || !st.running {
				flag("migration of a task that was not running", fmt.Sprintf("task %d in round %d", p.Task, round))
				st = &taskState{}
				state[p.Task] = st
			}
			st.running, st.machine, st.round = true, p.Machine, round
		case core.DecisionPreempted:
			preemptedEvents++
			if st != nil {
				st.running = false
			}
		}
		if (p.Kind == core.DecisionPlaced || p.Kind == core.DecisionMigrated) && isDown(p.Machine, round) {
			flag("placement on a removed machine",
				fmt.Sprintf("task %d on machine %d in round %d", p.Task, p.Machine, round))
		}
	}

	var unplaced []cluster.TaskID
	for _, j := range jobs {
		for _, t := range j.tasks {
			if state[t] == nil {
				unplaced = append(unplaced, t)
			}
		}
	}
	sort.Slice(unplaced, func(i, k int) bool { return unplaced[i] < unplaced[k] })
	for _, t := range unplaced {
		flag("acknowledged task never placed", fmt.Sprintf("task %d", t))
	}

	if got := final.Pending + final.Running + final.Completed; got != final.Submitted {
		flag("counters do not conserve tasks",
			fmt.Sprintf("submitted %d != pending %d + running %d + completed %d",
				final.Submitted, final.Pending, final.Running, final.Completed))
	}
	if final.WatchDropped > 0 {
		flag("Watch events dropped", fmt.Sprintf("%d dropped", final.WatchDropped))
	}
	for _, c := range []struct {
		kind        string
		seen, count int64
	}{
		{"placed", placedEvents, final.Placed},
		{"migrated", migratedEvents, final.Migrated},
		{"preempted", preemptedEvents, final.Preempted},
	} {
		if c.seen+final.WatchDropped < c.count || c.seen > c.count {
			flag("Watch events disagree with the counters",
				fmt.Sprintf("%d %s events received, counters say %d", c.seen, c.kind, c.count))
		}
	}

	out := make([]violation, 0, len(order))
	for _, what := range order {
		out = append(out, *found[what])
	}
	return out
}

// violationCount sums the instances over all classes.
func violationCount(vs []violation) int {
	n := 0
	for _, v := range vs {
		n += v.count
	}
	return n
}
