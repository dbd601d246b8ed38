package cluster

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"firmament/internal/wal"
)

// buildMessyCluster drives a cluster through a random lifecycle so the
// snapshot has pending, running and completed tasks, unhealthy machines,
// and undrained events. It also returns every job and task record it
// handed out, retired ones included (they stay readable after Complete).
func buildMessyCluster(t *testing.T, seed int64) (*Cluster, []*Job, map[TaskID]*Task) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	c := NewSharded(Topology{Racks: 3, MachinesPerRack: 4, SlotsPerMachine: 4}, 4)
	var jobs []*Job
	tasks := make(map[TaskID]*Task)
	var running []TaskID
	// One job runs to completion outright, so a finished job retires.
	done := c.SubmitJob(Batch, 0, 0, make([]TaskSpec, 2))
	jobs = append(jobs, done)
	for i, tid := range done.Tasks {
		tasks[tid] = c.Task(tid)
		if err := c.Place(tid, MachineID(i), time.Millisecond); err != nil {
			t.Fatal(err)
		}
		if err := c.Complete(tid, time.Second); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		n := 1 + rng.Intn(4)
		specs := make([]TaskSpec, n)
		for k := range specs {
			specs[k] = TaskSpec{
				Duration:  time.Duration(rng.Intn(1000)) * time.Millisecond,
				InputFile: int64(rng.Intn(10)) - 1,
				InputSize: rng.Int63n(1 << 20),
				NetDemand: rng.Int63n(1 << 16),
			}
		}
		j := c.SubmitJob(JobClass(rng.Intn(2)), rng.Intn(3), time.Duration(i)*time.Second, specs)
		jobs = append(jobs, j)
		for _, tid := range j.Tasks {
			tasks[tid] = c.Task(tid)
			if rng.Intn(3) == 0 {
				continue // leave pending
			}
			m := MachineID(rng.Intn(c.NumMachines()))
			if c.Place(tid, m, time.Duration(i)*time.Second+time.Millisecond) == nil {
				running = append(running, tid)
			}
		}
	}
	// Complete some, preempt some.
	for i, tid := range running {
		switch i % 3 {
		case 0:
			c.Complete(tid, 30*time.Second)
		case 1:
			c.Preempt(tid, 31*time.Second)
		}
	}
	c.RemoveMachine(2, 40*time.Second)
	c.RemoveMachine(7, 41*time.Second)
	c.RestoreMachine(2, 42*time.Second)
	return c, jobs, tasks
}

// encodeSnapshotV1 writes c in the version-1 layout, which kept every
// completed task and finished job in the tables. The live cluster retired
// those records, so they come from the handles the build kept (jobs in
// submission order, which lands each shard's jobs in sorted ID order).
func encodeSnapshotV1(e *wal.Enc, c *Cluster, jobs []*Job, tasks map[TaskID]*Task) {
	e.U32(1)
	e.I64(int64(c.topo.Racks))
	e.I64(int64(c.topo.MachinesPerRack))
	e.I64(int64(c.topo.SlotsPerMachine))
	e.I64(c.topo.NICBps)
	e.U32(uint32(len(c.shards)))
	e.I64(int64(c.nextJob.Load()))
	e.U32(uint32(len(c.machines)))
	for _, m := range c.machines {
		e.Bool(m.healthy)
	}
	for i, sh := range c.shards {
		var mine []*Job
		for _, j := range jobs {
			if int64(j.ID)&c.shardMask == int64(i) {
				mine = append(mine, j)
			}
		}
		e.U32(uint32(len(mine)))
		for _, j := range mine {
			e.I64(int64(j.ID))
			e.U8(uint8(j.Class))
			e.I64(int64(j.Priority))
			e.Dur(j.SubmitTime)
			e.I64(int64(j.remaining))
			e.U32(uint32(len(j.Tasks)))
			for _, tid := range j.Tasks {
				t := tasks[tid]
				e.I64(int64(t.ID))
				e.Dur(t.Duration)
				e.I64(t.InputFile)
				e.I64(t.InputSize)
				e.I64(t.NetDemand)
				e.U8(uint8(t.State))
				e.Dur(t.SubmitTime)
				e.Dur(t.StartTime)
				e.Dur(30 * time.Second) // finish time
				e.I64(int64(t.Machine))
				e.I64(int64(t.Preemptions))
			}
		}
		e.U32(uint32(len(sh.events)))
		for _, ev := range sh.events {
			EncodeEvent(e, ev)
		}
	}
}

// TestSnapshotV1Decodes restores version-1 snapshots, completed records
// and all: the completed records must fold into the counter and finished
// jobs must vanish, leaving exactly the state the live (version-2) cluster
// holds — same fingerprint, same tallies.
func TestSnapshotV1Decodes(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		c, jobs, tasks := buildMessyCluster(t, seed)
		var e wal.Enc
		encodeSnapshotV1(&e, c, jobs, tasks)
		d := wal.NewDec(e.B)
		c1, retired, err := DecodeSnapshot(d)
		if err != nil {
			t.Fatalf("seed %d: DecodeSnapshot(v1): %v", seed, err)
		}
		if d.Remaining() != 0 {
			t.Fatalf("seed %d: %d undecoded bytes", seed, d.Remaining())
		}
		completed := 0
		var finished []JobID
		for _, j := range jobs {
			if j.remaining == 0 {
				finished = append(finished, j.ID)
			}
			for _, tid := range j.Tasks {
				if tasks[tid].State == TaskCompleted {
					completed++
				}
			}
		}
		if completed == 0 || len(finished) == 0 {
			t.Fatalf("seed %d: v1 image holds %d completed tasks and %d finished jobs; want both", seed, completed, len(finished))
		}
		slices.Sort(retired)
		if !slices.Equal(retired, finished) {
			t.Fatalf("seed %d: decode reports retired jobs %v, the image's finished jobs are %v", seed, retired, finished)
		}
		p1, r1, d1 := c.CountStates()
		p2, r2, d2 := c1.CountStates()
		if p1 != p2 || r1 != r2 || d1 != d2 || d2 != completed {
			t.Fatalf("seed %d: tallies (%d %d %d) from v1, live (%d %d %d), %d completed records",
				seed, p2, r2, d2, p1, r1, d1, completed)
		}
		if c1.NumPending() != c.NumPending() || c1.NumRunning() != c.NumRunning() {
			t.Fatalf("seed %d: aggregates pending %d/%d running %d/%d", seed,
				c1.NumPending(), c.NumPending(), c1.NumRunning(), c.NumRunning())
		}
		for _, j := range jobs {
			if (c1.Job(j.ID) == nil) != (j.remaining == 0) {
				t.Fatalf("seed %d: job %d (remaining %d) restored=%v", seed, j.ID, j.remaining, c1.Job(j.ID) != nil)
			}
		}
		if c1.Fingerprint() != c.Fingerprint() {
			t.Fatalf("seed %d: v1 restore differs from the live cluster", seed)
		}
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		c, _, _ := buildMessyCluster(t, seed)
		var e wal.Enc
		c.EncodeSnapshot(&e)
		d := wal.NewDec(e.B)
		c2, retired, err := DecodeSnapshot(d)
		if err != nil {
			t.Fatalf("seed %d: DecodeSnapshot: %v", seed, err)
		}
		if len(retired) != 0 {
			t.Fatalf("seed %d: version-2 decode reports retired jobs %v", seed, retired)
		}
		if d.Remaining() != 0 {
			t.Fatalf("seed %d: %d undecoded bytes", seed, d.Remaining())
		}
		if c.Fingerprint() != c2.Fingerprint() {
			t.Fatalf("seed %d: fingerprint mismatch after round trip", seed)
		}
		// Aggregates must be rebuilt, not just tables.
		if c.NumPending() != c2.NumPending() {
			t.Fatalf("pending %d != %d", c.NumPending(), c2.NumPending())
		}
		if c.NumRunning() != c2.NumRunning() {
			t.Fatalf("running %d != %d", c.NumRunning(), c2.NumRunning())
		}
		if c.TotalSlots() != c2.TotalSlots() {
			t.Fatalf("slots %d != %d", c.TotalSlots(), c2.TotalSlots())
		}
		if c.NumQueuedEvents() != c2.NumQueuedEvents() {
			t.Fatalf("events %d != %d", c.NumQueuedEvents(), c2.NumQueuedEvents())
		}
		p1, r1, d1 := c.CountStates()
		p2, r2, d2 := c2.CountStates()
		if p1 != p2 || r1 != r2 || d1 != d2 {
			t.Fatalf("state tally mismatch: (%d %d %d) != (%d %d %d)", p1, r1, d1, p2, r2, d2)
		}
		if d1 == 0 {
			t.Fatalf("seed %d: messy cluster completed nothing", seed)
		}
		// The decoded cluster must keep working: place a pending task,
		// submit a new job (allocator must be past every restored ID).
		j := c2.SubmitJob(Batch, 0, time.Minute, []TaskSpec{{Duration: time.Second}})
		if got := c2.Job(j.ID); got == nil {
			t.Fatal("submit on decoded cluster lost the job")
		}
		c.Jobs(func(old *Job) {
			if old.ID == j.ID {
				t.Fatalf("decoded cluster reused live job ID %d", j.ID)
			}
		})
		// Event queues must carry over in order.
		var ev1, ev2 []Event
		c.DrainEventShards(func(b []Event) { ev1 = append(ev1, b...) })
		c2.DrainEventShards(func(b []Event) { ev2 = append(ev2, b...) })
		// c2 has extra events from the post-decode submit; the prefix per
		// shard matches, so compare counts only.
		if len(ev2) != len(ev1)+1 {
			t.Fatalf("drained %d events, want %d", len(ev2), len(ev1)+1)
		}
	}
}

func TestSubmitJobWithIDReplay(t *testing.T) {
	c := NewSharded(Topology{Racks: 1, MachinesPerRack: 2, SlotsPerMachine: 2}, 2)
	// Replay-style: register under explicit IDs, out of order.
	c.SubmitJobWithID(5, Batch, 0, time.Second, []TaskSpec{{}})
	c.SubmitJobWithID(2, Service, 1, 2*time.Second, []TaskSpec{{}, {}})
	if c.Job(5) == nil || c.Job(2) == nil {
		t.Fatal("jobs not registered")
	}
	if got := c.Job(2).Tasks[1]; JobOfTask(got) != 2 {
		t.Fatalf("task %d not in job 2", got)
	}
	// Fresh allocation must not collide with the replayed IDs.
	j := c.SubmitJob(Batch, 0, 3*time.Second, []TaskSpec{{}})
	if j.ID <= 5 {
		t.Fatalf("fresh job ID %d collides with replayed range", j.ID)
	}
}

func TestEventCodecRoundTrip(t *testing.T) {
	events := []Event{
		{Kind: EventTaskSubmitted, Task: taskID(3, 7), Time: time.Second},
		{Kind: EventTaskCompleted, Task: taskID(1, 0), Machine: 4, Time: 2 * time.Second},
		{Kind: EventTaskEvicted, Task: taskID(2, 2), Machine: 1, Time: 3 * time.Second},
		{Kind: EventMachineRemoved, Machine: 9, Time: 4 * time.Second},
		{Kind: EventMachineAdded, Machine: 9, Time: 5 * time.Second},
	}
	var e wal.Enc
	for _, ev := range events {
		EncodeEvent(&e, ev)
	}
	d := wal.NewDec(e.B)
	for i, want := range events {
		if got := DecodeEvent(d); got != want {
			t.Fatalf("event %d: got %+v want %+v", i, got, want)
		}
	}
	if d.Err() != nil || d.Remaining() != 0 {
		t.Fatalf("err %v remaining %d", d.Err(), d.Remaining())
	}
}

func TestMachineOpErrors(t *testing.T) {
	c := New(Topology{Racks: 1, MachinesPerRack: 2, SlotsPerMachine: 1})
	if err := c.RemoveMachine(99, 0); err == nil {
		t.Fatal("remove of unknown machine succeeded")
	}
	if err := c.RestoreMachine(0, 0); err == nil {
		t.Fatal("restore of healthy machine succeeded")
	}
	if err := c.RemoveMachine(0, 0); err != nil {
		t.Fatalf("first remove: %v", err)
	}
	if err := c.RemoveMachine(0, 0); err == nil {
		t.Fatal("double remove succeeded")
	}
	if err := c.RestoreMachine(0, 0); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if slots := c.TotalSlots(); slots != 2 {
		t.Fatalf("slots after remove+restore = %d, want 2", slots)
	}
}
