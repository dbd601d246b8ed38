package cluster

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func testTopo() Topology {
	return Topology{Racks: 2, MachinesPerRack: 3, SlotsPerMachine: 4}
}

func TestNewClusterTopology(t *testing.T) {
	c := New(testTopo())
	if c.NumMachines() != 6 || c.NumRacks() != 2 {
		t.Fatalf("machines=%d racks=%d, want 6/2", c.NumMachines(), c.NumRacks())
	}
	if c.TotalSlots() != 24 {
		t.Fatalf("TotalSlots = %d, want 24", c.TotalSlots())
	}
	if got := c.RackOf(4); got != 1 {
		t.Fatalf("RackOf(4) = %d, want 1", got)
	}
	if len(c.RackMachines(0)) != 3 {
		t.Fatalf("rack 0 has %d machines, want 3", len(c.RackMachines(0)))
	}
	if c.Machine(0).NICBps != 10*1000*1000*1000/8 {
		t.Fatalf("default NIC = %d, want 10 Gb/s", c.Machine(0).NICBps)
	}
}

func TestTaskLifecycle(t *testing.T) {
	c := New(testTopo())
	job := c.SubmitJob(Batch, 1, 10*time.Second, []TaskSpec{
		{Duration: 5 * time.Second},
		{Duration: 6 * time.Second},
	})
	if len(job.Tasks) != 2 || c.NumPending() != 2 {
		t.Fatalf("tasks=%d pending=%d, want 2/2", len(job.Tasks), c.NumPending())
	}
	ev := c.DrainEvents()
	if len(ev) != 2 || ev[0].Kind != EventTaskSubmitted {
		t.Fatalf("events = %+v, want 2 submissions", ev)
	}
	id := job.Tasks[0]
	if err := c.Place(id, 2, 11*time.Second); err != nil {
		t.Fatalf("Place: %v", err)
	}
	task := c.Task(id)
	if task.State != TaskRunning || task.Machine != 2 || task.StartTime != 11*time.Second {
		t.Fatalf("task after place: %+v", task)
	}
	if c.Machine(2).Running() != 1 || c.NumPending() != 1 {
		t.Fatal("machine/pending counts wrong after place")
	}
	if err := c.Place(id, 3, 0); err == nil {
		t.Fatal("double place succeeded")
	}
	if err := c.Complete(id, 16*time.Second); err != nil {
		t.Fatalf("Complete: %v", err)
	}
	if task.State != TaskCompleted || task.Machine != InvalidMachine {
		t.Fatalf("task after complete: %+v", task)
	}
	if c.Task(id) != nil || c.NumCompleted() != 1 {
		t.Fatalf("completed task still in the tables (completed counter %d)", c.NumCompleted())
	}
	if c.Job(job.ID) == nil {
		t.Fatal("job retired with one task still pending")
	}
	ev = c.DrainEvents()
	if len(ev) != 1 || ev[0].Kind != EventTaskCompleted || ev[0].Machine != 2 {
		t.Fatalf("completion event = %+v", ev)
	}
}

func TestPlaceRespectsSlots(t *testing.T) {
	c := New(Topology{Racks: 1, MachinesPerRack: 1, SlotsPerMachine: 1})
	job := c.SubmitJob(Batch, 0, 0, []TaskSpec{{}, {}})
	if err := c.Place(job.Tasks[0], 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Place(job.Tasks[1], 0, 0); err == nil {
		t.Fatal("overcommitted slot accepted")
	}
}

func TestPreemptReturnsToPending(t *testing.T) {
	c := New(testTopo())
	job := c.SubmitJob(Service, 9, 0, []TaskSpec{{NetDemand: 100}})
	id := job.Tasks[0]
	if err := c.Place(id, 0, time.Second); err != nil {
		t.Fatal(err)
	}
	if got := c.Machine(0).ReservedBandwidth(); got != 100 {
		t.Fatalf("reserved = %d, want 100", got)
	}
	if err := c.Preempt(id, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	task := c.Task(id)
	if task.State != TaskPending || task.Preemptions != 1 || task.Machine != InvalidMachine {
		t.Fatalf("task after preempt: %+v", task)
	}
	if got := c.Machine(0).ReservedBandwidth(); got != 0 {
		t.Fatalf("reserved = %d after preempt, want 0", got)
	}
	c.DrainEvents()
	if c.NumPending() != 1 {
		t.Fatal("task not back in pending queue")
	}
}

func TestRemoveMachineEvictsTasks(t *testing.T) {
	c := New(testTopo())
	job := c.SubmitJob(Batch, 0, 0, []TaskSpec{{}, {}})
	c.Place(job.Tasks[0], 1, 0)
	c.Place(job.Tasks[1], 1, 0)
	c.DrainEvents()
	c.RemoveMachine(1, time.Minute)
	if c.Machine(1).Healthy() {
		t.Fatal("machine still healthy")
	}
	if c.NumPending() != 2 || c.NumRunning() != 0 {
		t.Fatalf("pending=%d running=%d, want 2/0", c.NumPending(), c.NumRunning())
	}
	ev := c.DrainEvents()
	evictions, removals := 0, 0
	for _, e := range ev {
		switch e.Kind {
		case EventTaskEvicted:
			evictions++
		case EventMachineRemoved:
			removals++
		}
	}
	if evictions != 2 || removals != 1 {
		t.Fatalf("evictions=%d removals=%d, want 2/1", evictions, removals)
	}
	if err := c.Place(job.Tasks[0], 1, 0); err == nil {
		t.Fatal("placed task on unhealthy machine")
	}
	if c.TotalSlots() != 20 {
		t.Fatalf("TotalSlots = %d after removal, want 20", c.TotalSlots())
	}
	c.RestoreMachine(1, 2*time.Minute)
	if !c.Machine(1).Healthy() || c.TotalSlots() != 24 {
		t.Fatal("restore failed")
	}
}

func TestSlotUtilization(t *testing.T) {
	c := New(Topology{Racks: 1, MachinesPerRack: 2, SlotsPerMachine: 2})
	job := c.SubmitJob(Batch, 0, 0, []TaskSpec{{}, {}})
	c.Place(job.Tasks[0], 0, 0)
	if u := c.SlotUtilization(); u != 0.25 {
		t.Fatalf("utilization = %v, want 0.25", u)
	}
	c.Place(job.Tasks[1], 1, 0)
	if u := c.SlotUtilization(); u != 0.5 {
		t.Fatalf("utilization = %v, want 0.5", u)
	}
}

// TestJobDone pins retirement: each completion removes the task's record,
// the last one removes the job's, and what the tables lose the completed
// counter keeps. Pointers handed out earlier stay readable.
func TestJobDone(t *testing.T) {
	c := New(testTopo())
	job := c.SubmitJob(Batch, 0, 0, []TaskSpec{{}, {}})
	other := c.SubmitJob(Batch, 0, 0, []TaskSpec{{}})
	c.Place(job.Tasks[0], 0, 0)
	c.Place(job.Tasks[1], 1, 0)
	first := c.Task(job.Tasks[0])
	if err := c.Complete(job.Tasks[0], time.Second); err != nil {
		t.Fatal(err)
	}
	if c.Job(job.ID) == nil {
		t.Fatal("job retired with a task still running")
	}
	if c.Task(job.Tasks[0]) != nil || c.Task(job.Tasks[1]) == nil {
		t.Fatal("completion retired the wrong task record")
	}
	if first.State != TaskCompleted {
		t.Fatalf("held record reads %s after completion, want completed", first.State)
	}
	if err := c.Complete(job.Tasks[1], 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if c.Job(job.ID) != nil || c.Task(job.Tasks[1]) != nil {
		t.Fatal("finished job still in the tables")
	}
	if c.Job(other.ID) == nil {
		t.Fatal("retirement removed an unrelated job")
	}
	jobs := 0
	c.Jobs(func(*Job) { jobs++ })
	if jobs != 1 {
		t.Fatalf("Jobs visits %d jobs, want 1 (the unfinished one)", jobs)
	}
	if p, r, done := c.CountStates(); p != 1 || r != 0 || done != 2 {
		t.Fatalf("CountStates = %d/%d/%d, want 1/0/2", p, r, done)
	}
	if len(job.Tasks) != 2 {
		t.Fatalf("held job record lost its task list: %v", job.Tasks)
	}
	// A second completion of a retired task is stale, not a double count.
	if err := c.Complete(job.Tasks[1], 3*time.Second); err == nil {
		t.Fatal("completion of a retired task succeeded")
	}
	if c.NumCompleted() != 2 {
		t.Fatalf("NumCompleted = %d, want 2", c.NumCompleted())
	}
}

// TestShardedIDAllocation pins the composite task-ID scheme the sharded
// tables rely on: a task's shard is derived from the job in its ID's high
// bits, IDs are unique across shard counts, and sorting the IDs of a
// sequentially submitted workload reproduces submission order.
func TestShardedIDAllocation(t *testing.T) {
	for _, shards := range []int{1, 2, 16, 64} {
		c := NewSharded(testTopo(), shards)
		if got := c.NumShards(); got != shards {
			t.Fatalf("NumShards = %d, want %d", got, shards)
		}
		var inOrder []TaskID
		for j := 0; j < 10; j++ {
			job := c.SubmitJob(Batch, 0, 0, make([]TaskSpec, 7))
			if job.ID != JobID(j) {
				t.Fatalf("job ID %d, want %d", job.ID, j)
			}
			for i, id := range job.Tasks {
				if JobOfTask(id) != job.ID {
					t.Fatalf("JobOfTask(%d) = %d, want %d", id, JobOfTask(id), job.ID)
				}
				task := c.Task(id)
				if task == nil || task.Job != job.ID || task.Index != i {
					t.Fatalf("task %d resolves to %+v", id, task)
				}
			}
			inOrder = append(inOrder, job.Tasks...)
		}
		seen := make(map[TaskID]bool, len(inOrder))
		for i, id := range inOrder {
			if seen[id] {
				t.Fatalf("shards=%d: duplicate task ID %d", shards, id)
			}
			seen[id] = true
			if i > 0 && id <= inOrder[i-1] {
				t.Fatalf("shards=%d: sequential submission order not ID order: %d after %d",
					shards, id, inOrder[i-1])
			}
		}
	}
}

// TestShardCountRounding pins NewSharded's power-of-two rounding.
func TestShardCountRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, 1}, {-3, 1}, {1, 1}, {2, 2}, {3, 4}, {5, 8}, {16, 16}, {17, 32},
	} {
		if got := NewSharded(testTopo(), tc.in).NumShards(); got != tc.want {
			t.Fatalf("NewSharded(%d).NumShards() = %d, want %d", tc.in, got, tc.want)
		}
	}
}

// TestDrainEventShards checks the per-shard drain: every event is seen
// exactly once, per-job (and per-machine) order is preserved within a
// batch, the shard lock is not held during the callback (the callback can
// read cluster state), and the drained buffers are recycled across drains.
func TestDrainEventShards(t *testing.T) {
	c := NewSharded(testTopo(), 4)
	jobs := make([]*Job, 6)
	for j := range jobs {
		jobs[j] = c.SubmitJob(Batch, 0, time.Duration(j), make([]TaskSpec, 3))
	}
	c.RemoveMachine(5, time.Minute)
	wantEvents := 6*3 + 1
	if got := c.NumQueuedEvents(); got != wantEvents {
		t.Fatalf("NumQueuedEvents = %d, want %d", got, wantEvents)
	}

	total := 0
	batches := 0
	perJob := make(map[JobID]int)
	c.DrainEventShards(func(ev []Event) {
		batches++
		total += len(ev)
		c.NumPending() // callback runs outside the shard lock
		for _, e := range ev {
			if e.Kind != EventTaskSubmitted {
				continue
			}
			// Within a shard journal, a job's submissions appear in
			// task-index order.
			j := JobOfTask(e.Task)
			if idx := int(e.Task) & 0xffffffff; idx != perJob[j] {
				t.Fatalf("job %d: event for index %d before index %d", j, idx, perJob[j])
			}
			perJob[j]++
		}
	})
	if total != wantEvents {
		t.Fatalf("drained %d events, want %d", total, wantEvents)
	}
	if batches == 0 || batches > c.NumShards() {
		t.Fatalf("drain called fn %d times with %d shards", batches, c.NumShards())
	}
	if got := c.NumQueuedEvents(); got != 0 {
		t.Fatalf("NumQueuedEvents = %d after drain, want 0", got)
	}

	// Second cycle reuses the recycled buffers and still sees every event.
	c.SubmitJob(Batch, 0, time.Hour, make([]TaskSpec, 5))
	total = 0
	c.DrainEventShards(func(ev []Event) { total += len(ev) })
	if total != 5 {
		t.Fatalf("second drain saw %d events, want 5", total)
	}
}

// TestAggregateCounters checks the lock-free aggregates against the table
// state through a lifecycle that touches every transition.
func TestAggregateCounters(t *testing.T) {
	c := New(testTopo())
	if c.TotalSlots() != 24 || c.NumPending() != 0 {
		t.Fatalf("fresh cluster: slots=%d pending=%d", c.TotalSlots(), c.NumPending())
	}
	job := c.SubmitJob(Batch, 0, 0, make([]TaskSpec, 4))
	if c.NumPending() != 4 || c.NumQueuedEvents() != 4 {
		t.Fatalf("after submit: pending=%d events=%d", c.NumPending(), c.NumQueuedEvents())
	}
	c.Place(job.Tasks[0], 0, 0)
	c.Place(job.Tasks[1], 1, 0)
	if c.NumPending() != 2 {
		t.Fatalf("after 2 places: pending=%d", c.NumPending())
	}
	c.Preempt(job.Tasks[0], time.Second)
	if c.NumPending() != 3 {
		t.Fatalf("after preempt: pending=%d", c.NumPending())
	}
	c.Complete(job.Tasks[1], time.Second)
	if c.NumPending() != 3 {
		t.Fatalf("after complete: pending=%d", c.NumPending())
	}
	c.RemoveMachine(0, 2*time.Second)
	if c.TotalSlots() != 20 {
		t.Fatalf("after machine removal: slots=%d", c.TotalSlots())
	}
	c.RestoreMachine(0, 3*time.Second)
	if c.TotalSlots() != 24 {
		t.Fatalf("after machine restore: slots=%d", c.TotalSlots())
	}
	// The whole history drains, and the drain zeroes the counter.
	want := c.NumQueuedEvents()
	if got := len(c.DrainEvents()); got != want {
		t.Fatalf("drained %d events, counter said %d", got, want)
	}
	if c.NumQueuedEvents() != 0 {
		t.Fatalf("drain left counter at %d", c.NumQueuedEvents())
	}
}

// TestConcurrentSubmission hammers the cluster's front door from many
// goroutines while a consumer drains events and reads aggregate state,
// mirroring the serving layer's access pattern. Run under -race.
func TestConcurrentSubmission(t *testing.T) {
	c := New(Topology{Racks: 2, MachinesPerRack: 8, SlotsPerMachine: 4})
	const submitters = 8
	const jobsEach = 50
	const tasksPerJob = 4

	var wg sync.WaitGroup
	var drained atomic.Int64
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // consumer: drain events and read state like a scheduler
		defer wg.Done()
		for {
			drained.Add(int64(len(c.DrainEvents())))
			c.NumPending()
			c.SlotUtilization()
			c.Machines(func(m *Machine) { m.Running() })
			select {
			case <-stop:
				drained.Add(int64(len(c.DrainEvents())))
				return
			default:
			}
		}
	}()

	ids := make([][]TaskID, submitters)
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < jobsEach; j++ {
				job := c.SubmitJob(Batch, 0, time.Duration(j), make([]TaskSpec, tasksPerJob))
				ids[i] = append(ids[i], job.Tasks...)
			}
		}(i)
	}
	// Stop the consumer only after every submission is in, so its final
	// drain observes all events.
	for {
		if c.NumPending() == submitters*jobsEach*tasksPerJob {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()

	total := submitters * jobsEach * tasksPerJob
	if got := int(drained.Load()); got != total {
		t.Fatalf("drained %d events, want %d (lost or duplicated submissions)", got, total)
	}
	// Every task ID must be unique across submitters.
	seen := make(map[TaskID]bool, total)
	for _, batch := range ids {
		for _, id := range batch {
			if seen[id] {
				t.Fatalf("task ID %d handed to two submitters", id)
			}
			seen[id] = true
		}
	}
	if len(seen) != total {
		t.Fatalf("unique task IDs = %d, want %d", len(seen), total)
	}
}

// TestUnknownIDAccessors probes every accessor and mutator with IDs the
// cluster has never issued — exactly what a remote front door can relay
// from a buggy or malicious client. None may panic; lookups answer with
// their zero result and mutators reject or no-op.
func TestUnknownIDAccessors(t *testing.T) {
	c := New(testTopo()) // 6 machines, jobs 0..n as submitted
	job := c.SubmitJob(Batch, 0, 0, []TaskSpec{{}, {}})

	t.Run("lookups", func(t *testing.T) {
		cases := []struct {
			name string
			got  any
			want any
		}{
			{"Job(unknown)", c.Job(9999) == nil, true},
			{"Job(negative)", c.Job(-7) == nil, true},
			{"Task(unknown job)", c.Task(taskID(9999, 0)) == nil, true},
			{"Task(unknown index)", c.Task(taskID(job.ID, 99)) == nil, true},
			{"Task(negative)", c.Task(-1) == nil, true},
			{"Machine(out of range)", c.Machine(MachineID(c.NumMachines())) == nil, true},
			{"Machine(negative)", c.Machine(-3) == nil, true},
			{"RackOf(unknown)", c.RackOf(999), RackID(-1)},
			{"RackMachines(unknown)", c.RackMachines(99) == nil, true},
			{"RackMachines(negative)", c.RackMachines(-1) == nil, true},
		}
		for _, tc := range cases {
			if tc.got != tc.want {
				t.Errorf("%s = %v, want %v", tc.name, tc.got, tc.want)
			}
		}
	})

	t.Run("mutators", func(t *testing.T) {
		if err := c.Place(taskID(555, 3), 0, 0); err == nil {
			t.Error("Place of unknown task succeeded")
		}
		if err := c.Complete(taskID(555, 3), 0); err == nil {
			t.Error("Complete of unknown task succeeded")
		}
		if err := c.Preempt(-42, 0); err == nil {
			t.Error("Preempt of unknown task succeeded")
		}
		// Out-of-range machine ops must no-op, not panic, and must not
		// disturb the healthy-slot aggregate.
		slots := c.TotalSlots()
		c.RemoveMachine(MachineID(c.NumMachines()), 0)
		c.RemoveMachine(-1, 0)
		c.RestoreMachine(9999, 0)
		if c.TotalSlots() != slots {
			t.Errorf("TotalSlots = %d after unknown-machine ops, want %d", c.TotalSlots(), slots)
		}
	})
}
