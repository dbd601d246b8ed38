package service

import (
	"cmp"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"firmament/internal/cluster"
	"firmament/internal/wal"
)

// stallJournaled starts a one-task submit on s and returns once it is
// parked between its journal append and its registration, holding the
// snapshot low-water mark at its record. Later submits pass the hook. The
// returned release lets the parked submit finish and reports its job; the
// test's cleanup releases it too, so a failing test leaks no goroutine.
func stallJournaled(t *testing.T, s *Service) (release func() *cluster.Job) {
	t.Helper()
	reached := make(chan struct{})
	gate := make(chan struct{})
	var open sync.Once
	openGate := func() { open.Do(func() { close(gate) }) }
	t.Cleanup(openGate)
	var stalled atomic.Bool
	s.testHookJournaled = func() {
		if stalled.CompareAndSwap(false, true) {
			close(reached)
			<-gate
		}
	}
	done := make(chan *cluster.Job, 1)
	go func() {
		job, err := s.Submit(cluster.Batch, 0, make([]cluster.TaskSpec, 1))
		if err != nil {
			t.Errorf("stalled Submit: %v", err)
		}
		done <- job
	}()
	select {
	case <-reached:
	case <-done:
		t.Fatal("submit finished without parking after its journal append")
	}
	return func() *cluster.Job {
		openGate()
		return <-done
	}
}

// retireBehindStalledSubmit drives a durable service and a never-crashed
// twin through the resurrection scenario: a stalled submit holds the
// low-water mark below a second job's submit record while that job is
// placed, completed and retired, and a snapshot is cut at round 4. The
// stalled submit then finishes and one more round leaves a tail past the
// snapshot. With crashStalled, that round runs first and the durable
// service's stalled submit never registers: the crash strikes between its
// journal append and its registration, while the twin's submit finishes
// after the round. The durable service is abandoned without a graceful
// close (a crash); its journal directory, the twin and both jobs are
// returned.
func retireBehindStalledSubmit(t *testing.T, clock *time.Duration, crashStalled bool) (dir string, twin *Service, retired, stalled cluster.JobID) {
	t.Helper()
	dir = t.TempDir()
	a, _ := manualDurable(t, dir, clock)
	b, _ := manualDurable(t, t.TempDir(), clock)

	*clock = time.Millisecond
	releaseA := stallJournaled(t, a)
	releaseB := stallJournaled(t, b)

	for _, s := range []*Service{a, b} {
		*clock = 2 * time.Millisecond
		job, err := s.Submit(cluster.Batch, 0, make([]cluster.TaskSpec, 1))
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		retired = job.ID
		*clock = 3 * time.Millisecond
		if _, err := s.runRound(); err != nil {
			t.Fatalf("runRound: %v", err)
		}
		if err := s.Complete(job.Tasks[0]); err != nil {
			t.Fatalf("Complete: %v", err)
		}
		// Round 2 retires the job; rounds 3 and 4 idle up to the
		// SnapshotEvery=4 cut.
		for r := 0; r < 3; r++ {
			*clock += time.Millisecond
			if _, err := s.runRound(); err != nil {
				t.Fatalf("runRound: %v", err)
			}
		}
		if s.cl.Job(retired) != nil {
			t.Fatalf("job %d not retired after its only task completed", retired)
		}
		if s.lastSnapRound != 4 {
			t.Fatalf("snapshot cut at round %d, want 4", s.lastSnapRound)
		}
	}
	if _, ok := a.tombs[retired]; !ok {
		t.Fatalf("job %d retired while the low-water mark trailed its record, but carries no tombstone", retired)
	}

	round := func() {
		t.Helper()
		for _, s := range []*Service{a, b} {
			*clock = 10 * time.Millisecond
			if _, err := s.runRound(); err != nil {
				t.Fatalf("runRound: %v", err)
			}
		}
	}
	if crashStalled {
		// One journaled round past the cut, then the twin's submit
		// registers; the durable one stays parked until the test ends.
		round()
		t.Cleanup(func() { releaseA() })
		stalledB := releaseB()
		if stalledB == nil {
			t.Fatal("twin's stalled submit failed")
		}
		return dir, b, retired, stalledB.ID
	}
	// The stalled submits finish after the cut; one more journaled round
	// places them, leaving a tail past the snapshot to replay.
	stalledA, stalledB := releaseA(), releaseB()
	if stalledA == nil || stalledB == nil || stalledA.ID != stalledB.ID {
		t.Fatalf("stalled submits registered %v and %v", stalledA, stalledB)
	}
	round()
	return dir, b, retired, stalledA.ID
}

// restoreLikeTwin restores the crashed service in dir and requires that
// the retired job stayed retired, the stalled job survived, and counters
// and cluster and scheduler state equal the never-crashed twin. It returns
// the restored service.
func restoreLikeTwin(t *testing.T, dir string, clock *time.Duration, twin *Service, retired, stalled cluster.JobID) *Service {
	t.Helper()
	a2, info := manualDurable(t, dir, clock)
	if !info.Restored || info.SnapshotRound != 4 || info.ReplayedRounds != 1 {
		t.Fatalf("restore = %+v, want the round-4 snapshot plus one replayed round", info)
	}
	if a2.cl.Job(retired) != nil {
		t.Fatalf("retired job %d resurrected by replay", retired)
	}
	if a2.cl.Job(stalled) == nil {
		t.Fatalf("stalled job %d lost", stalled)
	}
	got, want := a2.Stats(), twin.Stats()
	if got.Submitted != want.Submitted || got.Completed != want.Completed {
		t.Fatalf("restored submitted/completed = %d/%d, twin %d/%d",
			got.Submitted, got.Completed, want.Submitted, want.Completed)
	}
	if got.Submitted != got.Pending+got.Running+got.Completed {
		t.Fatalf("restored counters do not conserve: submitted %d, pending %d + running %d + completed %d",
			got.Submitted, got.Pending, got.Running, got.Completed)
	}
	if a2.cl.Fingerprint() != twin.cl.Fingerprint() {
		t.Fatal("restored cluster differs from the never-crashed twin")
	}
	if a2.sched.Fingerprint() != twin.sched.Fingerprint() {
		t.Fatal("restored scheduler differs from the never-crashed twin")
	}
	return a2
}

// TestRetiredJobNotResurrected is the regression test for replaying the
// submit of a job that completed, and was retired, before the snapshot was
// cut: a stalled submit holds the low-water mark below the retired job's
// submit record, so replay from that snapshot reads the record while the
// cluster tables hold no trace of the job. Without the tombstone the job
// would be registered again as pending work nobody will ever schedule.
// The restored service must equal a twin that never crashed.
func TestRetiredJobNotResurrected(t *testing.T) {
	var clock time.Duration
	dir, twin, retired, stalled := retireBehindStalledSubmit(t, &clock, false)
	restoreLikeTwin(t, dir, &clock, twin, retired, stalled)
}

// TestLegacySnapshotRetiredJobNotResurrected restores the same scenario
// from a snapshot in the layout written before finished work retired:
// meta version 2, which carries no tombstones, and a version-1 cluster
// section that still holds the finished job. The cluster decode drops that
// job, so restore must tombstone it or replay registers it again.
func TestLegacySnapshotRetiredJobNotResurrected(t *testing.T) {
	var clock time.Duration
	dir, twin, retired, stalled := retireBehindStalledSubmit(t, &clock, false)
	downgradeSnapshot(t, dir, map[cluster.JobID]int{retired: 1})
	restoreLikeTwin(t, dir, &clock, twin, retired, stalled)
}

// TestUnregisteredSubmitScheduledAfterReplay is the regression test for a
// submit whose journal record was appended but whose registration had not
// run when the process died, while a later round was journaled. Replay
// registers the job from its record, and the replayed round then discards
// its submission events along with every other re-queued event, because
// the recorded batches are the truth for the graph. Without a re-queue
// after replay the job stays pending in the tables and the graph never
// sees it. The restored service must equal the twin, whose submit
// finished after that round, and place the job within a few rounds.
func TestUnregisteredSubmitScheduledAfterReplay(t *testing.T) {
	var clock time.Duration
	dir, twin, retired, stalled := retireBehindStalledSubmit(t, &clock, true)
	s := restoreLikeTwin(t, dir, &clock, twin, retired, stalled)
	task := s.cl.Job(stalled).Tasks[0]
	for r := 0; r < 3 && s.cl.Task(task).State != cluster.TaskRunning; r++ {
		clock += time.Millisecond
		if _, err := s.runRound(); err != nil {
			t.Fatalf("runRound: %v", err)
		}
	}
	if st := s.cl.Task(task).State; st != cluster.TaskRunning {
		t.Fatalf("stalled job's task is %v after three post-restore rounds, want running", st)
	}
	st := s.Stats()
	if st.Submitted != st.Pending+st.Running+st.Completed {
		t.Fatalf("submitted %d != pending %d + running %d + completed %d",
			st.Submitted, st.Pending, st.Running, st.Completed)
	}
}

// downgradeSnapshot rewrites the newest snapshot in dir into the layout
// written before finished work retired: meta version 2 (the meta without
// tombstones) and a version-1 cluster section, which kept a record for
// every task ever submitted and every finished job. The retired records
// are rebuilt as completed ones: finished maps each retired job to its
// task count, and a task missing from a live job completed too. The
// rebuilt records must account for the completed counter exactly.
func downgradeSnapshot(t *testing.T, dir string, finished map[cluster.JobID]int) {
	t.Helper()
	log, err := wal.Open(dir, wal.Options{SegmentBytes: 4096, Sync: wal.SyncNone})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	defer log.Close()
	r, lw, closeSnap, err := log.LatestSnapshot()
	if err != nil {
		t.Fatalf("LatestSnapshot: %v", err)
	}
	var sections [4][]byte
	for i := range sections {
		if sections[i], err = wal.ReadSection(r); err != nil {
			t.Fatalf("snapshot section %d: %v", i, err)
		}
	}
	closeSnap()

	// Meta: version, rounds, clock and the 13 counters; the tombstones go.
	md := wal.NewDec(sections[0])
	if v := md.U32(); v != snapMetaVersion {
		t.Fatalf("meta version %d, want %d", v, snapMetaVersion)
	}
	var meta wal.Enc
	meta.U32(2)
	for i := 0; i < 2+13; i++ {
		meta.I64(md.I64())
	}

	in := wal.NewDec(sections[1])
	var out wal.Enc
	if v := in.U32(); v != 2 {
		t.Fatalf("cluster snapshot version %d, want 2", v)
	}
	out.U32(1)
	for i := 0; i < 4; i++ {
		out.I64(in.I64()) // topology
	}
	shards := in.U32()
	out.U32(shards)
	out.I64(in.I64()) // next job ID
	completed := in.I64()
	nm := in.U32()
	out.U32(nm)
	for i := uint32(0); i < nm; i++ {
		out.Bool(in.Bool())
	}
	var rebuilt int64
	completedRecord := func(e *wal.Enc, id cluster.TaskID) {
		e.I64(int64(id))
		e.Dur(0)  // duration
		e.I64(-1) // input file
		e.I64(0)  // input size
		e.I64(0)  // net demand
		e.U8(uint8(cluster.TaskCompleted))
		e.Dur(0) // submit
		e.Dur(0) // start
		e.Dur(0) // finish
		e.I64(0) // machine
		e.I64(0) // preemptions
		rebuilt++
	}
	taskID := func(j cluster.JobID, k int) cluster.TaskID { return cluster.TaskID(int64(j)<<32 | int64(k)) }
	type job struct {
		id cluster.JobID
		b  []byte
	}
	for sh := uint32(0); sh < shards; sh++ {
		var jobs []job
		for n := in.U32(); n > 0; n-- {
			var j wal.Enc
			id := cluster.JobID(in.I64())
			j.I64(int64(id))
			j.U8(in.U8())   // class
			j.I64(in.I64()) // priority
			j.Dur(in.Dur()) // submit time
			nt, nrec := int(in.U32()), int(in.U32())
			j.I64(int64(nrec)) // remaining: the live records
			j.U32(uint32(nt))
			live := make(map[cluster.TaskID][]byte, nrec)
			for k := 0; k < nrec; k++ {
				var rec wal.Enc
				tid := cluster.TaskID(in.I64())
				rec.I64(int64(tid))
				for f := 0; f < 4; f++ {
					rec.I64(in.I64()) // duration, input file, input size, net demand
				}
				rec.U8(in.U8())   // state
				rec.Dur(in.Dur()) // submit
				rec.Dur(in.Dur()) // start
				rec.Dur(0)        // finish
				rec.I64(in.I64()) // machine
				rec.I64(in.I64()) // preemptions
				live[tid] = rec.B
			}
			for k := 0; k < nt; k++ {
				if b, ok := live[taskID(id, k)]; ok {
					j.B = append(j.B, b...)
				} else {
					completedRecord(&j, taskID(id, k))
				}
			}
			jobs = append(jobs, job{id, j.B})
		}
		for id, nt := range finished {
			if uint32(id)&(shards-1) != sh {
				continue
			}
			var j wal.Enc
			j.I64(int64(id))
			j.U8(uint8(cluster.Batch))
			j.I64(0) // priority
			j.Dur(0) // submit time
			j.I64(0) // remaining
			j.U32(uint32(nt))
			for k := 0; k < nt; k++ {
				completedRecord(&j, taskID(id, k))
			}
			jobs = append(jobs, job{id, j.B})
		}
		slices.SortFunc(jobs, func(x, y job) int { return cmp.Compare(x.id, y.id) })
		out.U32(uint32(len(jobs)))
		for _, j := range jobs {
			out.B = append(out.B, j.b...)
		}
		ne := in.U32()
		out.U32(ne)
		for k := uint32(0); k < ne; k++ {
			cluster.EncodeEvent(&out, cluster.DecodeEvent(in))
		}
	}
	if err := in.Err(); err != nil || in.Remaining() != 0 {
		t.Fatalf("cluster section: err %v, %d bytes left", err, in.Remaining())
	}
	if rebuilt != completed {
		t.Fatalf("rebuilt %d completed records, the snapshot counts %d", rebuilt, completed)
	}
	if err := md.Err(); err != nil {
		t.Fatalf("meta section: %v", err)
	}

	sections[0], sections[1] = meta.B, out.B
	if _, err := log.SaveSnapshot(lw, func(w io.Writer) error {
		for _, b := range sections {
			if err := wal.WriteSection(w, b); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}
}

// TestUptimeRetainsOnlyLiveWork runs a recurring job through 1000
// submit→place→complete cycles: no finished job or task may stay in the
// cluster tables, the counters must conserve at every idle point, and the
// cluster snapshot must be exactly as long after cycle 1000 as after
// cycle 10 — memory and snapshot cost track live work, not uptime.
func TestUptimeRetainsOnlyLiveWork(t *testing.T) {
	var clock time.Duration
	s := manualServiceCfg(cluster.Topology{Racks: 1, MachinesPerRack: 2, SlotsPerMachine: 2}, &clock,
		Config{Templates: true})
	snapLen := func() int {
		var e wal.Enc
		s.cl.EncodeSnapshot(&e)
		return len(e.B)
	}
	round := func() {
		t.Helper()
		clock += time.Millisecond
		if _, err := s.runRound(); err != nil {
			t.Fatalf("runRound: %v", err)
		}
	}
	const cycles = 1000
	var atTen int
	for c := 1; c <= cycles; c++ {
		job, err := s.Submit(cluster.Batch, 0, make([]cluster.TaskSpec, 3))
		if err != nil {
			t.Fatalf("cycle %d: Submit: %v", c, err)
		}
		round()
		for _, id := range job.Tasks {
			if err := s.Complete(id); err != nil {
				t.Fatalf("cycle %d: Complete: %v", c, err)
			}
		}
		round()

		if n := countJobs(s.cl); n != 0 {
			t.Fatalf("cycle %d: %d job records left at idle", c, n)
		}
		for _, id := range job.Tasks {
			if s.cl.Task(id) != nil {
				t.Fatalf("cycle %d: finished task %d still in the tables", c, id)
			}
		}
		st := s.Stats()
		if st.Submitted != st.Pending+st.Running+st.Completed {
			t.Fatalf("cycle %d: submitted %d != pending %d + running %d + completed %d",
				c, st.Submitted, st.Pending, st.Running, st.Completed)
		}
		if st.Completed != int64(3*c) {
			t.Fatalf("cycle %d: completed %d, want %d", c, st.Completed, 3*c)
		}
		if c == 10 {
			atTen = snapLen()
		}
	}
	if got := snapLen(); got != atTen {
		t.Fatalf("cluster snapshot is %d bytes after %d cycles, %d after 10", got, cycles, atTen)
	}
	if s.Stats().TemplateHits == 0 {
		t.Fatal("the recurring job never hit the template cache")
	}
}
