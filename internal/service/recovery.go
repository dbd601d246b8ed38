package service

import (
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"time"

	"firmament/internal/cluster"
	"firmament/internal/core"
	"firmament/internal/policy"
	"firmament/internal/wal"
)

// DurabilityConfig configures the durable event journal.
type DurabilityConfig struct {
	// Dir is the journal directory (segments + snapshots). Required.
	Dir string
	// Sync selects the fsync policy for front-door acknowledgements:
	// SyncAlways fsyncs before every ack (group-committed), SyncBatch
	// fsyncs on a SyncInterval timer, SyncNone leaves it to the OS. All
	// policies flush to the OS before acking, so a killed process — as
	// opposed to a lost power supply — loses nothing acknowledged.
	Sync wal.SyncPolicy
	// SyncInterval paces the background fsync under SyncBatch.
	// Default 50ms.
	SyncInterval time.Duration
	// SnapshotEvery cuts a cluster+graph snapshot every that many rounds,
	// after which older log segments become collectable. Default 1024.
	SnapshotEvery int64
	// Retain is how many snapshots TruncateBefore keeps. Default 2.
	Retain int
	// SegmentBytes overrides the WAL segment size (testing).
	SegmentBytes int64
	// OnWALFailure selects the response to a permanent WAL error:
	// WALFailStop (default) stops the service with the cause captured;
	// WALDegrade keeps scheduling volatile, probes the disk, and re-arms
	// durability once it heals. See docs/durability.md, fault model.
	OnWALFailure WALFailurePolicy
	// RetryLimit bounds in-round retries of transient WAL sync errors
	// (EINTR, EAGAIN). Default 3; negative disables retry.
	RetryLimit int
	// RetryBackoff is the initial backoff between retries, doubling each
	// attempt. Default 1ms.
	RetryBackoff time.Duration
	// ProbeInterval paces degraded-mode disk probes (re-arm attempts).
	// Default 1s.
	ProbeInterval time.Duration
	// FS overrides the filesystem the journal reads and writes through.
	// Nil means the real one; tests inject faults (internal/faultfs).
	FS wal.FS
}

func (d DurabilityConfig) withDefaults() DurabilityConfig {
	if d.SyncInterval <= 0 {
		d.SyncInterval = 50 * time.Millisecond
	}
	if d.SnapshotEvery <= 0 {
		d.SnapshotEvery = 1024
	}
	if d.Retain <= 0 {
		d.Retain = 2
	}
	if d.RetryLimit == 0 {
		d.RetryLimit = 3
	}
	if d.RetryBackoff <= 0 {
		d.RetryBackoff = time.Millisecond
	}
	if d.ProbeInterval <= 0 {
		d.ProbeInterval = time.Second
	}
	return d
}

// Options configures Open: a durable service built either fresh or from the
// journal directory's latest snapshot plus log tail.
type Options struct {
	// Topology shapes a freshly built cluster. Ignored when a snapshot is
	// restored — the snapshot carries its own topology.
	Topology cluster.Topology
	// Shards is the fresh cluster's front-door shard count (0 = default).
	Shards int
	// Model builds the scheduling policy over the (fresh or restored)
	// cluster. It must construct the same policy the journal was written
	// under: the snapshot's flow network encodes its decisions.
	Model func(*cluster.Cluster) policy.CostModel
	// Scheduler and Service configure the solver and serving layer.
	Scheduler core.Config
	Service   Config
	// Durability configures the journal itself.
	Durability DurabilityConfig
}

// RestoreInfo reports what Open recovered.
type RestoreInfo struct {
	// Restored is true when a snapshot was loaded (as opposed to a fresh
	// or empty journal directory).
	Restored bool
	// SnapshotRound is the round count the loaded snapshot was cut at.
	SnapshotRound int64
	// ReplayedRecords and ReplayedRounds count the log tail: records
	// decoded past the snapshot's low-water mark, and full scheduling
	// rounds re-enacted.
	ReplayedRecords int
	ReplayedRounds  int
	// PendingOps is the number of accepted-but-unenacted ops re-queued for
	// the first post-restore round.
	PendingOps int
	// RunningTasks and PendingTasks describe the recovered cluster.
	RunningTasks int
	PendingTasks int
}

// snapMetaVersion 2 added the template counters to the meta section and a
// fourth snapshot section carrying the template cache; version-1 snapshots
// (pre-template) still restore, with an empty cache. Version 3 appends the
// retired-job tombstones to the meta section. Older snapshots carry none,
// but their (version-1) cluster sections still hold the finished jobs,
// which the cluster decode drops and reports; restore tombstones those.
const snapMetaVersion = 3

// Open builds a durable service: it opens (or creates) the write-ahead
// journal in opts.Durability.Dir, restores the latest snapshot if one
// exists, replays the log tail to re-enact everything acknowledged after
// it, and only then starts the scheduling loop — warm: the restored flow
// network carries the previous run's flow and potentials, so the first
// round's incremental solver run starts from them instead of from scratch.
func Open(opts Options) (*Service, *RestoreInfo, error) {
	dur := opts.Durability.withDefaults()
	if dur.Dir == "" {
		return nil, nil, errors.New("service: DurabilityConfig.Dir is required")
	}
	if opts.Model == nil {
		return nil, nil, errors.New("service: Options.Model is required")
	}
	log, err := wal.Open(dur.Dir, wal.Options{SegmentBytes: dur.SegmentBytes, Sync: dur.Sync, FS: dur.FS})
	if err != nil {
		return nil, nil, err
	}
	s, info, err := buildFromJournal(opts, dur, log)
	if err != nil {
		log.Close()
		return nil, nil, err
	}
	if dur.Sync == wal.SyncBatch {
		s.syncStop = make(chan struct{})
		s.syncDone = make(chan struct{})
		go s.syncLoop(dur.SyncInterval)
	}
	go s.loop()
	s.wake() // recovered pending work (tasks, ops, queued events) needs a round
	return s, info, nil
}

// Replay rebuilds a service from a recorded journal directory and then
// detaches it from the journal: the returned service runs purely in memory
// (further mutations are NOT journaled), with its scheduling loop running
// over the recovered state. This is the -replay workflow — a recorded
// journal doubles as a reproducible scenario: restore it, inspect Stats,
// and optionally keep driving load against the recovered cluster.
func Replay(opts Options) (*Service, *RestoreInfo, error) {
	dur := opts.Durability.withDefaults()
	if dur.Dir == "" {
		return nil, nil, errors.New("service: DurabilityConfig.Dir is required")
	}
	if opts.Model == nil {
		return nil, nil, errors.New("service: Options.Model is required")
	}
	log, err := wal.Open(dur.Dir, wal.Options{SegmentBytes: dur.SegmentBytes, Sync: wal.SyncNone, FS: dur.FS})
	if err != nil {
		return nil, nil, err
	}
	s, info, err := buildFromJournal(opts, dur, log)
	if err != nil {
		log.Close()
		return nil, nil, err
	}
	// Detach: the journal was input, not an output. Close it before the
	// loop starts so nothing can append, and drop the event tap so rounds
	// stop accumulating batch copies nobody will journal.
	s.jrn = nil
	s.tombs = nil
	s.sched.GraphManager().EventTap = nil
	s.roundBatches = nil
	if err := log.Close(); err != nil {
		return nil, nil, err
	}
	go s.loop()
	s.wake()
	return s, info, nil
}

func buildFromJournal(opts Options, dur DurabilityConfig, log *wal.Log) (*Service, *RestoreInfo, error) {
	info := &RestoreInfo{}
	var s *Service
	var lastNow time.Duration
	r, lw, closeSnap, err := log.LatestSnapshot()
	switch {
	case err == nil:
		s, lastNow, err = restoreSnapshot(opts, r, log.LastSeq())
		closeSnap()
		if err != nil {
			return nil, nil, err
		}
		info.Restored = true
		info.SnapshotRound = s.rounds.Load()
	case errors.Is(err, os.ErrNotExist):
		// No snapshot: fresh state, but the log may still hold records
		// (a crash before the first snapshot cut). Replay from the start.
		lw = 1
		shards := opts.Shards
		if shards <= 0 {
			shards = cluster.DefaultShards
		}
		cl := cluster.NewSharded(opts.Topology, shards)
		s = newService(cl, opts.Model(cl), opts.Scheduler, opts.Service)
	default:
		return nil, nil, err
	}
	s.attachJournal(log, dur)
	if err := s.replay(lw, info.SnapshotRound, lastNow, info); err != nil {
		return nil, nil, fmt.Errorf("service: journal replay: %w", err)
	}
	s.lastSnapRound = s.rounds.Load()
	info.PendingTasks = s.cl.NumPending()
	info.RunningTasks = s.cl.NumRunning()
	return s, info, nil
}

// restoreSnapshot decodes the three snapshot sections — service meta,
// cluster tables, scheduler (flow network + entity maps + solver scale) —
// and rebuilds a stopped service around them. tail is the log's last
// sequence number, the tombstone mark for finished jobs an old-format
// cluster section drops.
func restoreSnapshot(opts Options, r io.Reader, tail uint64) (*Service, time.Duration, error) {
	meta, err := wal.ReadSection(r)
	if err != nil {
		return nil, 0, fmt.Errorf("service: snapshot meta: %w", err)
	}
	md := wal.NewDec(meta)
	v := md.U32()
	if v < 1 || v > snapMetaVersion {
		return nil, 0, fmt.Errorf("service: snapshot meta version %d (want <= %d)", v, snapMetaVersion)
	}
	rounds := md.I64()
	lastNow := md.Dur()
	ncounters := 13
	if v == 1 {
		ncounters = 10
	}
	counters := make([]int64, ncounters)
	for i := range counters {
		counters[i] = md.I64()
	}
	tombs := make(map[cluster.JobID]uint64)
	if v >= 3 {
		for n := md.Len(16); n > 0; n-- {
			id := cluster.JobID(md.I64())
			tombs[id] = md.U64()
		}
	}
	if err := md.Err(); err != nil {
		return nil, 0, fmt.Errorf("service: snapshot meta: %w", err)
	}

	cb, err := wal.ReadSection(r)
	if err != nil {
		return nil, 0, fmt.Errorf("service: snapshot cluster section: %w", err)
	}
	cl, retired, err := cluster.DecodeSnapshot(wal.NewDec(cb))
	if err != nil {
		return nil, 0, err
	}
	// A finished job the decode dropped may still have its submit record at
	// or above the low-water mark, like any job retired while the mark
	// trailed. Its record precedes the cut, so the tail bounds it from above.
	for _, id := range retired {
		tombs[id] = tail
	}

	sb, err := wal.ReadSection(r)
	if err != nil {
		return nil, 0, fmt.Errorf("service: snapshot scheduler section: %w", err)
	}
	sched, err := core.RestoreScheduler(cl, opts.Model(cl), opts.Scheduler, wal.NewDec(sb))
	if err != nil {
		return nil, 0, err
	}

	s := newServiceWith(cl, sched, opts.Service)
	s.tombs = tombs
	s.rounds.Store(rounds)
	s.placed.Store(counters[0])
	s.migrated.Store(counters[1])
	s.preempted.Store(counters[2])
	// counters[3] is the completed-task count, which the cluster section
	// carries as its own counter.
	s.staleCompletions.Store(counters[4])
	s.staleMachineOps.Store(counters[5])
	s.staleDecisions.Store(counters[6])
	s.unscheduled.Store(counters[7])
	s.warmStarts.Store(counters[8])
	s.fullRestarts.Store(counters[9])
	if v >= 2 {
		s.templateHits.Store(counters[10])
		s.templateMisses.Store(counters[11])
		s.templateInvals.Store(counters[12])
		tb, err := wal.ReadSection(r)
		if err != nil {
			return nil, 0, fmt.Errorf("service: snapshot template section: %w", err)
		}
		td := wal.NewDec(tb)
		if td.Bool() {
			if s.tmpl == nil {
				// The journal was recorded with templates on; replaying its
				// round records needs the cache. Restoring without it would
				// silently diverge, so fail loudly.
				return nil, 0, errors.New("service: snapshot carries a template cache but Config.Templates is off (or the policy lacks a TemplateSignature)")
			}
			s.tmpl.cache.DecodeInto(td)
		}
		if err := td.Err(); err != nil {
			return nil, 0, fmt.Errorf("service: snapshot template section: %w", err)
		}
	}
	return s, lastNow, nil
}

// saveSnapshot cuts one snapshot: meta (round count, virtual clock,
// loop-owned counters), the cluster tables (including undrained event
// queues — the snapshot is fuzzy), and the scheduler state. Called only
// from the scheduling goroutine (between rounds) or after it has exited.
func (s *Service) saveSnapshot() error {
	lw := s.jrn.lowWater()
	// Replay from this snapshot starts at lw, and later snapshots start no
	// earlier (the mark only advances), so a tombstone whose mark — an
	// upper bound on its job's submit sequence — lies below lw can never
	// meet its submit record again.
	live := make([]cluster.JobID, 0, len(s.tombs))
	for id, mark := range s.tombs {
		if mark < lw {
			delete(s.tombs, id)
		} else {
			live = append(live, id)
		}
	}
	slices.Sort(live)
	var meta wal.Enc
	meta.U32(snapMetaVersion)
	meta.I64(s.rounds.Load())
	meta.Dur(s.now())
	meta.I64(s.placed.Load())
	meta.I64(s.migrated.Load())
	meta.I64(s.preempted.Load())
	meta.I64(int64(s.cl.NumCompleted())) // restore reads the cluster section's counter
	meta.I64(s.staleCompletions.Load())
	meta.I64(s.staleMachineOps.Load())
	meta.I64(s.staleDecisions.Load())
	meta.I64(s.unscheduled.Load())
	meta.I64(s.warmStarts.Load())
	meta.I64(s.fullRestarts.Load())
	meta.I64(s.templateHits.Load())
	meta.I64(s.templateMisses.Load())
	meta.I64(s.templateInvals.Load())
	meta.U32(uint32(len(live)))
	for _, id := range live {
		meta.I64(int64(id))
		meta.U64(s.tombs[id])
	}
	_, err := s.jrn.log.SaveSnapshot(lw, func(w io.Writer) error {
		if err := wal.WriteSection(w, meta.B); err != nil {
			return err
		}
		var ce wal.Enc
		s.cl.EncodeSnapshot(&ce)
		if err := wal.WriteSection(w, ce.B); err != nil {
			return err
		}
		var se wal.Enc
		s.sched.EncodeSnapshot(&se)
		if err := wal.WriteSection(w, se.B); err != nil {
			return err
		}
		var te wal.Enc
		if s.tmpl != nil {
			te.Bool(true)
			s.tmpl.cache.Encode(&te)
		} else {
			te.Bool(false)
		}
		return wal.WriteSection(w, te.B)
	})
	return err
}

// replay re-enacts the journal tail from sequence lw: submits not captured
// by the snapshot re-register under their journaled IDs, op intents
// accumulate, and round records past the snapshot's round re-run the
// scheduling pipeline — recorded ops applied at the recorded virtual time,
// the recorded event batches folded into the (warm) flow network with an
// incremental re-solve, and the journaled decisions force-applied. Intents
// no round consumed are re-queued for the first live round, and so are the
// submission events of jobs whose registration the live run never reached.
//
//firmament:journaled replay consumes the journal: every registration here re-derives an already-durable record
func (s *Service) replay(lw uint64, snapRound int64, lastNow time.Duration, info *RestoreInfo) error {
	pending := make(map[uint64]op)
	maxNow := lastNow
	// cand reconstructs the template candidate queue: a submit record queues
	// its job, a round record clears the queue (that round's admission drain
	// consumed everything queued before it). Whatever survives the tail was
	// submitted after the last journaled round — exactly the jobs whose
	// admission attempt the crash stole — and is re-queued below.
	var cand []cluster.JobID
	// queued holds the jobs replay registered since the last replayed
	// round, their submission events still on the shard journals. A
	// replayed round discards those events and folds only its recorded
	// batches, so its queued jobs move to lost until a recorded batch
	// carries their submission. A job still lost at the end was journaled
	// but not yet registered when the process died: no live round ever
	// drained it, and without a re-queue the graph would never see it.
	var queued, lost []cluster.JobID
	err := s.jrn.log.Replay(lw, func(seq uint64, payload []byte) error {
		d := wal.NewDec(payload)
		switch k := d.U8(); k {
		case recSubmit:
			id, class, prio, at, specs := decodeSubmitRecord(d)
			if err := d.Err(); err != nil {
				return err
			}
			info.ReplayedRecords++
			if at > maxNow {
				maxNow = at
			}
			cand = append(cand, id)
			// A fuzzy snapshot may already hold the job (its registration
			// finished before the cluster section was encoded), or may have
			// retired it (it completed before the cut while the low-water
			// mark trailed its record); replay only what it missed.
			if _, retired := s.tombs[id]; !retired && s.cl.Job(id) == nil {
				s.cl.SubmitJobWithID(id, class, prio, at, specs)
				queued = append(queued, id)
			}
		case recIntent:
			o := decodeIntentRecord(d)
			if err := d.Err(); err != nil {
				return err
			}
			o.seq = seq
			pending[seq] = o
			info.ReplayedRecords++
		case recRound:
			rr, err := decodeRoundRecord(d)
			if err != nil {
				return err
			}
			info.ReplayedRecords++
			for _, eo := range rr.ops {
				delete(pending, eo.seq)
			}
			cand = cand[:0]
			if rr.round <= snapRound {
				// The snapshot already reflects this round; only its intent
				// consumption mattered.
				return nil
			}
			if rr.applyNow > maxNow {
				maxNow = rr.applyNow
			}
			if err := s.replayRound(&rr); err != nil {
				return err
			}
			info.ReplayedRounds++
			lost = append(lost, queued...)
			queued = queued[:0]
			if len(lost) > 0 {
				folded := submittedJobs(rr.batches)
				lost = slices.DeleteFunc(lost, func(id cluster.JobID) bool { return folded[id] })
			}
		default:
			return fmt.Errorf("unknown journal record kind %d at seq %d", k, seq)
		}
		return nil
	})
	if err != nil {
		return err
	}

	// Re-queue the ops no round consumed, in acceptance order.
	seqs := make([]uint64, 0, len(pending))
	for q := range pending {
		seqs = append(seqs, q)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	for _, q := range seqs {
		o := pending[q]
		sh := s.opShards[opShardKey(o)&s.opMask]
		sh.ops = append(sh.ops, o)
		s.opsQueued.Add(1)
	}
	info.PendingOps = len(seqs)
	for _, id := range lost {
		s.cl.RequeueSubmitted(id)
	}

	// Give the jobs the crash robbed of their admission attempt (the lost
	// ones, then those submitted after the last journaled round) one on
	// the first post-restore round, like any freshly submitted job.
	for _, id := range append(lost, cand...) {
		s.noteTemplateCandidate(id)
	}

	// The submission counter is front-door-owned and therefore not captured
	// consistently by a fuzzy snapshot; every task ever submitted is either
	// live (pending or running) or counted completed, so the cluster
	// recomputes it.
	p, r, c := s.cl.CountStates()
	s.submitted.Store(int64(p + r + c))

	// Resume the virtual clock strictly after every recorded timestamp so
	// restored lifecycle times stay monotonic across the restart.
	s.start = time.Now().Add(-maxNow - time.Millisecond)
	return nil
}

// replayRound re-enacts one journaled round against the recovering service.
func (s *Service) replayRound(rr *roundRecord) error {
	round := s.rounds.Add(1)
	if round != rr.round {
		return fmt.Errorf("journal round %d arrived as round %d (missing round record)", rr.round, round)
	}
	now := rr.drainNow
	for _, eo := range rr.ops {
		var err error
		switch eo.kind {
		case opComplete:
			if err = s.cl.Complete(eo.task, now); err != nil {
				s.staleCompletions.Add(1)
			} else {
				s.noteRetired(eo.task)
			}
		case opRemoveMachine:
			if err = s.cl.RemoveMachine(eo.machine, now); err != nil {
				s.staleMachineOps.Add(1)
			}
		case opRestoreMachine:
			if err = s.cl.RestoreMachine(eo.machine, now); err != nil {
				s.staleMachineOps.Add(1)
			}
		default:
			return fmt.Errorf("round %d cites unknown op kind %d", rr.round, eo.kind)
		}
		if eo.stale != (err != nil) {
			return fmt.Errorf("round %d op seq %d: journaled stale=%v but replay got %v",
				rr.round, eo.seq, eo.stale, err)
		}
	}

	// Template cache deltas and hit placements replay verbatim from the
	// record — never recomputed, so the replayed run is deterministic
	// whether or not the cache was warm when the journal was written.
	if s.tmpl == nil && (len(rr.tmplDecisions) > 0 || len(rr.tmplDrops) > 0 || len(rr.tmplInserts) > 0) {
		return fmt.Errorf("round %d carries template records but Config.Templates is off", rr.round)
	}
	if s.tmpl != nil {
		for _, fp := range rr.tmplDrops {
			s.tmpl.cache.Drop(fp)
		}
	}
	if len(rr.tmplDecisions) > 0 {
		// Hit placements were committed at drain time, before the live
		// round folded events — replay must apply them before the fold so
		// the graph sees those tasks as running, exactly as the live
		// update did.
		tap := s.sched.ApplyDecisions(rr.tmplDecisions, now)
		if tap.Stale != 0 {
			return fmt.Errorf("round %d: %d journaled template placements failed to re-apply", rr.round, tap.Stale)
		}
		s.placed.Add(int64(tap.Placed))
	}

	// The replayed mutations re-queued events on the cluster's shard
	// journals, but the graph must see the exact batches the live round
	// drained (concurrent submitters made the live interleaving): discard
	// the re-queued ones and fold the recorded ones.
	s.cl.DrainEventShards(func([]cluster.Event) {})
	if rr.solved {
		r, err := s.sched.ReplayRound(now, rr.batches)
		if err != nil {
			return fmt.Errorf("round %d re-solve: %w", rr.round, err)
		}
		if r.Stats.Pool.Incremental {
			s.warmStarts.Add(1)
		}
		if r.Stats.Pool.FullRestart {
			s.fullRestarts.Add(1)
		}

		// Force the journaled decisions; the re-solve's own mappings are only
		// there to move the flow network through the same states. On identical
		// cluster state every journaled decision must apply.
		ap := s.sched.ApplyDecisions(rr.decisions, rr.applyNow)
		if ap.Stale != 0 {
			return fmt.Errorf("round %d: %d journaled decisions failed to re-apply", rr.round, ap.Stale)
		}
		s.placed.Add(int64(ap.Placed))
		s.migrated.Add(int64(ap.Migrated))
		s.preempted.Add(int64(ap.Preempted))
	} else {
		// The live round placed everything from the template cache and
		// skipped the solve; replay the same update-only pass so the graph
		// (and its accumulated change set) moves through identical states.
		if len(rr.decisions) != 0 {
			return fmt.Errorf("round %d: unsolved round carries %d solver decisions", rr.round, len(rr.decisions))
		}
		s.sched.ReplayUpdateOnly(now, rr.batches)
	}
	if s.tmpl != nil {
		for _, t := range rr.tmplInserts {
			s.tmpl.cache.Insert(t)
		}
		s.templateHits.Add(int64(rr.tmplHits))
		s.templateMisses.Add(int64(rr.tmplMisses))
		s.templateInvals.Add(int64(rr.tmplInvals))
	}
	s.staleDecisions.Add(int64(rr.staleDecisions))
	s.unscheduled.Add(int64(rr.unscheduled))
	return nil
}

// submittedJobs returns the jobs whose submission events the recorded
// batches carry.
func submittedJobs(batches [][]cluster.Event) map[cluster.JobID]bool {
	jobs := make(map[cluster.JobID]bool)
	for _, b := range batches {
		for _, ev := range b {
			if ev.Kind == cluster.EventTaskSubmitted {
				jobs[cluster.JobOfTask(ev.Task)] = true
			}
		}
	}
	return jobs
}

// noteRetired tombstones the job of a just-completed task if the
// completion retired it and the service journals. The job's submit record
// may lie at or above the low-water mark of the next snapshot (held back
// by a stalled submit or an unenacted op); replay from that snapshot finds
// no record of the job and must not register it anew. The mark is the log
// tail now — the submit record precedes the completion, so the tail bounds
// its sequence from above — and saveSnapshot drops the tombstone once the
// low-water mark passes it.
func (s *Service) noteRetired(id cluster.TaskID) {
	if s.jrn == nil {
		return
	}
	if j := cluster.JobOfTask(id); s.cl.Job(j) == nil {
		s.tombs[j] = s.jrn.log.LastSeq()
	}
}

// opShardKey is the ingestion shard selector for an op: completions shard
// by the task's job (like the cluster tables), machine ops by machine ID.
func opShardKey(o op) int64 {
	if o.kind == opComplete {
		return int64(cluster.JobOfTask(o.task))
	}
	return int64(o.machine)
}

// syncLoop is the SyncBatch fsync pacer.
func (s *Service) syncLoop(interval time.Duration) {
	defer close(s.syncDone)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.syncStop:
			return
		case <-t.C:
			s.jrn.log.Sync()
		}
	}
}
