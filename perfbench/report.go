package main

import (
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"firmament/internal/api"
	"firmament/internal/cluster"
	"firmament/internal/core"
)

// metric is one reported figure. Timings carry their sample count and the
// percentile actually reported.
type metric struct {
	name  string
	unit  string
	value float64
	note  string // sample count, percentile fallback, base of a ratio
}

// windowSamples are the client-side samples of one measured window.
type windowSamples struct {
	placeMs, jobMs, ackMs, genLateMs []float64
	publishDelayUs                   []float64
	placedInWindow                   int
	placedPerSecond                  []float64 // per whole second of the window
	windowS                          float64
}

// firstPlacements maps every task to its first Placed receipt.
func firstPlacements(events []watchEvent) map[cluster.TaskID]watchEvent {
	first := make(map[cluster.TaskID]watchEvent, len(events))
	for _, ev := range events {
		if ev.p.Kind != core.DecisionPlaced {
			continue
		}
		if _, ok := first[ev.p.Task]; !ok {
			first[ev.p.Task] = ev
		}
	}
	return first
}

// phaseSamples collects the latency samples of the jobs submitted in phase
// idx. An unplaced task counts as +Inf, so it misses any latency limit.
func phaseSamples(jobs []*jobRec, first map[cluster.TaskID]watchEvent, idx int) windowSamples {
	var s windowSamples
	for _, j := range jobs {
		if j.phase != idx {
			continue
		}
		s.ackMs = append(s.ackMs, float64(j.acked-j.sent)/1e6)
		last, all := int64(0), true
		for _, t := range j.tasks {
			ev, ok := first[t]
			if !ok {
				s.placeMs = append(s.placeMs, math.Inf(1))
				all = false
				continue
			}
			s.placeMs = append(s.placeMs, float64(ev.at-j.due)/1e6)
			s.publishDelayUs = append(s.publishDelayUs, float64(ev.at-j.sent-int64(ev.p.Latency))/1e3)
			last = max(last, ev.at)
		}
		if all {
			s.jobMs = append(s.jobMs, float64(last-j.due)/1e6)
		} else {
			s.jobMs = append(s.jobMs, math.Inf(1))
		}
	}
	return s
}

// placements counts the first placements of measured jobs received in
// [from, to): in total, and per whole second from from.
func placements(jobs []*jobRec, first map[cluster.TaskID]watchEvent, from, to int64) (int, []float64) {
	total := 0
	perSecond := make([]float64, (to-from)/int64(time.Second))
	for _, j := range jobs {
		if j.phase < 0 {
			continue
		}
		for _, t := range j.tasks {
			if ev, ok := first[t]; ok && ev.at >= from && ev.at < to {
				total++
				if b := (ev.at - from) / int64(time.Second); b < int64(len(perSecond)) {
					perSecond[b]++
				}
			}
		}
	}
	return total, perSecond
}

// repE2E is one repetition's end-to-end figures and samples, the samples
// in submission order.
type repE2E struct {
	setupS, setupCPU, rssMB, cpuUs, retainedKB float64
	placedPerSecond                            []float64
	placeMs, jobMs, ackMs, genLateMs           []float64
}

func e2eOf(setupS, setupCPU, rssMB float64, start, end mark, s windowSamples) repE2E {
	placed := float64(max(s.placedInWindow, 1))
	return repE2E{
		setupS:          setupS,
		setupCPU:        setupCPU,
		cpuUs:           float64(end.cpu-start.cpu) / 1e3 / placed,
		retainedKB:      (float64(end.mem.HeapAlloc) - float64(start.mem.HeapAlloc)) / 1024 / placed,
		placedPerSecond: s.placedPerSecond,
		rssMB:           rssMB,
		placeMs:         s.placeMs,
		jobMs:           s.jobMs,
		ackMs:           s.ackMs,
		genLateMs:       s.genLateMs,
	}
}

// Chunk sizes for the chunked percentiles: per-task samples come in bursts
// of up to a tenth of the cluster (one job), per-job samples are fewer.
const (
	taskChunk = 5000
	jobChunk  = 1000
)

// chunkStat is a latency summary taken as the median over consecutive
// chunks of the samples of each chunk's percentiles: the p99 of a typical
// stretch of the run, which one stall on a shared host does not swing.
type chunkStat struct {
	N, Chunks int
	P50, Tail float64
	tail      timing // the percentile a chunk supports
}

// chunked summarizes vals in chunks of chunk samples, the last chunk
// absorbing the remainder; fewer than two chunks' worth is summarized
// whole.
func chunked(vals []float64, chunk int) chunkStat {
	n := len(vals)
	k := max(n/chunk, 1)
	var p50s, tails []float64
	var last timing
	for i := 0; i < k; i++ {
		hi := (i + 1) * chunk
		if i == k-1 {
			hi = n
		}
		last = summarize(append([]float64(nil), vals[i*chunk:hi]...), 99)
		p50s = append(p50s, last.P50)
		tails = append(tails, last.Tail)
	}
	return chunkStat{N: n, Chunks: k, P50: median(p50s), Tail: median(tails), tail: last}
}

func (c chunkStat) label() string {
	if c.Chunks == 1 {
		return c.tail.label()
	}
	return fmt.Sprintf("p%g, median of %d chunks (n=%d)", c.tail.TailP, c.Chunks, c.N)
}

// e2eSet is what one invocation measured end to end.
type e2eSet struct {
	setups, setupCPUs []float64 // every set-up, the set-up-only repetitions included
	reps              []repE2E
}

func (s *e2eSet) addSetup(r repE2E) {
	s.setups = append(s.setups, r.setupS)
	s.setupCPUs = append(s.setupCPUs, r.setupCPU)
}

func (s *e2eSet) add(r repE2E) {
	s.addSetup(r)
	s.reps = append(s.reps, r)
}

// pooled chunks one sample set over all repetitions.
func (s *e2eSet) pooled(f func(r repE2E) []float64, chunk int) chunkStat {
	var all []float64
	for _, r := range s.reps {
		all = append(all, f(r)...)
	}
	return chunked(all, chunk)
}

// perRep returns the median over the repetitions of f.
func (s *e2eSet) perRep(f func(r repE2E) float64) float64 {
	v := make([]float64, len(s.reps))
	for i, r := range s.reps {
		v[i] = f(r)
	}
	return median(v)
}

// metrics reports the end-to-end figures: latencies as chunked
// percentiles over every repetition's samples, throughput as the median
// one-second rate, memory and CPU as the median over the repetitions,
// set-up time as the median of every set-up, in CPU time (gated) and wall
// time. gated are the figures BENCHMARK.json bounds. The others follow the
// speed of the host: on a shared 2-vCPU VM their spread across runs passed
// the largest bound the benchmark may set (see README.md), so they are
// reported only.
func (s *e2eSet) metrics() (gated, reported []metric) {
	place := s.pooled(func(r repE2E) []float64 { return r.placeMs }, taskChunk)
	job := s.pooled(func(r repE2E) []float64 { return r.jobMs }, jobChunk)
	ack := s.pooled(func(r repE2E) []float64 { return r.ackMs }, jobChunk)
	var seconds []float64
	for _, r := range s.reps {
		seconds = append(seconds, r.placedPerSecond...)
	}
	runs := fmt.Sprintf("median of %d runs", len(s.reps))
	p50 := func(c chunkStat) string { return strings.Replace(c.label(), "p99", "p50", 1) }
	gated = []metric{
		{"setup_s", "s", median(s.setupCPUs), fmt.Sprintf("median of %d set-ups: process CPU time", len(s.setupCPUs))},
		{"retained_kb_per_task", "KiB", s.perRep(func(r repE2E) float64 { return r.retainedKB }), runs + ": live heap growth / tasks placed"},
	}
	reported = []metric{
		{"ack_p50_ms", "ms", ack.P50, p50(ack)},
		{"setup_wall_s", "s", median(s.setups), fmt.Sprintf("median of %d set-ups: wall time", len(s.setups))},
		{"place_p50_ms", "ms", place.P50, p50(place)},
		{"placed_per_s", "1/s", median(seconds), fmt.Sprintf("median of %d one-second buckets", len(seconds))},
		{"place_p99_ms", "ms", place.Tail, place.label()},
		{"job_p99_ms", "ms", job.Tail, job.label()},
		{"ack_p99_ms", "ms", ack.Tail, ack.label()},
		{"peak_rss_mb", "MB", s.perRep(func(r repE2E) float64 { return r.rssMB }), runs + " of the window's peak"},
		{"cpu_us_per_task", "us", s.perRep(func(r repE2E) float64 { return r.cpuUs }), runs + ": process CPU time / tasks placed"},
	}
	return gated, reported
}

// genLate is the open-loop generator's lateness.
func (s *e2eSet) genLate() chunkStat {
	return s.pooled(func(r repE2E) []float64 { return r.genLateMs }, jobChunk)
}

// pct returns the p-th percentile of vals with its label, or 0 when empty.
func pct(vals []float64, p float64) (float64, string) {
	if len(vals) == 0 {
		return 0, "n=0"
	}
	t := summarize(vals, p)
	if p == 50 {
		return t.P50, fmt.Sprintf("p50 (n=%d)", t.N)
	}
	if p == 100 {
		return t.Max, fmt.Sprintf("max (n=%d)", t.N)
	}
	return t.Tail, t.label()
}

// ratio returns a/b, or 0 when b is 0, with its base.
func ratio(a, b float64, base string) (float64, string) {
	if b == 0 {
		return 0, "base 0 " + base
	}
	return a / b, fmt.Sprintf("%g / %g %s", a, b, base)
}

// layerSet accumulates per-layer metrics in report order.
type layerSet []metric

func (l *layerSet) add(name, unit string, v float64, note string) {
	*l = append(*l, metric{name, unit, v, note})
}

func (l *layerSet) pct(name, unit string, vals []float64, p float64) {
	v, note := pct(vals, p)
	l.add(name, unit, v, note)
}

func (l *layerSet) ratio(name, unit string, a, b float64, base string) {
	v, note := ratio(a, b, base)
	l.add(name, unit, v, note)
}

// coreLayer reports the stepped core replay.
func coreLayer(l *layerSet, c *coreRounds) {
	rounds := float64(len(c.roundUs))
	l.pct("core.drain_us.p50", "us", c.drainUs, 50)
	l.pct("core.update_us.p50", "us", c.updateUs, 50)
	l.pct("core.update_us.p99", "us", c.updateUs, 99)
	l.add("core.update_alloc_kb", "KiB", median(c.updateAllocKB), fmt.Sprintf("median per round (n=%d)", len(c.updateAllocKB)))
	l.pct("core.extract_us.p50", "us", c.extractUs, 50)
	l.pct("core.apply_us.p50", "us", c.applyUs, 50)
	l.pct("core.round_us.p50", "us", c.roundUs, 50)
	l.pct("core.round_us.p99", "us", c.roundUs, 99)
	l.ratio("core.events_per_round", "events/round", sum(c.events), rounds, "rounds")
	l.ratio("core.changes_per_round", "changes/round", sum(c.changes), rounds, "rounds")
	l.pct("core.solve_us.p50", "us", c.solveUs, 50)
	l.pct("core.solve_us.p99", "us", c.solveUs, 99)
	var relaxWins, warm float64
	var relax, cs, refine, overhead []float64
	for i, r := range c.pool {
		if r.Winner == "relaxation" {
			relaxWins++
		}
		if r.Incremental {
			warm++
		}
		if r.RelaxationTime > 0 {
			relax = append(relax, us(r.RelaxationTime))
		}
		if r.CostScalingTime > 0 {
			cs = append(cs, us(r.CostScalingTime))
		}
		refine = append(refine, us(r.PriceRefineTime))
		overhead = append(overhead, c.solveUs[i]-us(r.AlgorithmTime))
	}
	l.ratio("pool.relax_win_ratio", "ratio", relaxWins, rounds, "rounds")
	l.pct("pool.relax_us.p50", "us", relax, 50)
	l.pct("pool.costscale_us.p50", "us", cs, 50)
	l.pct("pool.refine_us.p50", "us", refine, 50)
	l.pct("pool.overhead_us.p50", "us", overhead, 50)
	l.ratio("pool.warm_start_ratio", "ratio", warm, rounds, "rounds")
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

func sum(vals []float64) float64 {
	s := 0.0
	for _, v := range vals {
		s += v
	}
	return s
}

// printMetrics writes one line per metric: name, value, unit and note.
func printMetrics(w io.Writer, ms []metric) {
	for _, m := range ms {
		fmt.Fprintf(w, "  %-28s %14.4f %-13s %s\n", m.name, m.value, m.unit, m.note)
	}
}

// liveLayers reports the per-layer metrics of the traced run's measured
// window: call timings from the spans around the front door, round and
// counter deltas from Stats, and the cost model, journal filesystem and
// HTTP transport wrappers.
func liveLayers(e *runEnv, start, end mark, s windowSamples, final api.Stats) layerSet {
	var l layerSet
	tr := e.tr
	placed := float64(s.placedInWindow)

	l.pct("service.submit_us.p50", "us", tr.durations("service.Submit"), 50)
	l.pct("service.submit_us.p99", "us", tr.durations("service.Submit"), 99)
	l.pct("service.complete_us.p50", "us", tr.durations("service.Complete"), 50)
	roundMs := end.st.RoundTime.Values()[start.st.RoundTime.N():]
	for i := range roundMs {
		roundMs[i] *= 1e3 // seconds
	}
	l.pct("service.round_ms.p50", "ms", roundMs, 50)
	l.pct("service.round_ms.p99", "ms", roundMs, 99)
	rounds := float64(end.st.Rounds - start.st.Rounds)
	l.add("service.rounds_per_s", "1/s", rounds/s.windowS, fmt.Sprintf("%g rounds / %.3fs", rounds, s.windowS))
	l.ratio("service.tasks_per_round", "tasks/round", float64(end.st.Placed-start.st.Placed), rounds, "rounds")
	l.pct("service.publish_delay_us.p50", "us", s.publishDelayUs, 50)
	l.pct("service.publish_delay_us.p99", "us", s.publishDelayUs, 99)
	e.mu.Lock()
	scrapes := append([]float64(nil), e.scrapeMs...)
	e.mu.Unlock()
	l.pct("service.stats_ms.p50", "ms", scrapes, 50)
	l.pct("service.stats_ms.max", "ms", scrapes, 100)
	l.add("service.watch_dropped", "count", float64(final.WatchDropped), "whole run")
	l.add("service.backlogged", "count", float64(final.Backlogged), "whole run")

	hits := float64(end.st.TemplateHits - start.st.TemplateHits)
	misses := float64(end.st.TemplateMisses - start.st.TemplateMisses)
	l.add("template.hits", "count", hits, "window")
	l.add("template.misses", "count", misses, "window")
	l.ratio("template.hit_ratio", "ratio", hits, hits+misses, "candidate jobs")
	l.add("template.invalidations", "count", float64(end.st.TemplateInvalidations-start.st.TemplateInvalidations), "window")

	modelRounds := float64(end.policyRounds - start.policyRounds)
	l.ratio("policy.calls_per_round", "calls/round", float64(end.policyCalls-start.policyCalls), modelRounds, "rounds")
	l.ratio("policy.us_per_round", "us/round", float64(end.policyNs-start.policyNs)/1e3, modelRounds, "rounds")

	l.pct("api.submit_us.p50", "us", tr.durations("api.Submit"), 50)
	l.pct("api.submit_us.p99", "us", tr.durations("api.Submit"), 99)
	l.pct("api.complete_batch_us.p50", "us", tr.durations("api.CompleteBatch"), 50)
	l.ratio("api.requests_per_task", "req/task", float64(end.requests-start.requests), placed, "tasks")
	l.ratio("api.bytes_per_task", "B/task", float64(end.bytes-start.bytes), placed, "tasks")

	var writes, fsyncs, snaps, snapBytes []float64
	if fs := e.sys.fs; fs != nil {
		fs.st.mu.Lock()
		writes = append(writes, fs.st.writeUs[start.walWrites:end.walWrites]...)
		fsyncs = append(fsyncs, fs.st.fsyncMs[start.fsyncs:end.fsyncs]...)
		snaps = append(snaps, fs.st.snapMs...)
		snapBytes = append(snapBytes, fs.st.snapBytes...)
		fs.st.mu.Unlock()
	}
	l.pct("wal.write_us.p50", "us", writes, 50)
	l.pct("wal.write_us.p99", "us", writes, 99)
	l.ratio("wal.bytes_per_task", "B/task", float64(end.walBytes-start.walBytes), placed, "tasks")
	l.add("wal.fsyncs", "count", float64(len(fsyncs)), "window")
	l.pct("wal.fsync_ms.p50", "ms", fsyncs, 50)
	l.pct("wal.fsync_ms.max", "ms", fsyncs, 100)
	l.pct("wal.snapshot_ms.p50", "ms", snaps, 50)
	mb := 0.0
	if len(snapBytes) > 0 {
		mb = median(snapBytes) / (1 << 20)
	}
	l.add("wal.snapshot_mb", "MB", mb, fmt.Sprintf("median of %d snapshots", len(snapBytes)))

	l.ratio("runtime.alloc_kb_per_task", "KiB/task", float64(end.mem.TotalAlloc-start.mem.TotalAlloc)/1024, placed, "tasks")
	l.add("runtime.gc_cycles", "count", float64(end.mem.NumGC-start.mem.NumGC), "window")
	// PauseNs is a ring of the last 256 pauses; GC number g sits at
	// (g+255)%256.
	var pause uint64
	first := start.mem.NumGC + 1
	if end.mem.NumGC > 256 && end.mem.NumGC-255 > first {
		first = end.mem.NumGC - 255
	}
	for gc := first; gc <= end.mem.NumGC; gc++ {
		pause = max(pause, end.mem.PauseNs[(gc+255)%256])
	}
	l.add("runtime.gc_pause_ms.max", "ms", float64(pause)/1e6, "window")
	return l
}
