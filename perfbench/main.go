// Command perfbench is the repository's benchmark. It runs one named
// workload against the real scheduling service, checks the client-visible
// history of every run, and prints every metric by name with its unit. The
// last line of its output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, each the median over
// several freshly built services; with -trace 1 they are the per-layer ones
// of one traced run, printed after a table comparing its end-to-end figures
// with untraced runs of the same invocation (the tracing overhead).
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload trace-open --seed 1 --seconds 30 --trace 0
//
// See perfbench/README.md for the workloads, the metrics and which layer
// metric is expected to move which end-to-end metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// buildDir holds everything a run leaves behind: journals, span files.
const buildDir = ".bench_build"

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), " | ")+" | all")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 30, "measured seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	names := []string{*name}
	if *name == "all" {
		names = workloadNames()
	}
	if (*name != "all" && workloads[*name] == nil) || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (%s or all), -seconds >= 1 and -trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	hj, _ := json.Marshal(stampHost(*seed))
	fmt.Fprintf(stdout, "host %s\n", hj)
	// With -workload all every workload runs in turn and the result line
	// prefixes each metric with its workload.
	res := result{Correct: true, Metrics: make(map[string]resultItem)}
	for _, n := range names {
		w := workloads[n]
		fmt.Fprintf(stdout, "perfbench %s seed=%d seconds=%d trace=%d\n", w.name, *seed, *seconds, *trace)
		b := &bench{w: w, seed: *seed, seconds: time.Duration(*seconds) * time.Second, out: stdout}
		var r result
		var err error
		if *trace == 0 {
			r, err = b.untraced()
		} else {
			r, err = b.traced()
		}
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		res.Correct = res.Correct && r.Correct
		res.Attempted += r.Attempted
		res.Failed += r.Failed
		for k, v := range r.Metrics {
			if len(names) > 1 {
				k = w.name + "/" + k
			}
			res.Metrics[k] = v
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// result is the final output line.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]resultItem `json:"metrics"`
}

type resultItem struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func resultOf(ms []metric, attempted, failed int) result {
	r := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: make(map[string]resultItem)}
	for _, m := range ms {
		r.Metrics[m.name] = resultItem{Value: m.value, Unit: m.unit}
	}
	return r
}

type bench struct {
	w       *workload
	seed    int64
	seconds time.Duration
	out     io.Writer
	reps    int // repetitions run so far, for distinct journal directories
}

// repOut is one repetition's outcome.
type repOut struct {
	e2e        repE2E
	attempted  int
	failed     int
	violations []violation
	failures   []string
	maxRate    float64
	rungs      []rung
	layers     layerSet // traced run only
	in         *streamInputs
	churn      []machineOp
	job        jobInput
}

// Repetitions per invocation: end-to-end figures are medians over them, and
// set-up time is the median over them and setupOnlyReps more set-ups.
const (
	untracedReps  = 3
	setupOnlyReps = 20
)

// untraced runs the workload untracedReps times on fresh services, each
// measuring a third of the time, and reports the end-to-end figures.
func (b *bench) untraced() (result, error) {
	var set e2eSet
	attempted, failed := 0, 0
	for i := 0; i < setupOnlyReps; i++ {
		r, err := b.rep(-1-i, 0, nil, 0)
		if err != nil {
			return result{}, err
		}
		set.addSetup(r.e2e)
		attempted += r.attempted
		failed += r.failed
	}
	for i := 0; i < untracedReps; i++ {
		r, err := b.rep(i, b.seconds/untracedReps, nil, 0)
		if err != nil {
			return result{}, err
		}
		set.add(r.e2e)
		attempted += r.attempted
		failed += r.failed
	}
	ms, reported := set.metrics()
	fmt.Fprintf(b.out, "end-to-end (gated in BENCHMARK.json):\n")
	printMetrics(b.out, ms)
	fmt.Fprintf(b.out, "end-to-end (reported only):\n")
	printMetrics(b.out, append(reported, b.reportedOnly(&set, 0, nil, attempted, failed)...))
	return resultOf(ms, attempted, failed), nil
}

// reportedOnly are the end-to-end figures BENCHMARK.json cannot gate
// because they do not apply to every workload, or read 0 when the run is
// correct.
func (b *bench) reportedOnly(set *e2eSet, maxRate float64, rungs []rung, attempted, failed int) []metric {
	var ms []metric
	if b.w.openLoop {
		late := set.genLate()
		ms = append(ms, metric{"gen_late_p99_ms", "ms", late.Tail, late.label()})
	}
	if rungs != nil {
		var s []string
		for _, r := range rungs {
			verdict := "pass"
			if !r.pass {
				verdict = "fail"
				if r.growth {
					verdict += " (backlog grew)"
				}
			}
			s = append(s, fmt.Sprintf("%.0f/s %s=%.1fms %s", r.rate, strings.Fields(r.label)[0], r.p99Ms, verdict))
		}
		ms = append(ms, metric{"max_rate_tasks_s", "1/s", maxRate,
			fmt.Sprintf("limit place_p99 <= %v; rungs: %s", latencyLimit, strings.Join(s, "; "))})
	}
	ms = append(ms, metric{"error_rate", "ratio", float64(failed) / float64(max(attempted, 1)),
		fmt.Sprintf("%d failed / %d attempted", failed, attempted)})
	return ms
}

// Traced invocations split their time in sixths: two untraced runs, the
// max-rate ladder (where the workload has one, untraced too), one traced
// run and the stepped core replay.
const tracedParts = 6

// traced runs the workload untraced twice (the second also searches the max
// rate) and traced once, prints the tracing overhead on each end-to-end
// figure, replays the traced run's inputs through the core step by step,
// and reports the per-layer metrics.
func (b *bench) traced() (result, error) {
	part := b.seconds / tracedParts
	var set, tracedSet e2eSet
	attempted, failed := 0, 0
	var maxRate float64
	var rungs []rung
	for i := 0; i < 2; i++ {
		var ladder time.Duration
		if b.w.ladder && i == 1 {
			ladder = 2 * part
		}
		r, err := b.rep(i, part, nil, ladder)
		if err != nil {
			return result{}, err
		}
		set.add(r.e2e)
		attempted += r.attempted
		failed += r.failed
		if ladder > 0 {
			maxRate, rungs = r.maxRate, r.rungs
		}
	}
	tr := newTracer()
	r, err := b.rep(2, part, tr, 0)
	if err != nil {
		return result{}, err
	}
	attempted += r.attempted
	failed += r.failed

	tracedSet.add(r.e2e)

	fmt.Fprintf(b.out, "tracing overhead (%d untraced runs vs the traced run):\n", len(set.reps))
	base, baseReported := set.metrics()
	withTrace, tracedReported := tracedSet.metrics()
	base, withTrace = append(base, baseReported...), append(withTrace, tracedReported...)
	if b.w.openLoop {
		base = append(base, metric{"gen_late_p99_ms", "ms", set.genLate().Tail, ""})
		withTrace = append(withTrace, metric{"gen_late_p99_ms", "ms", tracedSet.genLate().Tail, ""})
	}
	for i, m := range base {
		t := withTrace[i]
		diff := math.NaN()
		if m.value != 0 {
			diff = (t.value - m.value) / m.value * 100
		}
		fmt.Fprintf(b.out, "  %-28s untraced %12.4f  traced %12.4f %-4s  %+7.1f%%\n", m.name, m.value, t.value, m.unit, diff)
	}

	cr, err := replayCore(b.w, r.in, r.job, r.churn, part)
	if err != nil {
		return result{}, err
	}
	layers := r.layers
	coreLayer(&layers, cr)
	sort.SliceStable(layers, func(i, j int) bool { return layerOrder(layers[i].name) < layerOrder(layers[j].name) })
	fmt.Fprintf(b.out, "end-to-end (untraced, reported only):\n")
	printMetrics(b.out, b.reportedOnly(&set, maxRate, rungs, attempted, failed))
	fmt.Fprintf(b.out, "per-layer (traced run; core and pool from %d replayed rounds):\n", len(cr.roundUs))
	printMetrics(b.out, layers)

	fmt.Fprintf(b.out, "span self time by layer boundary (ms):\n")
	for _, lt := range tr.selfTimes() {
		fmt.Fprintf(b.out, "  %-26s calls %8d total %10.2f | kept %6d: %10.2f, self %10.2f\n",
			lt.Name, lt.Calls, lt.TotalMs, lt.Kept, lt.KeptMs, lt.SelfMs)
	}
	if path, err := b.writeSpans(tr); err != nil {
		fmt.Fprintf(b.out, "spans not written: %v\n", err)
	} else {
		fmt.Fprintf(b.out, "spans written to %s\n", path)
	}
	return resultOf(layers, attempted, failed), nil
}

// layerOrder sorts per-layer metrics in the order a submission crosses
// the layers.
func layerOrder(name string) int {
	for i, p := range []string{"api.", "service.", "template.", "core.", "pool.", "policy.", "wal.", "runtime."} {
		if strings.HasPrefix(name, p) {
			return i
		}
	}
	return 99
}

func (b *bench) writeSpans(tr *tracer) (string, error) {
	dir := filepath.Join(buildDir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.csv", b.w.name, b.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := tr.writeCSV(f); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// rep builds a fresh service, sets it up, measures one window (and, with
// a ladder budget, searches the max rate), drains, checks the history and
// shuts the service down.
func (b *bench) rep(i int, window time.Duration, tr *tracer, ladder time.Duration) (*repOut, error) {
	b.reps++
	repSeed := b.seed*1000 + int64(i)
	dir := filepath.Join(buildDir, "wal", fmt.Sprintf("%s-%d-%d", b.w.name, os.Getpid(), b.reps))
	out := &repOut{}
	debug.FreeOSMemory() // start every repetition from a collected heap

	t0, cpu0 := time.Now(), processCPU()
	e, err := newRun(b.w, tr, dir)
	if err != nil {
		return nil, err
	}
	var o *openLoop
	if b.w.openLoop {
		rungTasks := b.w.rate * ladderLo * math.Pow(ladderStep, ladderRungs) * ladder.Seconds()
		out.in = generateStream(b.w, repSeed, int(b.w.rate*window.Seconds()+rungTasks)+1)
		o = newOpenLoop(e, out.in)
		if err := o.prefill(b.w.rate, 30*time.Second); err != nil {
			e.close()
			return nil, err
		}
	} else {
		out.job = recurringJob(b.w, repSeed)
		// Warm-up: the first job is placed by the first solve and records
		// the template the closed loop then hits.
		rec := e.submit(out.job, out.job.specs, -1, -1)
		if rec == nil {
			e.close()
			return nil, fmt.Errorf("warm-up submit failed: %v", e.failures)
		}
		select {
		case <-e.await(rec.id, len(rec.tasks)):
		case <-time.After(30 * time.Second):
			e.close()
			return nil, errors.New("warm-up placement timed out")
		}
		e.attempt(len(rec.tasks))
		if err := e.sys.door.complete(rec.tasks); err != nil {
			e.fail("complete warm-up job: %v", err)
		}
	}
	setupS := time.Since(t0).Seconds()
	setupCPU := (processCPU() - cpu0).Seconds()

	start := e.mark()
	stopRSS := make(chan struct{})
	rss := sampleRSS(stopRSS)
	if o != nil {
		out.churn = machineChurn(b.w, repSeed, window)
		o.runPhase(0, b.w.rate, window, out.churn)
	} else {
		closedLoop(e, out.job, window)
	}
	close(stopRSS)
	rssMB := <-rss
	end := e.mark()
	if o != nil && ladder > 0 {
		out.maxRate, out.rungs = o.ladder(b.w.rate, ladder)
	}
	if o != nil {
		o.restoreAll()
		o.settle(10 * time.Second)
	}
	final, qerr := e.quiesce(10 * time.Second)
	events := e.history()
	first := firstPlacements(events)
	s := phaseSamples(e.jobs, first, 0)
	s.placedInWindow, s.placedPerSecond = placements(e.jobs, first, start.at, end.at)
	s.windowS = float64(end.at-start.at) / 1e9
	if o != nil {
		s.genLateMs = o.genLateMs
	}
	out.e2e = e2eOf(setupS, setupCPU, rssMB, start, end, s)
	if tr != nil {
		out.layers = liveLayers(e, start, end, s, final)
	}
	if qerr != nil {
		e.fail("final stats: %v", qerr)
	} else {
		out.violations = checkHistory(e.ackedJobs(), events, e.ops, final)
	}
	if err := e.close(); err != nil {
		e.fail("shutdown: %v", err)
	}
	out.attempted = e.attempted
	out.failures = e.failures
	out.failed = len(e.failures) + violationCount(out.violations)
	b.reportRep(i, tr != nil, setupS, s, out)
	return out, nil
}

// reportRep prints one repetition's summary and any check failures.
func (b *bench) reportRep(i int, traced bool, setupS float64, s windowSamples, out *repOut) {
	if i < 0 && len(out.violations) == 0 && len(out.failures) == 0 {
		return // a clean set-up-only repetition
	}
	kind := "untraced"
	if traced {
		kind = "traced"
	}
	place := chunked(out.e2e.placeMs, taskChunk)
	fmt.Fprintf(b.out, "run %d (%s): setup %.3fs (%.3fs CPU), window %.2fs, %d tasks placed, place p50 %.3fms tail %.3fms [%s], peak RSS %.1fMB, checker: %d violations, %d failed calls\n",
		i, kind, setupS, out.e2e.setupCPU, s.windowS, s.placedInWindow, place.P50, place.Tail, place.label(), out.e2e.rssMB,
		violationCount(out.violations), len(out.failures))
	for _, v := range out.violations {
		fmt.Fprintf(b.out, "  VIOLATION %s: %d (first: %s)\n", v.what, v.count, v.first)
	}
	for k, f := range out.failures {
		if k == 5 {
			fmt.Fprintf(b.out, "  ... %d more failures\n", len(out.failures)-k)
			break
		}
		fmt.Fprintf(b.out, "  FAILED %s\n", f)
	}
}
