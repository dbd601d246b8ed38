// Package experiments reproduces every table and figure of the paper's
// evaluation (§7). Each experiment prints the same rows/series the paper
// reports; cmd/benchfig exposes them on the command line and bench_test.go
// wraps them in testing.B benchmarks.
//
// Absolute numbers differ from the paper (Go vs C++, laptop vs server,
// synthetic vs real trace); the experiments are designed so that the
// *shape* — which algorithm wins, by roughly what factor, and where the
// crossovers fall — reproduces. EXPERIMENTS.md records paper-vs-measured
// values.
package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"sync/atomic"
	"time"

	"firmament/internal/cluster"
	"firmament/internal/core"
	"firmament/internal/flow"
	"firmament/internal/mcmf"
	"firmament/internal/policy"
	"firmament/internal/storage"
	"firmament/internal/trace"
)

// Options tunes experiment scale. The zero value selects laptop-friendly
// defaults; Full selects paper-scale parameters (slow: hours).
type Options struct {
	// Scale multiplies the default cluster sizes (1 = defaults; the paper's
	// full 12,500-machine runs need Scale ≈ 10 and patience).
	Scale float64
	// Seed for workload generation.
	Seed int64
	// SolverTimeout caps each individual from-scratch solve; algorithms
	// that exceed it are reported as timeouts (cycle canceling at scale).
	SolverTimeout time.Duration
	// Rounds caps scheduling rounds measured per configuration.
	Rounds int
}

func (o Options) withDefaults() Options {
	if o.Scale == 0 {
		o.Scale = 1
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.SolverTimeout == 0 {
		o.SolverTimeout = 20 * time.Second
	}
	if o.Rounds == 0 {
		o.Rounds = 12
	}
	return o
}

func (o Options) scaled(n int) int {
	v := int(float64(n) * o.Scale)
	if v < 1 {
		v = 1
	}
	return v
}

// expBlockSize is the block size used by locality experiments: 1 GiB
// blocks give the multi-block-but-small files whose per-machine fractions
// make the Quincy preference thresholds (2%–14%) meaningful, matching the
// file shapes of the original Quincy evaluation.
const expBlockSize = 1 << 30

// clusterTopo builds a topology of n machines in 25-machine racks with 12
// slots (the slot density that yields ~150k tasks on 12.5k machines).
func clusterTopo(n int) cluster.Topology {
	racks := (n + 24) / 25
	return cluster.Topology{Racks: racks, MachinesPerRack: 25, SlotsPerMachine: 12}
}

// warmed builds a cluster of n machines at the target utilization with a
// Google-shape workload placed by the given scheduler mode and Quincy
// policy, returning the scheduler and the environment. The state after the
// warm round is the "snapshot" the solver-focused experiments measure on.
func warmed(n int, util float64, seed int64, mode core.SolverMode) (*core.Scheduler, *cluster.Cluster, *storage.Store) {
	topo := clusterTopo(n)
	cl := cluster.New(topo)
	store := storage.NewStore(cl, storage.Config{Seed: seed, BlockSize: expBlockSize})
	w := trace.Generate(trace.Config{
		Machines:        n,
		SlotsPerMachine: topo.SlotsPerMachine,
		Utilization:     util,
		Horizon:         time.Minute,
		Seed:            seed,
		Prefill:         true,
	})
	cfg := core.DefaultConfig()
	cfg.Mode = mode
	q := policy.NewQuincy(cl, store)
	sched := core.NewScheduler(cl, q, cfg)
	// Submit the prefill/service jobs (t=0 portion of the workload).
	for _, j := range w.Jobs {
		if j.Submit > 0 {
			break
		}
		submitJob(cl, store, j)
	}
	// One warm round places the initial workload.
	if _, _, err := sched.RunOnce(0); err != nil {
		panic(fmt.Sprintf("experiments: warm round failed: %v", err))
	}
	// Refresh the graph so task arcs reflect the post-placement running
	// state (continuation arcs instead of pending-task fan-outs), as the
	// scheduler would before its next round.
	gm := sched.GraphManager()
	gm.ApplyEvents(cl.DrainEvents())
	gm.UpdateRound(time.Millisecond)
	return sched, cl, store
}

// warmedWithPolicy is warmed with a selectable policy kind ("quincy",
// "loadspread" or "netaware").
func warmedWithPolicy(n int, util float64, seed int64, policyKind string) (*core.Scheduler, *cluster.Cluster, *storage.Store) {
	if policyKind == "quincy" || policyKind == "" {
		sched, cl, store := warmed(n, util, seed, core.ModeQuincy)
		return sched, cl, store
	}
	topo := clusterTopo(n)
	cl := cluster.New(topo)
	store := storage.NewStore(cl, storage.Config{Seed: seed, BlockSize: expBlockSize})
	w := trace.Generate(trace.Config{
		Machines:        n,
		SlotsPerMachine: topo.SlotsPerMachine,
		Utilization:     util,
		Horizon:         time.Minute,
		Seed:            seed,
		Prefill:         true,
	})
	cfg := core.DefaultConfig()
	cfg.Mode = core.ModeQuincy
	var model policy.CostModel
	switch policyKind {
	case "loadspread":
		model = policy.NewLoadSpread(cl)
	case "netaware":
		model = policy.NewNetworkAware(cl, nil)
	default:
		model = policy.NewQuincy(cl, store)
	}
	sched := core.NewScheduler(cl, model, cfg)
	for _, j := range w.Jobs {
		if j.Submit > 0 {
			break
		}
		submitJob(cl, store, j)
	}
	if _, _, err := sched.RunOnce(0); err != nil {
		panic(fmt.Sprintf("experiments: warm round failed: %v", err))
	}
	gm := sched.GraphManager()
	gm.ApplyEvents(cl.DrainEvents())
	gm.UpdateRound(time.Millisecond)
	return sched, cl, store
}

// submitJob registers a traced job with the cluster, creating input files.
func submitJob(cl *cluster.Cluster, store *storage.Store, j trace.JobTrace) *cluster.Job {
	specs := make([]cluster.TaskSpec, len(j.Tasks))
	for i, tt := range j.Tasks {
		file := int64(-1)
		if store != nil && tt.InputSize > 0 {
			file = store.AddFile(tt.InputSize)
		}
		specs[i] = cluster.TaskSpec{
			Duration: tt.Duration, InputFile: file,
			InputSize: tt.InputSize, NetDemand: tt.NetDemand,
		}
	}
	return cl.SubmitJob(j.Class, j.Priority, j.Submit, specs)
}

// timedSolve runs solver on a clone of g with a timeout, returning the
// runtime or ok=false on timeout/error.
func timedSolve(g *flow.Graph, solver mcmf.Solver, opts *mcmf.Options, timeout time.Duration) (time.Duration, bool) {
	clone := g.Clone()
	var stop atomic.Bool
	if opts == nil {
		opts = &mcmf.Options{}
	}
	o := *opts
	o.Stop = &stop
	timer := time.AfterFunc(timeout, func() { stop.Store(true) })
	defer timer.Stop()
	res, err := solver.Solve(clone, &o)
	if err != nil {
		return 0, false
	}
	return res.Runtime, true
}

// churn applies a small batch of realistic cluster changes: some task
// completions and a few new arrivals, as between two scheduling rounds.
func churn(cl *cluster.Cluster, store *storage.Store, rng *rand.Rand, now time.Duration, completions, arrivals int) {
	// Pick candidates while iterating, mutate afterwards: Jobs holds the
	// cluster's read lock, so the callback must not call Complete.
	var picks []cluster.TaskID
	cl.Jobs(func(j *cluster.Job) {
		if j.Class != cluster.Batch {
			return
		}
		for _, id := range j.Tasks {
			if len(picks) >= completions {
				return
			}
			// Completed tasks are retired from the tables: skip their IDs.
			if t := cl.Task(id); t != nil && t.State == cluster.TaskRunning && rng.Intn(3) == 0 {
				picks = append(picks, id)
			}
		}
	})
	for _, id := range picks {
		_ = cl.Complete(id, now)
	}
	if arrivals > 0 {
		specs := make([]cluster.TaskSpec, arrivals)
		for i := range specs {
			size := int64(2+rng.Intn(6)) << 30
			specs[i] = cluster.TaskSpec{
				Duration:  time.Duration(30+rng.Intn(600)) * time.Second,
				InputFile: store.AddFile(size),
				InputSize: size,
			}
		}
		cl.SubmitJob(cluster.Batch, 0, now, specs)
	}
}

// flowGraph aliases flow.Graph for the experiment files.
type flowGraph = flow.Graph

func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}

func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n=== %s ===\n", title)
}

// WarmedForProfile exposes a warmed scheduling graph for profiling tools
// and benchmarks.
func WarmedForProfile(n int, util float64, seed int64, mode core.SolverMode) (*core.Scheduler, *flow.Graph) {
	sched, _, _ := warmed(n, util, seed, mode)
	return sched, sched.GraphManager().Graph()
}

// WarmedSchedulerForProfile exposes a warmed scheduler (benchmarks).
func WarmedSchedulerForProfile(n int, util float64, seed int64) (*core.Scheduler, *cluster.Cluster) {
	sched, cl, _ := warmed(n, util, seed, core.ModeQuincy)
	return sched, cl
}

// OversubscribedGraph builds the Figure 8 scenario for benchmarks: a
// 90%-utilized cluster plus a correlated-preference job pushing it extra
// fraction over.
func OversubscribedGraph(n int, extra float64, seed int64) *flow.Graph {
	sched, cl, store := warmed(n, 0.90, seed, core.ModeQuincy)
	add := int(float64(cl.TotalSlots()) * extra)
	shared := store.AddFile(64 << 30)
	specs := make([]cluster.TaskSpec, add)
	for i := range specs {
		specs[i] = cluster.TaskSpec{Duration: 10 * time.Minute, InputFile: shared, InputSize: 64 << 30}
	}
	cl.SubmitJob(cluster.Batch, 0, time.Second, specs)
	sched.GraphManager().ApplyEvents(cl.DrainEvents())
	sched.GraphManager().UpdateRound(time.Second)
	return sched.GraphManager().Graph()
}

// ContendedGraph builds the Figure 9 scenario for benchmarks: a skew-loaded
// load-spreading cluster with one big arriving job.
func ContendedGraph(machines, jobTasks int, seed int64) (*flow.Graph, error) {
	return loadSpreadContendedGraph(machines, jobTasks, seed)
}

// ChangedGraph builds a warmed, optimally-solved graph plus a realistic
// inter-round change batch, for incremental-solve benchmarks (Figure 11).
func ChangedGraph(n int, seed int64) (*flow.Graph, *flow.ChangeSet) {
	sched, cl, store := warmed(n, 0.6, seed, core.ModeQuincy)
	gm := sched.GraphManager()
	cs := mcmf.NewCostScaling()
	if _, err := cs.Solve(gm.Graph(), nil); err != nil {
		panic(err)
	}
	mcmf.PriceRefine(gm.Graph(), cs.ScaleFor(gm.Graph()), 0, nil)
	rng := rand.New(rand.NewSource(seed))
	churn(cl, store, rng, time.Second, n/8+1, n/8+1)
	gm.ApplyEvents(cl.DrainEvents())
	gm.UpdateRound(time.Second)
	return gm.Graph(), gm.Changes()
}
