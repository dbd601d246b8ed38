package mcmf

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"firmament/internal/flow"
)

// The tests below run several solvers at once, each in its own goroutine
// on a private clone of the same graph — the shape of the §6.1 race, where
// relaxation and incremental cost scaling solve concurrently on the main
// graph and a replica. Solver instances and cloned graphs must share no
// state: every concurrent solve has to produce exactly the flow, potentials
// and iteration count of the same algorithm run alone. Run under -race,
// they also catch any write to storage that Clone aliases.

// concurrentOutcome is one solver's result on its private clone.
type concurrentOutcome struct {
	name string
	g    *flow.Graph
	res  Result
	err  error
}

// solveConcurrently solves a clone of base with every solver in allSolvers,
// all at once, and returns the outcomes in allSolvers order.
func solveConcurrently(base *flow.Graph) []concurrentOutcome {
	solvers := allSolvers()
	out := make([]concurrentOutcome, len(solvers))
	var wg sync.WaitGroup
	for i, s := range solvers {
		out[i] = concurrentOutcome{name: s.Name(), g: base.Clone()}
		wg.Add(1)
		go func(i int, s Solver) {
			defer wg.Done()
			out[i].res, out[i].err = s.Solve(out[i].g, nil)
		}(i, s)
	}
	wg.Wait()
	return out
}

// checkConcurrentOutcomes requires every concurrent solve to be feasible,
// optimal, at cost want, and bit-identical to the same algorithm solving a
// fresh clone of base on its own.
func checkConcurrentOutcomes(t *testing.T, base *flow.Graph, outs []concurrentOutcome, want int64) {
	t.Helper()
	for i, s := range allSolvers() {
		o := outs[i]
		if o.err != nil {
			t.Fatalf("concurrent %s: %v", o.name, o.err)
		}
		if err := o.g.CheckFeasible(); err != nil {
			t.Fatalf("concurrent %s: infeasible flow: %v", o.name, err)
		}
		if err := o.g.CheckOptimal(); err != nil {
			t.Fatalf("concurrent %s: suboptimal flow: %v", o.name, err)
		}
		if o.res.Cost != want {
			t.Fatalf("concurrent %s: cost %d, sequential optimum %d", o.name, o.res.Cost, want)
		}
		if o.res.Cost != o.g.TotalCost() {
			t.Fatalf("concurrent %s: reported %d but graph carries %d",
				o.name, o.res.Cost, o.g.TotalCost())
		}
		alone := base.Clone()
		res, err := s.Solve(alone, nil)
		if err != nil {
			t.Fatalf("%s alone: %v", s.Name(), err)
		}
		if alone.Fingerprint() != o.g.Fingerprint() || res.Iterations != o.res.Iterations {
			t.Fatalf("concurrent %s: flow, potentials or iterations (%d) differ from a solve alone (%d)",
				o.name, o.res.Iterations, res.Iterations)
		}
	}
}

// TestParallelSolversAgreeOnOptimum runs the four algorithms concurrently
// on clones of each differential-corpus scheduling graph and requires each
// to match the sequential cost scaling optimum and its own solo run.
func TestParallelSolversAgreeOnOptimum(t *testing.T) {
	for seed := int64(0); seed < differentialSeeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%02d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			base := randomSchedulingGraph(rng,
				20+rng.Intn(40),
				4+rng.Intn(10),
				1+rng.Intn(3))

			ref := base.Clone()
			res, err := NewCostScaling().Solve(ref, nil)
			if err != nil {
				t.Fatalf("sequential reference solve: %v", err)
			}
			checkConcurrentOutcomes(t, base, solveConcurrently(base), res.Cost)
		})
	}
}

// TestParallelGeneralGraphsAgree extends the concurrent agreement check to
// non-scheduling shapes: multi-unit supplies, wider capacities, negative
// costs.
func TestParallelGeneralGraphsAgree(t *testing.T) {
	for seed := int64(0); seed < differentialSeeds/2; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%02d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed + 7777))
			base := randomGeneralGraph(rng, 8+rng.Intn(16))

			want := agreeFromScratch(t, base, "sequential reference")
			checkConcurrentOutcomes(t, base, solveConcurrently(base), want)
		})
	}
}

// TestParallelIncrementalCostScaling replays the §6.1 race through
// warm-started change batches: each round, incremental cost scaling
// warm-starts on the replica while relaxation solves a clone of it from
// scratch, concurrently. Both must reach the sequential
// from-scratch optimum, and the warm start must match a second incremental
// solver carried through the same batches alone.
func TestParallelIncrementalCostScaling(t *testing.T) {
	const changeRounds = 3
	for seed := int64(0); seed < differentialSeeds/2; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%02d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			base := randomSchedulingGraph(rng,
				20+rng.Intn(40),
				4+rng.Intn(10),
				1+rng.Intn(3))

			// replica is carried by inc inside the race; solo by incSolo
			// with no concurrent neighbour. Each round relaxation solves a
			// fresh clone of the changed replica.
			replica, solo := base.Clone(), base.Clone()
			inc, incSolo, relax := NewCostScaling(), NewCostScaling(), NewRelaxation()
			if _, err := inc.Solve(replica, nil); err != nil {
				t.Fatalf("initial solve: %v", err)
			}
			if _, err := incSolo.Solve(solo, nil); err != nil {
				t.Fatalf("initial solo solve: %v", err)
			}
			for round := 1; round <= changeRounds; round++ {
				var csReplica, csSolo flow.ChangeSet
				batch := seed*1009 + int64(round)
				mutateSchedulingGraph(rand.New(rand.NewSource(batch)), replica, &csReplica)
				mutateSchedulingGraph(rand.New(rand.NewSource(batch)), solo, &csSolo)
				main := replica.Clone()

				var incRes, relaxRes Result
				var incErr, relaxErr error
				var wg sync.WaitGroup
				wg.Add(2)
				go func() {
					defer wg.Done()
					incRes, incErr = inc.SolveIncremental(replica, &csReplica, nil)
				}()
				go func() {
					defer wg.Done()
					relaxRes, relaxErr = relax.Solve(main, nil)
				}()
				wg.Wait()
				if incErr != nil {
					t.Fatalf("round %d: incremental cost scaling: %v", round, incErr)
				}
				if relaxErr != nil {
					t.Fatalf("round %d: relaxation: %v", round, relaxErr)
				}
				for _, g := range []*flow.Graph{replica, main} {
					if err := g.CheckFeasible(); err != nil {
						t.Fatalf("round %d: infeasible flow: %v", round, err)
					}
					if err := g.CheckOptimal(); err != nil {
						t.Fatalf("round %d: suboptimal flow: %v", round, err)
					}
				}
				ref := main.Clone()
				seq, err := NewCostScaling().Solve(ref, nil)
				if err != nil {
					t.Fatalf("round %d: sequential reference: %v", round, err)
				}
				if incRes.Cost != seq.Cost || relaxRes.Cost != seq.Cost {
					t.Fatalf("round %d: warm start cost %d, relaxation %d, sequential optimum %d",
						round, incRes.Cost, relaxRes.Cost, seq.Cost)
				}
				soloRes, err := incSolo.SolveIncremental(solo, &csSolo, nil)
				if err != nil {
					t.Fatalf("round %d: solo incremental solve: %v", round, err)
				}
				if solo.Fingerprint() != replica.Fingerprint() || soloRes.Iterations != incRes.Iterations {
					t.Fatalf("round %d: warm start in the race differs from the same warm start alone", round)
				}
			}
		})
	}
}
