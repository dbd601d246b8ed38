package mcmf

import (
	"fmt"
	"math/rand"
	"testing"

	"firmament/internal/flow"
)

// TestSolversBitDeterministic pins the determinism contract of
// docs/solver.md: the same graph and change history produce identical
// flow, potentials and iteration counts, whether the solver is fresh or
// has already solved other graphs (its retained scratch must not leak into
// the result). Each of the four algorithms solves two clones of a random
// scheduling graph, and cost scaling also carries both clones through the
// same change batch with SolveIncremental.
func TestSolversBitDeterministic(t *testing.T) {
	ctors := []func() Solver{
		func() Solver { return NewCycleCanceling() },
		func() Solver { return NewSuccessiveShortestPath() },
		func() Solver { return NewCostScaling() },
		func() Solver { return NewRelaxation() },
	}
	// The production configuration (core.DefaultConfig).
	opts := &Options{Alpha: 9, ArcPrioritization: true}
	for seed := int64(0); seed < differentialSeeds/2; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%02d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			base := randomSchedulingGraph(rng, 20+rng.Intn(40), 4+rng.Intn(10), 1+rng.Intn(3))
			// The reused solvers first solve a larger, unrelated graph so
			// their scratch is sized and dirtied by something else.
			other := randomSchedulingGraph(rand.New(rand.NewSource(seed+1<<20)), 80, 16, 3)
			solve := func(s Solver, g *flow.Graph) Result {
				t.Helper()
				res, err := s.Solve(g, opts)
				if err != nil {
					t.Fatalf("%s: %v", s.Name(), err)
				}
				return res
			}
			same := func(label string, ga, gb *flow.Graph, ra, rb Result) {
				t.Helper()
				if ga.Fingerprint() != gb.Fingerprint() {
					t.Fatalf("%s: flow or potentials differ between fresh and reused solver", label)
				}
				if ra.Iterations != rb.Iterations || ra.Cost != rb.Cost {
					t.Fatalf("%s: fresh solve took %d iterations to cost %d, reused %d to cost %d",
						label, ra.Iterations, ra.Cost, rb.Iterations, rb.Cost)
				}
			}

			for _, ctor := range ctors {
				fresh, reused := ctor(), ctor()
				solve(reused, other.Clone())
				ga, gb := base.Clone(), base.Clone()
				same(fresh.Name(), ga, gb, solve(fresh, ga), solve(reused, gb))
			}

			// Incremental cost scaling across one change batch, applied to
			// both clones from identically seeded generators.
			fresh, reused := NewCostScaling(), NewCostScaling()
			solve(reused, other.Clone())
			graphs := []*flow.Graph{base.Clone(), base.Clone()}
			var res [2]Result
			for i, s := range []*CostScaling{fresh, reused} {
				solve(s, graphs[i])
				var cs flow.ChangeSet
				mutateSchedulingGraph(rand.New(rand.NewSource(seed*1009+1)), graphs[i], &cs)
				r, err := s.SolveIncremental(graphs[i], &cs, opts)
				if err != nil {
					t.Fatalf("incremental cost scaling: %v", err)
				}
				res[i] = r
			}
			same("incremental cost scaling", graphs[0], graphs[1], res[0], res[1])
		})
	}
}
