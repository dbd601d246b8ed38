// Solver-level fuzzing: where FuzzGraphChanges checks that arbitrary
// change sequences preserve the graph's structural invariants, this target
// (an external test, so it may drive internal/mcmf over flow graphs)
// extends the same idea to the solvers — after every fuzzed change batch,
// the incremental warm-started solve must agree with a from-scratch solve.
package flow_test

import (
	"testing"

	"firmament/internal/flow"
	"firmament/internal/mcmf"
)

// fuzzOps decodes a byte stream into graph-building and mutation choices:
// a cursor that yields 0 once the input is exhausted, so every prefix of
// every input is a valid program.
type fuzzOps struct {
	data []byte
	i    int
}

func (o *fuzzOps) next() int {
	if o.i >= len(o.data) {
		return 0
	}
	b := o.data[o.i]
	o.i++
	return int(b)
}

// buildSchedulingGraph constructs a feasible scheduling-shaped network from
// the op stream: one sink, one unscheduled aggregator sized to absorb every
// task, machines with slot-capacity arcs to the sink, and tasks with
// preference arcs to machines plus an unscheduled arc — the Figure 5 shape.
func buildSchedulingGraph(o *fuzzOps) *flow.Graph {
	machines := 2 + o.next()%5
	slots := 1 + o.next()%3
	tasks := 3 + o.next()%12
	g := flow.NewGraph(tasks+machines+2, tasks*4+machines)
	sink := g.AddNode(int64(-tasks), flow.KindSink)
	unsched := g.AddNode(0, flow.KindUnsched)
	g.AddArc(unsched, sink, int64(tasks), 0)
	ms := make([]flow.NodeID, machines)
	for i := range ms {
		ms[i] = g.AddNode(0, flow.KindMachine)
		g.AddArc(ms[i], sink, int64(slots), 0)
	}
	for i := 0; i < tasks; i++ {
		task := g.AddNode(1, flow.KindTask)
		prefs := 1 + o.next()%3
		for p := 0; p < prefs; p++ {
			g.AddArc(task, ms[o.next()%machines], 1, int64(o.next()%50))
		}
		g.AddArc(task, unsched, 1, int64(60+o.next()%60))
	}
	return g
}

// graphRoles collects the node IDs by kind. Clones share node IDs, so the
// same op stream applied to two clones performs identical mutations.
func graphRoles(g *flow.Graph) (sink, unsched flow.NodeID, machines, tasks []flow.NodeID) {
	sink, unsched = flow.InvalidNode, flow.InvalidNode
	g.Nodes(func(id flow.NodeID) {
		switch g.Kind(id) {
		case flow.KindSink:
			sink = id
		case flow.KindUnsched:
			unsched = id
		case flow.KindMachine:
			machines = append(machines, id)
		case flow.KindTask:
			tasks = append(tasks, id)
		}
	})
	return
}

// mutateBatch applies one decoded change batch — the §5.2 change
// categories: task arrivals (supply changes), slot-count changes
// (capacity changes), and cost changes — recording each into cs the way
// core.GraphManager records its diffs.
func mutateBatch(g *flow.Graph, cs *flow.ChangeSet, ops []byte) {
	o := &fuzzOps{data: ops}
	sink, unsched, machines, tasks := graphRoles(g)
	n := 1 + o.next()%5
	for i := 0; i < n; i++ {
		switch o.next() % 3 {
		case 0: // cost change on a task arc
			task := tasks[o.next()%len(tasks)]
			for a := g.FirstOut(task); a != flow.InvalidArc; a = g.NextOut(a) {
				if g.IsForward(a) {
					old := g.Cost(a)
					g.SetArcCost(a, int64(o.next()%80))
					cs.Record(flow.Change{Kind: flow.ChangeArcCost, Arc: a, Old: old, New: g.Cost(a)})
					break
				}
			}
		case 1: // new task arrives
			task := g.AddNode(1, flow.KindTask)
			cs.Record(flow.Change{Kind: flow.ChangeAddNode, Node: task})
			g.AddArc(task, machines[o.next()%len(machines)], 1, int64(o.next()%50))
			g.AddArc(task, unsched, 1, int64(60+o.next()%60))
			g.SetSupply(sink, g.Supply(sink)-1)
			cs.Record(flow.Change{Kind: flow.ChangeSupply, Node: sink})
			// Keep the graph feasible: the unscheduled aggregator must be
			// able to absorb every task.
			for a := g.FirstOut(unsched); a != flow.InvalidArc; a = g.NextOut(a) {
				if g.IsForward(a) && g.Head(a) == sink {
					g.SetArcCapacity(a, g.Capacity(a)+1)
					break
				}
			}
			tasks = append(tasks, task)
		case 2: // machine slot count changes
			m := machines[o.next()%len(machines)]
			for a := g.FirstOut(m); a != flow.InvalidArc; a = g.NextOut(a) {
				if g.IsForward(a) && g.Head(a) == sink {
					old := g.Capacity(a)
					g.SetArcCapacity(a, int64(1+o.next()%4))
					cs.Record(flow.Change{Kind: flow.ChangeArcCapacity, Arc: a, Old: old, New: g.Capacity(a)})
					break
				}
			}
		}
	}
}

// FuzzSolverChanges is the solver-level extension of FuzzGraphChanges: it
// decodes the fuzz input into a feasible scheduling graph plus a chain of
// change batches, carries both incremental solvers (cost scaling and
// relaxation) warm-started through every batch, and asserts after each one
// that the warm-started optimum agrees with a from-scratch solve of the
// mutated graph and that every produced flow is feasible and optimal — the
// Table 1 invariant under arbitrary fuzzer-chosen change sequences.
func FuzzSolverChanges(f *testing.F) {
	f.Add([]byte{})                                               // minimal graph, no changes
	f.Add([]byte{1, 0, 4, 2, 1, 7, 0, 30, 3})                     // cost changes
	f.Add([]byte{3, 1, 8, 1, 2, 0, 9, 1, 1, 2, 20, 3, 90})        // arrivals
	f.Add([]byte{0, 2, 6, 2, 0, 1, 5, 2, 2, 0, 2, 1, 2, 3, 2, 2}) // slot churn
	f.Add([]byte{4, 2, 11, 1, 1, 15, 0, 44, 2, 1, 9, 0, 70, 1, 1,
		33, 2, 2, 2, 0, 12, 1, 3, 80, 2, 1, 1, 0, 5}) // mixed batches
	f.Fuzz(func(t *testing.T, data []byte) {
		o := &fuzzOps{data: data}
		base := buildSchedulingGraph(o)

		fromScratch := func(g *flow.Graph, label string) int64 {
			clone := g.Clone()
			res, err := mcmf.NewCostScaling().Solve(clone, nil)
			if err != nil {
				t.Fatalf("%s: from-scratch solve: %v", label, err)
			}
			if err := clone.CheckFeasible(); err != nil {
				t.Fatalf("%s: from-scratch flow infeasible: %v", label, err)
			}
			if err := clone.CheckOptimal(); err != nil {
				t.Fatalf("%s: from-scratch flow suboptimal: %v", label, err)
			}
			return res.Cost
		}

		want := fromScratch(base, "initial")
		incSolvers := []mcmf.IncrementalSolver{mcmf.NewCostScaling(), mcmf.NewRelaxation()}
		graphs := make([]*flow.Graph, len(incSolvers))
		for i, inc := range incSolvers {
			graphs[i] = base.Clone()
			res, err := inc.Solve(graphs[i], nil)
			if err != nil {
				t.Fatalf("%s initial solve: %v", inc.Name(), err)
			}
			if res.Cost != want {
				t.Fatalf("%s initial cost %d, want %d", inc.Name(), res.Cost, want)
			}
		}

		// Change batches: consume the remaining input in fixed-size slabs
		// so both warm graphs see byte-identical mutation programs.
		const slab = 16
		rounds := 0
		for o.i < len(o.data) && rounds < 4 {
			rounds++
			end := o.i + slab
			if end > len(o.data) {
				end = len(o.data)
			}
			ops := o.data[o.i:end]
			o.i = end

			costs := make([]int64, len(incSolvers))
			for i, inc := range incSolvers {
				var cs flow.ChangeSet
				mutateBatch(graphs[i], &cs, ops)
				res, err := inc.SolveIncremental(graphs[i], &cs, nil)
				if err != nil {
					t.Fatalf("round %d: %s incremental solve: %v", rounds, inc.Name(), err)
				}
				if err := graphs[i].CheckFeasible(); err != nil {
					t.Fatalf("round %d: %s incremental flow infeasible: %v", rounds, inc.Name(), err)
				}
				if err := graphs[i].CheckOptimal(); err != nil {
					t.Fatalf("round %d: %s incremental flow suboptimal: %v", rounds, inc.Name(), err)
				}
				costs[i] = res.Cost
			}
			ref := fromScratch(graphs[0], "mutated")
			for i, inc := range incSolvers {
				if costs[i] != ref {
					t.Fatalf("round %d: %s warm-started cost %d != from-scratch optimum %d",
						rounds, inc.Name(), costs[i], ref)
				}
			}
		}
	})
}
