package template

import (
	"slices"
	"sort"
	"testing"

	"firmament/internal/cluster"
)

// byteReader feeds the fuzzer's bytes out deterministically, yielding zero
// once exhausted.
type byteReader struct {
	b []byte
	i int
}

func (r *byteReader) byte() int {
	if r.i >= len(r.b) {
		return 0
	}
	v := r.b[r.i]
	r.i++
	return int(v)
}

// fuzzMachine is one machine of the synthetic cluster state the fuzzer
// mutates.
type fuzzMachine struct {
	running int32
	slots   int32
	healthy bool
}

type fuzzState map[cluster.MachineID]*fuzzMachine

func (st fuzzState) ids() []cluster.MachineID {
	ids := make([]cluster.MachineID, 0, len(st))
	for id := range st {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func (st fuzzState) profile(buf []Run) []Run {
	buf = buf[:0]
	for _, m := range st {
		if m.healthy {
			buf = append(buf, Run{Slot: Slot{Running: m.running, Slots: m.slots}, N: 1})
		}
	}
	return Canonicalize(buf)
}

func (st fuzzState) view(m cluster.MachineID) (running, slots int, healthy bool) {
	mm := st[m]
	if mm == nil {
		return 0, 0, false
	}
	return int(mm.running), int(mm.slots), mm.healthy
}

// greedy computes the LoadSpread optimum for k tasks over the state: each
// task takes the lowest available occupancy level (ties to the lowest
// machine ID — the solver's deterministic tie-break class). Returns the
// per-task assignments and the total level cost, or ok=false if the state
// cannot hold k more tasks.
func (st fuzzState) greedy(k int) (assign []Assignment, cost int64, ok bool) {
	extra := make(map[cluster.MachineID]int32, len(st))
	ids := st.ids()
	for t := 0; t < k; t++ {
		best := cluster.MachineID(0)
		bestLevel := int32(-1)
		for _, id := range ids {
			m := st[id]
			if !m.healthy {
				continue
			}
			level := m.running + extra[id]
			if level >= m.slots {
				continue
			}
			if bestLevel < 0 || level < bestLevel {
				best, bestLevel = id, level
			}
		}
		if bestLevel < 0 {
			return nil, 0, false
		}
		assign = append(assign, Assignment{Machine: best, Level: bestLevel})
		cost += int64(bestLevel)
		extra[best]++
	}
	return assign, cost, true
}

// oracleValidate re-derives, independently of Template.Validate, whether
// committing the assignments is feasible at exactly the recorded levels.
func (st fuzzState) oracleValidate(assign []Assignment) bool {
	extra := make(map[cluster.MachineID]int32, len(assign))
	for _, as := range assign {
		m := st[as.Machine]
		if m == nil || !m.healthy {
			return false
		}
		level := m.running + extra[as.Machine]
		if level != as.Level || level >= m.slots {
			return false
		}
		extra[as.Machine]++
	}
	return true
}

// FuzzTemplateFingerprint drives the template core through random cluster
// states and mutations and asserts the safety chain a cache hit relies on:
//
//  1. Policy-distinguishable states (different shape or occupancy profile)
//     never fingerprint identically — and even if a 64-bit collision ever
//     appeared, Matches must refuse it.
//  2. Identical states always fingerprint identically and Match.
//  3. Validate agrees exactly with an independent feasibility oracle, so
//     every stale template the fuzzer constructs is rejected and no valid
//     one is spuriously dropped.
//  4. A full behavioral hit (fingerprint + Matches + Validate) commits at
//     the recorded levels, whose total cost equals the greedy LoadSpread
//     optimum of the mutated state — the equivalence contract.
func FuzzTemplateFingerprint(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 2, 1, 1, 3, 0, 1, 1, 2, 0, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{5, 1, 0, 1, 2, 1, 1, 3, 2, 1, 9, 9, 0, 0, 4, 1, 1, 1, 1, 0, 2, 3})
	f.Add([]byte{8, 4, 4, 1, 3, 3, 1, 2, 2, 1, 1, 1, 1, 2, 0, 1, 255, 7, 6, 5, 4, 3, 2, 1, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		r := &byteReader{b: data}

		// State A: 1..8 machines with random occupancy and health.
		st := make(fuzzState)
		n := 1 + r.byte()%8
		nextID := cluster.MachineID(1)
		for i := 0; i < n; i++ {
			slots := int32(1 + r.byte()%4)
			st[nextID] = &fuzzMachine{
				slots:   slots,
				running: int32(r.byte()) % (slots + 1),
				healthy: r.byte()%4 != 0,
			}
			nextID++
		}
		shapeA := Shape{
			Sig:      0x5eed,
			Class:    uint8(r.byte() % 2),
			Priority: int64(r.byte() % 3),
			Wait:     int64(r.byte() % 4),
			NTasks:   int32(1 + r.byte()%4),
			Specs:    uint64(r.byte())<<8 | uint64(r.byte()),
		}
		profileA := st.profile(nil)
		assign, costA, ok := st.greedy(int(shapeA.NTasks))
		if !ok {
			return // state A cannot hold the job; nothing to record
		}
		tpl := &Template{
			FP:      Fingerprint(shapeA, profileA),
			Shape:   shapeA,
			Profile: slices.Clone(profileA),
			Assign:  assign,
		}
		if !st.oracleValidate(tpl.Assign) {
			t.Fatal("greedy assignment must validate against its own state")
		}
		if !tpl.Validate(st.view) {
			t.Fatal("fresh template must validate against the state it was recorded in")
		}

		// Mutate toward state B: occupancy shifts, health flips, machine
		// arrivals, shape changes.
		shapeB := shapeA
		for mut := r.byte() % 5; mut > 0; mut-- {
			switch r.byte() % 8 {
			case 0, 1: // occupancy up/down
				ids := st.ids()
				m := st[ids[r.byte()%len(ids)]]
				if r.byte()%2 == 0 && m.running < m.slots {
					m.running++
				} else if m.running > 0 {
					m.running--
				}
			case 2: // health flip
				ids := st.ids()
				m := st[ids[r.byte()%len(ids)]]
				m.healthy = !m.healthy
			case 3: // machine arrival
				slots := int32(1 + r.byte()%4)
				st[nextID] = &fuzzMachine{slots: slots, healthy: true}
				nextID++
			case 4:
				shapeB.Specs ^= uint64(1 + r.byte())
			case 5:
				shapeB.Wait = int64(r.byte() % 4)
			case 6:
				shapeB.Priority = int64(r.byte() % 3)
			case 7:
				shapeB.NTasks = int32(1 + r.byte()%4)
			}
		}
		profileB := st.profile(nil)
		fpB := Fingerprint(shapeB, profileB)
		sameProfile := slices.Equal(expand(profileB), expand(profileA))
		same := shapeB == shapeA && sameProfile

		// Run lists are compared in O(runs); that must agree exactly with
		// element-wise equality of the per-machine profiles they expand
		// to, and each fingerprint must equal the per-machine fold.
		if got := tpl.Matches(shapeA, profileB); got != sameProfile {
			t.Fatalf("Matches on runs = %v, expanded profiles equal = %v", got, sameProfile)
		}
		if got, want := fpB, expandedFingerprint(shapeB, expand(profileB)); got != want {
			t.Fatalf("run-list fingerprint %x != per-machine fingerprint %x", got, want)
		}

		if same {
			if fpB != tpl.FP {
				t.Fatalf("identical states fingerprint differently: %x != %x", fpB, tpl.FP)
			}
			if !tpl.Matches(shapeB, profileB) {
				t.Fatal("identical states must Match")
			}
		} else {
			if fpB == tpl.FP {
				t.Fatalf("policy-distinguishable states collide on fingerprint %x", fpB)
			}
			if tpl.Matches(shapeB, profileB) {
				t.Fatal("Matches accepted a distinguishable state")
			}
		}

		// Validation must agree with the oracle in both directions: no
		// stale template accepted, no valid one rejected.
		if got, want := tpl.Validate(st.view), st.oracleValidate(tpl.Assign); got != want {
			t.Fatalf("Validate = %v, oracle = %v", got, want)
		}

		// A behavioral hit must realize the mutated state's optimum.
		if tpl.Matches(shapeB, profileB) && tpl.Validate(st.view) {
			_, costB, ok := st.greedy(len(tpl.Assign))
			if !ok {
				t.Fatal("validated template but the state cannot place the job")
			}
			if costA != costB {
				t.Fatalf("validated hit realizes cost %d, optimum is %d", costA, costB)
			}
		}
	})
}
