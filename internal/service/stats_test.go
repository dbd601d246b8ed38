package service

import (
	"runtime"
	"testing"
	"time"

	"firmament/internal/cluster"
)

var statsSink Stats

// TestSteadyStateStatsCost drives 200k placements through runRound and
// requires that one Stats() call costs as many bytes as it did after 1k:
// the serving statistics are fixed-size histograms plus a capped window
// of recent round times, so their cost is independent of uptime.
func TestSteadyStateStatsCost(t *testing.T) {
	const jobTasks = 1000
	var clock time.Duration
	s := manualServiceCfg(cluster.Topology{Racks: 4, MachinesPerRack: 32, SlotsPerMachine: 8}, &clock,
		Config{Templates: true})
	// Age the round window to its cap first, so both measurements see a
	// long-running service's window; the cap itself is checked at the end.
	for i := 0; i < roundWindow; i++ {
		s.recentRounds.AddDuration(time.Millisecond)
	}
	round := func() {
		t.Helper()
		clock += time.Millisecond
		if _, err := s.runRound(); err != nil {
			t.Fatalf("runRound: %v", err)
		}
	}
	statsBytes := func() float64 {
		const calls = 10
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			statsSink = s.Stats()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / calls
	}

	var early float64
	for placed := 0; placed < 200_000; placed += jobTasks {
		job, err := s.Submit(cluster.Batch, 0, make([]cluster.TaskSpec, jobTasks))
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		round()
		for _, id := range job.Tasks {
			if err := s.Complete(id); err != nil {
				t.Fatalf("Complete: %v", err)
			}
		}
		round()
		if placed == 0 {
			early = statsBytes()
		}
	}
	late := statsBytes()
	t.Logf("Stats() allocates %.0f B after 1k placements, %.0f B after 200k", early, late)
	if late > 1.1*early {
		t.Fatalf("Stats() allocates %.0f B after 200k placements, %.0f B after 1k", late, early)
	}
	st := s.Stats()
	if st.Placed != 200_000 || st.PlacementLatency.N() != int(st.Placed) {
		t.Fatalf("placed %d, %d placement latency samples; want 200000 of each", st.Placed, st.PlacementLatency.N())
	}
	if n := st.RoundTime.N(); n > roundWindow {
		t.Fatalf("RoundTime holds %d rounds, past the %d-round window", n, roundWindow)
	}
	if st.RoundTimeHist.N() != int(st.Rounds) {
		t.Fatalf("round-time histogram has %d samples for %d rounds", st.RoundTimeHist.N(), st.Rounds)
	}
}
