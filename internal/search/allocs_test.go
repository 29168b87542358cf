package search

import (
	"testing"

	"fedrlnas/internal/staleness"
)

// steadyStateAllocs measures the average heap allocations of a search round
// after the engine has reached steady state (replica arenas sized and
// per-participant scratch touched by a few real rounds).
func steadyStateAllocs(t *testing.T, workers int) float64 {
	t.Helper()
	cfg := tinyConfig()
	cfg.K = 8
	cfg.Workers = workers
	cfg.WarmupSteps = 0
	cfg.SearchSteps = 1
	cfg.Strategy = staleness.Hard // no stale branches: every round is shape-identical
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := s.runRound(true, true); err != nil {
			t.Fatal(err)
		}
	}
	return testing.AllocsPerRun(10, func() {
		if _, err := s.runRound(true, true); err != nil {
			t.Error(err)
		}
	})
}

// The parallel engine must not allocate per (replica, edge, candidate): a
// replica's buffers belong to the step (its arena), not to an op, so a
// steady-state round at workers=4 costs at most the pool's fixed dispatch
// overhead (goroutines, error slice) over the serial engine. With per-op
// buffers built on first touch this was a coupon-collector process —
// allocations kept landing on the hot path hundreds of rounds into a
// multi-worker search.
func TestParallelSteadyStateAllocsMatchSerial(t *testing.T) {
	serial := steadyStateAllocs(t, 1)
	par := steadyStateAllocs(t, 4)
	t.Logf("steady-state allocs/round: workers=1 %.0f, workers=4 %.0f", serial, par)
	// Fixed dispatch overhead at workers=4: 4 worker goroutines + closure +
	// error slice + waitgroup internals per round. 60 is far below the
	// hundreds of first-touch tensor allocations the regression produced,
	// while leaving headroom over the ~10 actually observed.
	const dispatchBudget = 60
	if par > serial+dispatchBudget {
		t.Errorf("workers=4 allocates %.0f/round vs %.0f serial (budget +%d): replica buffers are allocated on first touch",
			par, serial, dispatchBudget)
	}
}
