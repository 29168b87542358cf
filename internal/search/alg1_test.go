package search

import (
	"testing"

	"fedrlnas/internal/staleness"
)

// Alg. 1 lines 34–35: memory pools must retain at most Δ+1 rounds of
// snapshots — the server's extra memory cost is bounded.
func TestMemoryPoolsBoundedByThreshold(t *testing.T) {
	cfg := tinyConfig()
	cfg.WarmupSteps = 0
	cfg.SearchSteps = 12
	cfg.Staleness = staleness.Severe() // Δ = 2
	cfg.Strategy = staleness.DC
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	maxLen := 0
	s.Observer = func(RoundReport) {
		if n := s.core.Retained(); n > maxLen {
			maxLen = n
		}
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// One snapshot holds a round's θ, α, gates and cohort together, so the
	// memories cannot diverge; after a round's eviction at most Δ remain.
	delta := cfg.Staleness.MaxDelay()
	if maxLen > delta {
		t.Errorf("pool grew to %d entries, want <= %d (Δ=%d)", maxLen, delta, delta)
	}
}

// With hard synchronization the pools never need history: after eviction
// only the current round's snapshot survives.
func TestHardSyncKeepsSingleSnapshot(t *testing.T) {
	cfg := tinyConfig()
	cfg.WarmupSteps = 0
	cfg.SearchSteps = 5
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if n := s.core.Retained(); n > 1 {
		t.Errorf("hard-sync pool retains %d snapshots, want <= 1", n)
	}
}

// Alg. 1 line 32 divides the aggregated gradients by the number of
// contributors M, not by K: with churn the update magnitude must not
// shrink just because fewer participants reported.
func TestAggregationDividesByContributors(t *testing.T) {
	// Two runs with identical data and seeds, one with every participant
	// reporting, one where churn removes some: both must take well-formed
	// (finite, non-exploding) steps. This is a sanity property rather than
	// an exact equality (different contributors see different batches).
	for _, churn := range []float64{0, 0.5} {
		cfg := tinyConfig()
		cfg.WarmupSteps = 0
		cfg.SearchSteps = 10
		cfg.ChurnProb = churn
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		for _, p := range s.Supernet().Params() {
			if p.Value.HasNaN() {
				t.Fatalf("churn=%v produced NaN weights", churn)
			}
		}
	}
}
