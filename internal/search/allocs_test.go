package search

import (
	"runtime"
	"runtime/debug"
	"testing"

	"fedrlnas/internal/fed"
	"fedrlnas/internal/scenario"
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

// A soft-sync round with delay compensation and late replies allocates no
// more than a hard-sync one: the core refills a recycled snapshot (θ, α,
// cohort, gates) instead of cloning, and compensates late gradients and the
// α drift in place. What is left is outside the core: transmission.Assign's
// index slices, two closures.
// Cloning θ per round and per late reply cost this network hundreds of
// objects a round.
func TestDCRoundSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops Puts at random, defeating scratch reuse")
	}
	cfg := tinyConfig()
	cfg.K = 8
	cfg.Workers = 1
	cfg.WarmupSteps = 0
	cfg.SearchSteps = 1
	cfg.Strategy = staleness.DC
	cfg.Staleness = staleness.Severe() // Δ = 2: most replies are late
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := s.runRound(true, true); err != nil {
			t.Fatal(err)
		}
	}
	late := s.Stats.Late
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := s.runRound(true, true); err != nil {
			t.Error(err)
		}
	})
	const pinned = 14
	t.Logf("steady-state DC round: %.0f allocs, %d late replies over the runs", allocs, s.Stats.Late-late)
	if s.Stats.Late == late {
		t.Fatal("no late reply in the measured rounds; the pin would not cover compensation")
	}
	if allocs > pinned+2 {
		t.Errorf("a DC round allocates %.0f objects, pinned at %d (+2)", allocs, pinned)
	}
}

// allocBytes is the heap fn allocates, in bytes.
func allocBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// P3 allocates nothing per step or per round: its trainers refill one batch,
// optimizer, delta and evaluation buffer set. Tripling a run's length may
// only grow the training curves (and a per-round closure), so the extra
// steps or rounds add a few KiB, where one gathered, augmented batch of
// garbage per step came to over a MiB.
func TestRetrainAllocsDoNotGrowWithSteps(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	ds, netCfg, geno := retrainFixture(t)
	const bound = 32 << 10
	central := func(steps int) uint64 {
		rcfg := DefaultRetrainConfig()
		rcfg.Steps = steps
		rcfg.BatchSize = 16
		return allocBytes(func() {
			if _, err := RetrainCentralized(ds, netCfg, geno, rcfg, 7); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := central(50), central(150)
	t.Logf("RetrainCentralized: %d B at 50 steps, %d B at 150", short, long)
	if long > short+bound {
		t.Errorf("RetrainCentralized allocates %d B more over 100 more steps (bound %d)", long-short, bound)
	}
	federated := func(rounds int) uint64 {
		fcfg := fed.DefaultFedAvgConfig()
		fcfg.Rounds = rounds
		fcfg.BatchSize = 8
		fcfg.Workers = 1
		return allocBytes(func() {
			if _, _, err := RetrainFederated(ds, netCfg, geno, Dirichlet, 0.5, 4, fcfg, 9); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long = federated(5), federated(15)
	t.Logf("RetrainFederated: %d B at 5 rounds, %d B at 15", short, long)
	if long > short+bound {
		t.Errorf("FedAvg allocates %d B more over 10 more rounds (bound %d)", long-short, bound)
	}
}

// A soft-sync round allocates no batch-shaped storage, though its
// participants' batches differ in size: a cohort drawn from a population
// whose shards are unequal (a scenario's Dirichlet skew), each participant's
// batch min(BatchSize, shard), late replies delay-compensated. A slot's
// batch and loss gradient are refilled within the capacity of the largest
// batch seen, and the sampler reseeds one stream, so 200 more rounds may
// cost only what every round still allocates — the fixed dispatch objects
// TestDCRoundSteadyStateAllocs pins and the history entries, ~650 B a round
// here — and the step arena's growth when a larger sub-model first runs:
// under 2 KiB a round. Rebuilding a slot's buffers whenever its batch
// changed size, and the sampler's source every round, cost this config
// ~36 KiB a round. The short run is long enough that the replica's step
// arena has made its fold in both. TestDCRoundSteadyStateAllocs runs no
// cohort over equal shards, where every round is shape-identical, so it
// cannot see this.
func TestSoftSyncRoundAllocsDoNotGrow(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	cfg := tinyConfig()
	cfg.Scenario = &scenario.Spec{Population: []scenario.Share{
		{Profile: "phone-urban", Fraction: 0.7},
		{Profile: "iot-rural", Fraction: 0.3},
	}}
	cfg.K = 16
	cfg.CohortSize = 4
	cfg.BatchSize = 16
	cfg.Strategy = staleness.DC
	cfg.Staleness = staleness.Severe()
	cfg.StalenessThreshold = 2
	cfg.Workers = 1
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sizes := map[int]bool{}
	for _, p := range s.Participants() {
		sizes[min(cfg.BatchSize, p.Batcher.PoolSize())] = true
	}
	if len(sizes) < 3 {
		t.Fatalf("participants' batches take %d sizes; the test needs unequal shards", len(sizes))
	}
	// A GC empties the sync.Pool scratch that rounds draw from, and the
	// refills would make the count depend on when collections fall.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	run := func(rounds int) uint64 {
		cfg.WarmupSteps, cfg.SearchSteps = rounds/2, rounds-rounds/2
		return allocBytes(func() {
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for s.Round() < s.TotalRounds() {
				if _, err := s.StepRound(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
	const n, perRound = 100, 2 << 10
	run(n) // fills the process-wide scratch pools both runs then draw from
	short, long := run(n), run(3*n)
	t.Logf("soft-sync search (%d batch sizes): %d B at %d rounds, %d B at %d", len(sizes), short, n, long, 3*n)
	if long > short+2*n*perRound {
		t.Errorf("a soft-sync run allocates %d B more over %d more rounds (bound %d B a round)", long-short, 2*n, perRound)
	}
}
