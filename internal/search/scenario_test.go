package search

import (
	"path/filepath"
	"sort"
	"testing"

	"fedrlnas/internal/fed"
	"fedrlnas/internal/scenario"
	"fedrlnas/internal/staleness"
)

// scenarioTinyConfig is tinyConfig under a mixed device population with
// personalization on — the full scenario surface in one config.
func scenarioTinyConfig() Config {
	cfg := tinyConfig()
	cfg.WarmupSteps = 5
	cfg.SearchSteps = 8
	cfg.Seed = 23
	cfg.Scenario = &scenario.Spec{
		Population: []scenario.Share{
			{Profile: "phone-urban", Fraction: 0.7},
			{Profile: "iot-rural", Fraction: 0.3},
		},
		Personalize: true,
	}
	return cfg
}

// TestScenarioDeterministicAcrossWorkerCounts extends the headline
// determinism contract to the scenario layer: a mixed-profile population
// with per-profile churn, traces and Dirichlet skew plus personalized heads
// must stay bit-identical at any worker count.
func TestScenarioDeterministicAcrossWorkerCounts(t *testing.T) {
	base := scenarioTinyConfig()

	cfg1 := base
	cfg1.Workers = 1
	cfgN := base
	cfgN.Workers = 4

	fp1 := fingerprint(t, cfg1)
	fpN := fingerprint(t, cfgN)

	if fp1.genotype != fpN.genotype {
		t.Fatalf("derived genotype diverges: %s vs %s", fp1.genotype, fpN.genotype)
	}
	assertIdentical(t, "warmup curve", fp1.warmup, fpN.warmup)
	assertIdentical(t, "search curve", fp1.search, fpN.search)
	assertIdentical(t, "round seconds", fp1.seconds, fpN.seconds)
	if fp1.thetaSum != fpN.thetaSum {
		t.Fatalf("final θ checksum diverges: %v vs %v", fp1.thetaSum, fpN.thetaSum)
	}
	if fp1.stats != fpN.stats {
		t.Fatalf("round stats diverge: %+v vs %+v", fp1.stats, fpN.stats)
	}
}

// TestEmptyScenarioIsNoOp: a zero Spec must lower to nothing — runs with
// Scenario == nil and Scenario == &Spec{} are bit-identical. This is the
// invariant behind the fault-free pin: pre-scenario checkpoints and hashes
// stay valid.
func TestEmptyScenarioIsNoOp(t *testing.T) {
	base := tinyConfig()
	base.WarmupSteps = 4
	base.SearchSteps = 6
	base.Seed = 31

	withNil := base
	withNil.Scenario = nil
	withEmpty := base
	withEmpty.Scenario = &scenario.Spec{}

	fpNil := fingerprint(t, withNil)
	fpEmpty := fingerprint(t, withEmpty)

	if fpNil.genotype != fpEmpty.genotype {
		t.Fatalf("empty scenario changed the genotype: %s vs %s", fpNil.genotype, fpEmpty.genotype)
	}
	assertIdentical(t, "search curve", fpNil.search, fpEmpty.search)
	if fpNil.thetaSum != fpEmpty.thetaSum {
		t.Fatalf("empty scenario changed θ: %v vs %v", fpNil.thetaSum, fpEmpty.thetaSum)
	}
}

// TestLegacyPartitionFlagsLowerBitIdentically: Config.Partition/
// DirichletAlpha and the equivalent population-less scenario Skew must
// produce the same search, so either spelling gives the same results.
func TestLegacyPartitionFlagsLowerBitIdentically(t *testing.T) {
	base := tinyConfig()
	base.WarmupSteps = 4
	base.SearchSteps = 6
	base.Seed = 17

	legacy := base
	legacy.Partition = Dirichlet
	legacy.DirichletAlpha = 0.5
	legacy.Scenario = nil

	lowered := base
	lowered.Partition = Dirichlet
	lowered.DirichletAlpha = 0.5
	lowered.Scenario = &scenario.Spec{Skew: &scenario.Skew{Kind: scenario.SkewDirichlet, Alpha: 0.5}}

	fpLegacy := fingerprint(t, legacy)
	fpLowered := fingerprint(t, lowered)

	if fpLegacy.genotype != fpLowered.genotype {
		t.Fatalf("lowered flags changed the genotype: %s vs %s", fpLegacy.genotype, fpLowered.genotype)
	}
	assertIdentical(t, "search curve", fpLegacy.search, fpLowered.search)
	if fpLegacy.thetaSum != fpLowered.thetaSum {
		t.Fatalf("lowered flags changed θ: %v vs %v", fpLegacy.thetaSum, fpLowered.thetaSum)
	}
}

// TestPipelineRetrainsOnScenarioSkew: a scenario's Dirichlet skew must
// reach the federated P3 split, not only the search's. Partition=Dirichlet
// without a scenario and Partition=IID under a Dirichlet scenario skew are
// the same run end to end.
func TestPipelineRetrainsOnScenarioSkew(t *testing.T) {
	base := tinyConfig()
	base.WarmupSteps = 2
	base.SearchSteps = 2
	base.Seed = 23
	fcfg := fed.DefaultFedAvgConfig()
	fcfg.Rounds = 4
	fcfg.BatchSize = 8

	flag := base
	flag.Partition = Dirichlet
	flag.DirichletAlpha = 0.1
	flag.Scenario = nil

	skewed := base
	skewed.Partition = IID
	skewed.Scenario = &scenario.Spec{Skew: &scenario.Skew{Kind: scenario.SkewDirichlet, Alpha: 0.1}}

	var curves [2][]float64
	for i, cfg := range []Config{flag, skewed} {
		res, err := RunPipeline(cfg, PipelineOptions{Federated: &fcfg})
		if err != nil {
			t.Fatal(err)
		}
		curves[i] = append(res.Federated.TrainCurve.Values(), res.Federated.TestAcc)
	}
	assertIdentical(t, "federated P3 curve and P4 accuracy", curves[0], curves[1])
}

// TestPersonalizedCheckpointResume: pausing a personalized run and resuming
// from the checkpoint must land on the exact bits of the uninterrupted run —
// the checkpoint's head section carries every client head.
func TestPersonalizedCheckpointResume(t *testing.T) {
	cfg := scenarioTinyConfig()
	cfg.Workers = 2

	// Reference: straight through.
	ref := fingerprint(t, cfg)

	// Interrupted: warm up, checkpoint, reload into a fresh Search, finish.
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Personalized() {
		t.Fatal("scenario with personalize=true did not enable personalization")
	}
	if err := s.Warmup(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "personal.ckpt")
	if err := s.SaveCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.LoadCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	if err := s2.Run(); err != nil {
		t.Fatal(err)
	}

	if got := s2.Derive().String(); got != ref.genotype {
		t.Fatalf("resumed genotype %s, want %s", got, ref.genotype)
	}
	assertIdentical(t, "resumed search curve", s2.SearchCurve.Values(), ref.search)
	sum := 0.0
	for _, snap := range s2.SnapshotTheta() {
		for i, v := range snap.Data() {
			sum += v * float64(i%7+1)
		}
	}
	if sum != ref.thetaSum {
		t.Fatalf("resumed θ checksum %v, want %v", sum, ref.thetaSum)
	}

	// The heads themselves must survive the round trip: checksum them on
	// both sides of a save/load pair.
	// Sum in sorted-pid order: float addition is not associative, and map
	// iteration order would otherwise flip the checksum's last ulp between
	// calls even for bit-identical heads.
	headSum := func(s *Search) float64 {
		pids := make([]int, 0, len(s.heads))
		for pid := range s.heads {
			pids = append(pids, pid)
		}
		sort.Ints(pids)
		total := 0.0
		for _, pid := range pids {
			for _, tens := range s.heads[pid] {
				for i, v := range tens.Data() {
					total += v * float64((pid+1)*(i%5+1))
				}
			}
		}
		return total
	}
	before := headSum(s2)
	if before == 0 {
		t.Fatal("personalized run trained no heads")
	}
	path2 := filepath.Join(t.TempDir(), "final.ckpt")
	if err := s2.SaveCheckpoint(path2); err != nil {
		t.Fatal(err)
	}
	s3, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s3.LoadCheckpoint(path2); err != nil {
		t.Fatal(err)
	}
	if after := headSum(s3); after != before {
		t.Fatalf("head checksum %v after reload, want %v", after, before)
	}
}

// TestPersonalizedDCStaleReplies: delay compensation must accept stale
// replies from personalized participants. Head gradients stay on the
// device, so a personalized reply carries fewer gradients than the sampled
// sub-model has parameters — the DC buffers must be sized to the reply, not
// the sub-model, or CompensateTheta rejects the first stale reply and the
// run aborts.
func TestPersonalizedDCStaleReplies(t *testing.T) {
	cfg := scenarioTinyConfig()
	cfg.Staleness = staleness.Severe()
	cfg.Strategy = staleness.DC

	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Personalized() {
		t.Fatal("scenario with personalize=true did not enable personalization")
	}
	if err := s.Warmup(); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.SearchCurve.Len() != cfg.SearchSteps {
		t.Errorf("curve has %d points, want %d", s.SearchCurve.Len(), cfg.SearchSteps)
	}
	// The regression only bites on a stale reply; make sure the schedule
	// actually produced some, or the test is vacuous.
	if s.Stats.Late == 0 {
		t.Fatal("severe staleness produced no late replies; DC-under-personalization path not exercised")
	}
}

// TestScenarioProfileAssignmentStable: the profile carve-up the engine
// actually used matches the pure scenario.Assign function — nothing in
// materialization order perturbs it.
func TestScenarioProfileAssignmentStable(t *testing.T) {
	cfg := scenarioTinyConfig()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	profiles, assignment := s.Profiles()
	if len(profiles) != 2 {
		t.Fatalf("resolved %d profiles, want 2", len(profiles))
	}
	_, fracs, err := cfg.Scenario.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	want := scenario.Assign(fracs, cfg.K, cfg.Seed)
	if len(assignment) != len(want) {
		t.Fatalf("assignment length %d, want %d", len(assignment), len(want))
	}
	for i := range want {
		if assignment[i] != want[i] {
			t.Fatalf("assignment[%d] = %d, want %d", i, assignment[i], want[i])
		}
	}
}

// TestPersonalizedHeadsBeatGlobalUnderSkew: under heavy Dirichlet label skew
// (α = 0.1) per-client classifier heads must score strictly higher than the
// shared global head, each client scored on a test slice matched to its own
// label distribution. Both runs share the partition RNG stream, so client pid
// holds the same shard in each. A tie means the heads changed nothing.
func TestPersonalizedHeadsBeatGlobalUnderSkew(t *testing.T) {
	base := tinyConfig()
	base.K = 8
	base.WarmupSteps = 6
	base.SearchSteps = 12
	base.Seed = 1
	skew := &scenario.Skew{Kind: scenario.SkewDirichlet, Alpha: 0.1}

	run := func(personalize bool) *Search {
		cfg := base
		cfg.Scenario = &scenario.Spec{Skew: skew, Personalize: personalize}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Warmup(); err != nil {
			t.Fatal(err)
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return s
	}
	sg, sp := run(false), run(true)

	ds := sp.ds
	var globalSum, personalSum float64
	clients := 0
	for pid, idxs := range sp.Partition().Indices {
		dist := make([]float64, base.Dataset.NumClasses)
		for _, idx := range idxs {
			dist[ds.TrainLabels[idx]] += 1 / float64(len(idxs))
		}
		testIdx := scenario.PersonalTestIndices(dist, ds.TestLabels, ds.NumTest())
		if len(testIdx) == 0 {
			continue
		}
		globalSum += sg.EvalGates(sg.ArgmaxGates(), testIdx, 16, -1)
		personalSum += sp.EvalGates(sp.ArgmaxGates(), testIdx, 16, pid)
		clients++
	}
	if clients == 0 {
		t.Fatal("no client has a matched test slice")
	}
	global, personal := globalSum/float64(clients), personalSum/float64(clients)
	t.Logf("α=0.1, %d clients: global head %.3f, personalized heads %.3f", clients, global, personal)
	if !(personal > global) {
		t.Fatalf("personalized heads (%.3f) did not beat the global head (%.3f) under skew", personal, global)
	}
}
