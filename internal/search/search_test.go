package search

import (
	"math"
	"testing"

	"fedrlnas/internal/data"
	"fedrlnas/internal/fed"
	"fedrlnas/internal/nas"
	"fedrlnas/internal/nettrace"
	"fedrlnas/internal/staleness"
	"fedrlnas/internal/wire"
)

// tinyConfig is a fast configuration for unit tests: a 5-class dataset,
// 2-layer supernet, 4 participants.
func tinyConfig() Config {
	cfg := DefaultConfig()
	cfg.Dataset = data.Spec{
		Name: "tiny", NumClasses: 5, Channels: 2, Height: 6, Width: 6,
		TrainPerClass: 40, TestPerClass: 10, Noise: 1.0, Confusion: 0.3, Seed: 91,
	}
	cfg.Net = nas.Config{
		InChannels: 2, NumClasses: 5, C: 4, Layers: 2, Nodes: 1,
		Candidates: nas.AllOps,
	}
	cfg.K = 4
	cfg.BatchSize = 8
	cfg.WarmupSteps = 25
	cfg.SearchSteps = 50
	return cfg
}

func TestConfigValidation(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	mutations := []struct {
		name string
		mut  func(*Config)
	}{
		{"zero K", func(c *Config) { c.K = 0 }},
		{"negative warmup", func(c *Config) { c.WarmupSteps = -1 }},
		{"zero batch", func(c *Config) { c.BatchSize = 0 }},
		{"zero theta lr", func(c *Config) { c.ThetaLR = 0 }},
		{"bad partition", func(c *Config) { c.Partition = PartitionKind(9) }},
		{"bad dirichlet alpha", func(c *Config) { c.Partition = Dirichlet; c.DirichletAlpha = 0 }},
		{"class mismatch", func(c *Config) { c.Net.NumClasses = 3 }},
		{"channel mismatch", func(c *Config) { c.Net.InChannels = 1 }},
		{"bad strategy", func(c *Config) { c.Strategy = staleness.Strategy(9) }},
		{"bad schedule", func(c *Config) { c.Staleness = staleness.Schedule{} }},
	}
	for _, m := range mutations {
		cfg := DefaultConfig()
		m.mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: expected validation error", m.name)
		}
	}
}

func TestPartitionKindString(t *testing.T) {
	if IID.String() != "iid" || Dirichlet.String() != "dirichlet" {
		t.Error("partition kind strings wrong")
	}
}

func TestWarmupImprovesAccuracy(t *testing.T) {
	cfg := tinyConfig()
	cfg.WarmupSteps = 50
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Warmup(); err != nil {
		t.Fatal(err)
	}
	if s.WarmupCurve.Len() != 50 {
		t.Fatalf("warmup curve has %d points", s.WarmupCurve.Len())
	}
	head := s.WarmupCurve.MovingAverage(5).Points[4].Value
	tail := s.WarmupCurve.TailMean(10)
	if tail <= head {
		t.Errorf("warmup did not improve: head %.3f tail %.3f", head, tail)
	}
	if tail < 1.0/5+0.02 {
		t.Errorf("warmup tail %.3f no better than chance", tail)
	}
}

func TestSearchImprovesOverWarmupAndCommitsPolicy(t *testing.T) {
	cfg := tinyConfig()
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
	warm := s.WarmupCurve.TailMean(10)
	searched := s.SearchCurve.TailMean(10)
	if searched <= warm {
		t.Errorf("search tail %.3f <= warmup tail %.3f", searched, warm)
	}
	if s.EntropyCurve.Last() >= math.Log(float64(nas.NumOps)) {
		t.Errorf("entropy %.5f did not decrease from ln(8)", s.EntropyCurve.Last())
	}
	if s.BaselineCurve.Last() <= 0 {
		t.Error("baseline never updated")
	}
}

func TestDeriveProducesValidGenotype(t *testing.T) {
	cfg := tinyConfig()
	cfg.WarmupSteps = 3
	cfg.SearchSteps = 5
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
	g := s.Derive()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := g.GatesFor(nas.AllOps); err != nil {
		t.Fatal(err)
	}
}

// Fig. 5's ablation: updating α with θ frozen must stall well below the
// jointly optimized search.
func TestAlphaOnlyStallsBelowJoint(t *testing.T) {
	joint := tinyConfig()
	s1, err := New(joint)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Warmup(); err != nil {
		t.Fatal(err)
	}
	if err := s1.Run(); err != nil {
		t.Fatal(err)
	}

	frozen := tinyConfig()
	frozen.AlphaOnly = true
	s2, err := New(frozen)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Warmup(); err != nil {
		t.Fatal(err)
	}
	if err := s2.Run(); err != nil {
		t.Fatal(err)
	}

	jointTail := s1.SearchCurve.TailMean(10)
	frozenTail := s2.SearchCurve.TailMean(10)
	if jointTail <= frozenTail {
		t.Errorf("joint %.3f <= alpha-only %.3f; Fig. 5 shape violated", jointTail, frozenTail)
	}
}

func TestSearchDeterministic(t *testing.T) {
	run := func(seed int64) []float64 {
		cfg := tinyConfig()
		cfg.Seed = seed
		cfg.WarmupSteps = 4
		cfg.SearchSteps = 6
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
		return append(s.WarmupCurve.Values(), s.SearchCurve.Values()...)
	}
	a, b := run(5), run(5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("round %d: %v vs %v (nondeterministic)", i, a[i], b[i])
		}
	}
	c := run(6)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical runs")
	}
}

func TestStalenessStrategiesRun(t *testing.T) {
	for _, strat := range []staleness.Strategy{staleness.Hard, staleness.Use, staleness.Throw, staleness.DC} {
		cfg := tinyConfig()
		cfg.WarmupSteps = 3
		cfg.SearchSteps = 8
		cfg.Staleness = staleness.Severe()
		cfg.Strategy = strat
		s, err := New(cfg)
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		if err := s.Warmup(); err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		if err := s.Run(); err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		if s.SearchCurve.Len() != 8 {
			t.Errorf("%v: curve has %d points", strat, s.SearchCurve.Len())
		}
		if len(s.RoundSeconds) != 11 {
			t.Errorf("%v: %d round timings", strat, len(s.RoundSeconds))
		}
	}
}

func TestNonIIDSearchRuns(t *testing.T) {
	cfg := tinyConfig()
	cfg.Partition = Dirichlet
	cfg.DirichletAlpha = 0.5
	cfg.WarmupSteps = 3
	cfg.SearchSteps = 5
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
	// Shard sizes must be uneven under Dirichlet (with overwhelming
	// probability at this seed).
	sizes := make(map[int]bool)
	for _, p := range s.Participants() {
		sizes[p.NumSamples] = true
	}
	if len(sizes) < 2 {
		t.Error("Dirichlet shards suspiciously uniform")
	}
}

func TestSnapshotRestoreTheta(t *testing.T) {
	cfg := tinyConfig()
	cfg.WarmupSteps = 2
	cfg.SearchSteps = 0
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap := s.SnapshotTheta()
	if err := s.Warmup(); err != nil {
		t.Fatal(err)
	}
	moved := s.SnapshotTheta()
	diff := 0.0
	for i := range snap {
		diff += snap[i].Sub(moved[i]).L2Norm()
	}
	if diff == 0 {
		t.Fatal("warmup did not move weights")
	}
	if err := s.RestoreTheta(snap); err != nil {
		t.Fatal(err)
	}
	back := s.SnapshotTheta()
	for i := range snap {
		if !back[i].AllClose(snap[i], 0) {
			t.Fatal("restore did not recover snapshot")
		}
	}
}

func TestSpeedFactorsScaleSearchTime(t *testing.T) {
	run := func(factor float64) float64 {
		cfg := tinyConfig()
		cfg.WarmupSteps = 0
		cfg.SearchSteps = 5
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.SetSpeedFactors(factor); err != nil {
			t.Fatal(err)
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return s.TotalSeconds()
	}
	fast, slow := run(1), run(4)
	if slow <= fast {
		t.Errorf("slow device total %.3f <= fast %.3f", slow, fast)
	}
	// Compute dominates at default bandwidth, so the ratio should approach 4.
	if ratio := slow / fast; ratio < 1.5 {
		t.Errorf("speed-factor ratio %.2f too small", ratio)
	}
}

func TestSetSpeedFactorsValidation(t *testing.T) {
	cfg := tinyConfig()
	cfg.WarmupSteps = 0
	cfg.SearchSteps = 0
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetSpeedFactors(1, 2); err == nil {
		t.Error("expected error for wrong factor count")
	}
	if err := s.SetSpeedFactors(1, 2, 3, 4); err != nil {
		t.Errorf("per-participant factors rejected: %v", err)
	}
}

func TestAttachTracesToSearch(t *testing.T) {
	cfg := tinyConfig()
	cfg.WarmupSteps = 0
	cfg.SearchSteps = 3
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	env := nettrace.Environment{Name: "train", Regimes: []nettrace.Regime{nettrace.Train}}
	traces, err := env.ParticipantTraces(cfg.K, 10, s.rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AttachTraces(traces); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.TotalSeconds() <= 0 {
		t.Error("no virtual time accumulated")
	}
}

func TestSubModelSmallerThanSupernet(t *testing.T) {
	cfg := tinyConfig()
	cfg.WarmupSteps = 0
	cfg.SearchSteps = 3
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.MeanSubModelBytes() <= 0 {
		t.Fatal("no sub-model sizes recorded")
	}
	// Compare like with like: shipped sub-model frames vs the full
	// supernet under the same wire mode.
	if s.MeanSubModelBytes() >= s.Supernet().SupernetWireBytes(wire.FP64) {
		t.Error("sub-model not smaller than supernet")
	}
}

func TestRetrainCentralized(t *testing.T) {
	cfg := tinyConfig()
	ds, err := data.Generate(cfg.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	geno := nas.Genotype{
		Normal: []nas.OpKind{nas.OpSepConv3, nas.OpIdentity},
		Reduce: []nas.OpKind{nas.OpMaxPool3, nas.OpSepConv3},
		Nodes:  1,
	}
	rcfg := DefaultRetrainConfig()
	rcfg.Steps = 60
	rcfg.BatchSize = 16
	res, err := RetrainCentralized(ds, cfg.Net, geno, rcfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.TestAcc <= 1.0/5 {
		t.Errorf("retrained accuracy %.3f no better than chance", res.TestAcc)
	}
	if math.Abs(res.TestErr-(1-res.TestAcc)) > 1e-12 {
		t.Error("TestErr inconsistent with TestAcc")
	}
	if res.ParamCount <= 0 || res.ParamMB <= 0 {
		t.Error("param accounting missing")
	}
	if res.TrainCurve.Len() != rcfg.Steps {
		t.Errorf("train curve %d points, want %d", res.TrainCurve.Len(), rcfg.Steps)
	}
	bad := rcfg
	bad.Steps = 0
	if _, err := RetrainCentralized(ds, cfg.Net, geno, bad, 7); err == nil {
		t.Error("expected error for invalid retrain config")
	}
}

func TestRetrainFederated(t *testing.T) {
	cfg := tinyConfig()
	ds, err := data.Generate(cfg.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	geno := nas.Genotype{
		Normal: []nas.OpKind{nas.OpSepConv3, nas.OpMaxPool3},
		Reduce: []nas.OpKind{nas.OpAvgPool3, nas.OpSepConv3},
		Nodes:  1,
	}
	fcfg := fed.DefaultFedAvgConfig()
	fcfg.Rounds = 10
	fcfg.BatchSize = 8
	res, fedRes, err := RetrainFederated(ds, cfg.Net, geno, Dirichlet, 0.5, 4, fcfg, 9)
	if err != nil {
		t.Fatal(err)
	}
	if res.TestAcc < 0 || res.TestAcc > 1 {
		t.Errorf("accuracy %v out of range", res.TestAcc)
	}
	if fedRes.TrainAcc.Len() != fcfg.Rounds {
		t.Errorf("federated curve %d points", fedRes.TrainAcc.Len())
	}
	if _, _, err := RetrainFederated(ds, cfg.Net, geno, PartitionKind(9), 0.5, 4, fcfg, 9); err == nil {
		t.Error("expected error for unknown partition kind")
	}
}

func TestRunPipelineEndToEnd(t *testing.T) {
	cfg := tinyConfig()
	cfg.WarmupSteps = 5
	cfg.SearchSteps = 10
	rcfg := DefaultRetrainConfig()
	rcfg.Steps = 20
	rcfg.BatchSize = 16
	fcfg := fed.DefaultFedAvgConfig()
	fcfg.Rounds = 5
	fcfg.BatchSize = 8
	res, err := RunPipeline(cfg, PipelineOptions{Centralized: &rcfg, Federated: &fcfg})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Genotype.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.SearchCurve.Len() != 10 || res.WarmupCurve.Len() != 5 {
		t.Errorf("curves %d/%d", res.WarmupCurve.Len(), res.SearchCurve.Len())
	}
	if res.SearchSeconds <= 0 {
		t.Error("no search time accounted")
	}
	if res.MeanSubModelMB <= 0 || res.SupernetMB <= res.MeanSubModelMB {
		t.Errorf("size accounting: sub %.3f MB supernet %.3f MB", res.MeanSubModelMB, res.SupernetMB)
	}
	if res.Centralized.Model == nil || res.Federated.Model == nil {
		t.Error("P3 models missing")
	}
}

func TestPipelineSkipsOptionalPhases(t *testing.T) {
	cfg := tinyConfig()
	cfg.WarmupSteps = 2
	cfg.SearchSteps = 2
	res, err := RunPipeline(cfg, PipelineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Centralized.Model != nil || res.Federated.Model != nil {
		t.Error("skipped phases produced models")
	}
}

func TestNewRejectsInvalidConfig(t *testing.T) {
	cfg := tinyConfig()
	cfg.K = 0
	if _, err := New(cfg); err == nil {
		t.Error("expected error for invalid config")
	}
}
