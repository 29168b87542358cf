package fed

import (
	"math/rand"
	"testing"

	"fedrlnas/internal/cohort"
	"fedrlnas/internal/data"
	"fedrlnas/internal/nettrace"
	"fedrlnas/internal/nn"
	"fedrlnas/internal/tensor"
)

func testDataset(t *testing.T) *data.Dataset {
	t.Helper()
	spec := data.Spec{
		Name: "fedtest", NumClasses: 3, Channels: 2, Height: 6, Width: 6,
		TrainPerClass: 24, TestPerClass: 8, Noise: 0.6, Confusion: 0.2, Seed: 77,
	}
	ds, err := data.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func tinyModel(rng *rand.Rand, classes int) *SequentialModel {
	return &SequentialModel{Net: nn.NewSequential(
		nn.NewConv2D("c1", rng, 2, 6, 3, nn.ConvOpts{Pad: 1}),
		nn.NewBatchNorm2D("bn1", 6),
		nn.NewReLU(),
		nn.NewGlobalAvgPool(),
		nn.NewLinear("fc", rng, 6, classes),
	)}
}

func TestBuildParticipants(t *testing.T) {
	ds := testDataset(t)
	rng := rand.New(rand.NewSource(1))
	part, err := data.IIDPartition(ds.NumTrain(), 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := BuildParticipants(ds, part, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 4 {
		t.Fatalf("built %d participants", len(ps))
	}
	total := 0
	for k, p := range ps {
		if p.ID != k || p.NumSamples == 0 || p.SpeedFactor != 1 {
			t.Errorf("participant %d malformed: %+v", k, p)
		}
		total += p.NumSamples
	}
	if total != ds.NumTrain() {
		t.Errorf("shards cover %d samples, want %d", total, ds.NumTrain())
	}
}

func TestAttachTraces(t *testing.T) {
	ds := testDataset(t)
	rng := rand.New(rand.NewSource(2))
	part, err := data.IIDPartition(ds.NumTrain(), 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := BuildParticipants(ds, part, 9)
	if err != nil {
		t.Fatal(err)
	}
	env := nettrace.Environment{Name: "x", Regimes: []nettrace.Regime{nettrace.Car}}
	traces, err := env.ParticipantTraces(3, 10, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := AttachTraces(ps, traces); err != nil {
		t.Fatal(err)
	}
	if len(ps[2].Trace.Mbps) != 10 {
		t.Error("trace not attached")
	}
	if err := AttachTraces(ps, traces[:1]); err == nil {
		t.Error("expected error for count mismatch")
	}
}

func TestEvaluateBounds(t *testing.T) {
	ds := testDataset(t)
	rng := rand.New(rand.NewSource(3))
	m := tinyModel(rng, 3)
	acc := Evaluate(m, ds, 8)
	if acc < 0 || acc > 1 {
		t.Fatalf("accuracy %v out of range", acc)
	}
}

func TestComputeSecondsScaling(t *testing.T) {
	p := &Participant{SpeedFactor: 1}
	slow := &Participant{SpeedFactor: 4}
	base := p.ComputeSeconds(1000, 32)
	if base <= 0 {
		t.Fatal("compute time must be positive")
	}
	if got := slow.ComputeSeconds(1000, 32); got != 4*base {
		t.Errorf("speed factor scaling: %v vs %v", got, base)
	}
	if got := p.ComputeSeconds(2000, 32); got != 2*base {
		t.Errorf("param scaling: %v vs %v", got, base)
	}
}

func TestFedAvgConfigValidation(t *testing.T) {
	good := DefaultFedAvgConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Rounds = 0
	if err := bad.Validate(); err == nil {
		t.Error("expected error for zero rounds")
	}
	bad = good
	bad.LR = 0
	if err := bad.Validate(); err == nil {
		t.Error("expected error for zero LR")
	}
}

func TestFedAvgTrainsAndImproves(t *testing.T) {
	ds := testDataset(t)
	rng := rand.New(rand.NewSource(4))
	part, err := data.IIDPartition(ds.NumTrain(), 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := BuildParticipants(ds, part, 11)
	if err != nil {
		t.Fatal(err)
	}
	m := tinyModel(rng, 3)
	before := Evaluate(m, ds, 16)
	cfg := DefaultFedAvgConfig()
	cfg.Rounds = 30
	cfg.LocalSteps = 2
	cfg.BatchSize = 8
	res, err := FedAvg(m, ds, ps, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalAcc <= before || res.FinalAcc < 0.72 {
		t.Errorf("FedAvg did not learn: before %.3f after %.3f", before, res.FinalAcc)
	}
	if res.TrainAcc.Len() != cfg.Rounds {
		t.Errorf("train curve has %d points", res.TrainAcc.Len())
	}
	if res.ValAcc.Len() == 0 {
		t.Error("no validation points recorded")
	}
	if len(res.RoundSeconds) != cfg.Rounds || res.TotalSeconds <= 0 {
		t.Error("round timing not recorded")
	}
}

func TestFedAvgDeterministic(t *testing.T) {
	run := func() float64 {
		ds := testDataset(t)
		rng := rand.New(rand.NewSource(5))
		part, err := data.IIDPartition(ds.NumTrain(), 3, rng)
		if err != nil {
			t.Fatal(err)
		}
		ps, err := BuildParticipants(ds, part, 13)
		if err != nil {
			t.Fatal(err)
		}
		m := tinyModel(rand.New(rand.NewSource(6)), 3)
		cfg := DefaultFedAvgConfig()
		cfg.Rounds = 3
		cfg.BatchSize = 8
		res, err := FedAvg(m, ds, ps, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.FinalAcc
	}
	if run() != run() {
		t.Error("FedAvg must be deterministic for fixed seeds")
	}
}

func TestFedAvgValidatesInputs(t *testing.T) {
	ds := testDataset(t)
	rng := rand.New(rand.NewSource(7))
	m := tinyModel(rng, 3)
	if _, err := FedAvg(m, ds, nil, DefaultFedAvgConfig()); err == nil {
		t.Error("expected error for no participants")
	}
	bad := DefaultFedAvgConfig()
	bad.BatchSize = 0
	part, err := data.IIDPartition(ds.NumTrain(), 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := BuildParticipants(ds, part, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FedAvg(m, ds, ps, bad); err == nil {
		t.Error("expected error for invalid config")
	}
}

// FedAvg with one participant and LocalSteps=1 must match centralized SGD
// on the same batches (the averaging degenerates to plain training).
func TestFedAvgSingleParticipantMatchesCentralized(t *testing.T) {
	ds := testDataset(t)
	part := data.Partition{Indices: [][]int{seq(ds.NumTrain())}}

	// Federated run.
	psF, err := BuildParticipants(ds, part, 21)
	if err != nil {
		t.Fatal(err)
	}
	mF := tinyModel(rand.New(rand.NewSource(8)), 3)
	cfg := FedAvgConfig{Rounds: 4, LocalSteps: 1, BatchSize: 8, LR: 0.05, Momentum: 0, WeightDecay: 0, GradClip: 0, EvalEvery: 0}
	if _, err := FedAvg(mF, ds, psF, cfg); err != nil {
		t.Fatal(err)
	}

	// Centralized run with identical init, RNG stream and batches.
	psC, err := BuildParticipants(ds, part, 21)
	if err != nil {
		t.Fatal(err)
	}
	mC := tinyModel(rand.New(rand.NewSource(8)), 3)
	opt := nn.NewSGD(0.05, 0, 0, 0)
	for step := 0; step < 4; step++ {
		batch := psC[0].Batcher.Next(8)
		x, y := ds.Gather(batch)
		x = data.AugmentConfig{}.Apply(x, psC[0].RNG)
		nn.ZeroGrads(mC.Params())
		res, err := nn.CrossEntropy(mC.Forward(x), y)
		if err != nil {
			t.Fatal(err)
		}
		mC.Backward(res.GradLogits)
		opt.Step(mC.Params())
	}
	for i, p := range mF.Params() {
		if !p.Value.AllClose(mC.Params()[i].Value, 1e-9) {
			t.Fatalf("param %s diverged between FedAvg(K=1) and centralized", p.Name)
		}
	}
}

func TestBwAtDefaults(t *testing.T) {
	p := &Participant{}
	if got := p.BandwidthAt(0); got != 100 {
		t.Errorf("default bandwidth %v, want 100", got)
	}
	p.Trace = nettrace.Trace{Mbps: []float64{5}}
	if got := p.BandwidthAt(3); got != 5 {
		t.Errorf("traced bandwidth %v, want 5", got)
	}
}

func TestSequentialModelInterface(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := tinyModel(rng, 3)
	x := tensor.Randn(rng, 1, 2, 2, 6, 6)
	logits := m.Forward(x)
	if logits.Dim(1) != 3 {
		t.Fatalf("logits shape %v", logits.Shape())
	}
	m.Backward(tensor.New(2, 3))
	if len(m.Params()) == 0 {
		t.Error("no params exposed")
	}
}

func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestSelectCohort(t *testing.T) {
	parts := make([]*Participant, 10)
	for i := range parts {
		parts[i] = &Participant{ID: i, NumSamples: 1}
	}
	newSampler := func(fraction float64) *cohort.Sampler {
		s, err := cohort.New(1, len(parts), cohort.FractionSize(len(parts), fraction))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	if got := selectCohort(parts, newSampler(0), 0); len(got) != 10 {
		t.Errorf("fraction 0 selected %d, want all", len(got))
	}
	if got := selectCohort(parts, newSampler(1), 0); len(got) != 10 {
		t.Errorf("fraction 1 selected %d, want all", len(got))
	}
	got := selectCohort(parts, newSampler(0.3), 0)
	if len(got) != 3 {
		t.Errorf("fraction 0.3 selected %d, want 3", len(got))
	}
	lastID := -1
	for _, p := range got {
		if p.ID <= lastID {
			t.Fatalf("selection not ascending/unique: %v then %v", lastID, p.ID)
		}
		lastID = p.ID
	}
	// The schedule is a pure function of (seed, round): rounds differ,
	// re-queries agree.
	s := newSampler(0.3)
	a, b := selectCohort(parts, s, 4), selectCohort(parts, s, 4)
	if len(a) != len(b) {
		t.Fatal("re-query changed cohort size")
	}
	for i := range a {
		if a[i].ID != b[i].ID {
			t.Fatal("re-querying a round changed its cohort")
		}
	}
	tiny, err := cohort.New(1, 2, cohort.FractionSize(2, 0.1))
	if err != nil {
		t.Fatal(err)
	}
	if got := selectCohort(parts[:2], tiny, 0); len(got) != 1 {
		t.Errorf("tiny fraction selected %d, want at least 1", len(got))
	}
}

func TestPopulationLazyMaterialization(t *testing.T) {
	ds := testDataset(t)
	rng := rand.New(rand.NewSource(3))
	part, err := data.IIDPartition(ds.NumTrain(), 8, rng)
	if err != nil {
		t.Fatal(err)
	}
	pop := NewPopulation(part, 9)
	if pop.Len() != 8 || pop.Materialized() != 0 {
		t.Fatalf("fresh population: len %d materialized %d", pop.Len(), pop.Materialized())
	}
	p5, err := pop.Get(5)
	if err != nil {
		t.Fatal(err)
	}
	if p5.ID != 5 || pop.Materialized() != 1 {
		t.Fatalf("Get(5): id %d materialized %d", p5.ID, pop.Materialized())
	}
	if again, _ := pop.Get(5); again != p5 {
		t.Fatal("Get(5) rebuilt an existing participant")
	}
	if _, err := pop.Get(8); err == nil {
		t.Fatal("out-of-range Get accepted")
	}
	if _, err := pop.Get(-1); err == nil {
		t.Fatal("negative Get accepted")
	}

	// A lazily built participant must be stream-identical to its eagerly
	// built twin: same first batches, same RNG draws.
	eager, err := BuildParticipants(ds, part, 9)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		a, b := p5.Batcher.Next(4), eager[5].Batcher.Next(4)
		if len(a) != len(b) {
			t.Fatal("batch size mismatch")
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("batch %d diverges: %v vs %v", i, a, b)
			}
		}
	}
	if p5.RNG.Int63() != eager[5].RNG.Int63() {
		t.Fatal("lazy RNG stream diverges from eager")
	}

	if all, err := pop.All(); err != nil || len(all) != 8 || pop.Materialized() != 8 {
		t.Fatalf("All: err %v len %d materialized %d", err, len(all), pop.Materialized())
	}
}

func TestPopulationSpeedAndTraceHooks(t *testing.T) {
	ds := testDataset(t)
	rng := rand.New(rand.NewSource(3))
	part, err := data.IIDPartition(ds.NumTrain(), 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	pop := NewPopulation(part, 9)
	early, err := pop.Get(0)
	if err != nil {
		t.Fatal(err)
	}
	pop.SetSpeedFn(func(k int) float64 { return float64(k) + 2 })
	pop.SetTraceFn(func(k int) nettrace.Trace {
		return nettrace.Trace{Mbps: []float64{float64(k) + 1}}
	})
	if early.SpeedFactor != 2 {
		t.Fatalf("hook not applied retroactively: speed %v", early.SpeedFactor)
	}
	late, err := pop.Get(3)
	if err != nil {
		t.Fatal(err)
	}
	if late.SpeedFactor != 5 || late.Trace.At(0) != 4 {
		t.Fatalf("hook not applied lazily: speed %v trace %v", late.SpeedFactor, late.Trace.At(0))
	}
}

func TestFedAvgWithClientFraction(t *testing.T) {
	ds := testDataset(t)
	rng := rand.New(rand.NewSource(31))
	part, err := data.IIDPartition(ds.NumTrain(), 6, rng)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := BuildParticipants(ds, part, 32)
	if err != nil {
		t.Fatal(err)
	}
	m := tinyModel(rng, 3)
	cfg := DefaultFedAvgConfig()
	cfg.Rounds = 6
	cfg.BatchSize = 8
	cfg.ClientFraction = 0.5
	res, err := FedAvg(m, ds, ps, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TrainAcc.Len() != 6 {
		t.Errorf("curve %d points", res.TrainAcc.Len())
	}
	bad := cfg
	bad.ClientFraction = 1.5
	if _, err := FedAvg(m, ds, ps, bad); err == nil {
		t.Error("expected error for fraction > 1")
	}
}

// Evaluate must restore training mode afterwards (batch norm statistics
// must keep updating in subsequent training steps).
func TestEvaluateRestoresTrainingMode(t *testing.T) {
	ds := testDataset(t)
	rng := rand.New(rand.NewSource(52))
	m := tinyModel(rng, 3)
	x, _ := ds.Gather([]int{0, 1, 2, 3})
	m.SetTraining(true)
	trainOut := m.Forward(x)
	Evaluate(m, ds, 8)
	trainOut2 := m.Forward(x)
	// In training mode batch-stat BN gives identical outputs for identical
	// inputs; if Evaluate left the model in eval mode, the outputs would
	// use running stats and differ from the batch-stat result.
	if !trainOut.AllClose(trainOut2, 1e-9) {
		t.Error("Evaluate did not restore training mode")
	}
}
