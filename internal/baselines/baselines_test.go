package baselines

import (
	"math/rand"
	"testing"

	"fedrlnas/internal/data"
	"fedrlnas/internal/fed"
	"fedrlnas/internal/nas"
	"fedrlnas/internal/nn"
)

func testDataset(t *testing.T) *data.Dataset {
	t.Helper()
	spec := data.Spec{
		Name: "blt", NumClasses: 4, Channels: 2, Height: 6, Width: 6,
		TrainPerClass: 30, TestPerClass: 8, Noise: 1.0, Confusion: 0.3, Seed: 55,
	}
	ds, err := data.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func testNet() nas.Config {
	return nas.Config{
		InChannels: 2, NumClasses: 4, C: 3, Layers: 2, Nodes: 1,
		Candidates: nas.AllOps,
	}
}

func TestResNetLikeMuchBiggerThanSmallCNN(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	big := NewResNetLike(rng, 2, 4)
	small := NewSmallCNN(rng, 2, 4)
	bigN := nn.ParamCount(big.Params())
	smallN := nn.ParamCount(small.Params())
	if bigN < 8*smallN {
		t.Errorf("ResNetLike %d params vs SmallCNN %d: ratio too small", bigN, smallN)
	}
}

func TestFixedModelsTrain(t *testing.T) {
	ds := testDataset(t)
	rng := rand.New(rand.NewSource(2))
	part, err := data.IIDPartition(ds.NumTrain(), 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := fed.BuildParticipants(ds, part, 3)
	if err != nil {
		t.Fatal(err)
	}
	m := NewSmallCNN(rng, 2, 4)
	cfg := fed.DefaultFedAvgConfig()
	cfg.Rounds = 8
	cfg.BatchSize = 8
	res, err := fed.FedAvg(m, ds, parts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalAcc <= 0.25 {
		t.Errorf("SmallCNN FedAvg accuracy %.3f no better than chance", res.FinalAcc)
	}
}

func TestDARTSFirstOrder(t *testing.T) {
	ds := testDataset(t)
	cfg := DefaultDARTSConfig(testNet())
	cfg.Steps = 15
	cfg.BatchSize = 8
	res, err := DARTS(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != "darts-1st" {
		t.Errorf("method %q", res.Method)
	}
	if err := res.Genotype.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.Curve.Len() != 15 || res.SearchSeconds <= 0 {
		t.Error("curve/timing not recorded")
	}
	if res.PayloadBytesPerRound != 0 {
		t.Error("centralized method must have zero payload")
	}
}

func TestDARTSSecondOrder(t *testing.T) {
	ds := testDataset(t)
	cfg := DefaultDARTSConfig(testNet())
	cfg.Steps = 6
	cfg.BatchSize = 8
	cfg.SecondOrder = true
	res, err := DARTS(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != "darts-2nd" {
		t.Errorf("method %q", res.Method)
	}
	if err := res.Genotype.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDARTSLearns(t *testing.T) {
	ds := testDataset(t)
	cfg := DefaultDARTSConfig(testNet())
	cfg.Steps = 50
	cfg.BatchSize = 8
	res, err := DARTS(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	head := res.Curve.MovingAverage(5).Points[4].Value
	tail := res.Curve.TailMean(10)
	if tail <= head {
		t.Errorf("DARTS training acc did not improve: %.3f -> %.3f", head, tail)
	}
}

func TestDARTSValidation(t *testing.T) {
	ds := testDataset(t)
	cfg := DefaultDARTSConfig(testNet())
	cfg.Steps = 0
	if _, err := DARTS(ds, cfg); err == nil {
		t.Error("expected error for zero steps")
	}
}

func TestENASRunsAndDerives(t *testing.T) {
	ds := testDataset(t)
	cfg := DefaultENASConfig(testNet())
	cfg.Steps = 30
	cfg.BatchSize = 8
	res, err := ENAS(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != "enas" {
		t.Errorf("method %q", res.Method)
	}
	if err := res.Genotype.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.Curve.Len() != 30 || res.SearchSeconds <= 0 {
		t.Error("curve/timing not recorded")
	}
	cfg.Steps = 0
	if _, err := ENAS(ds, cfg); err == nil {
		t.Error("expected error for zero steps")
	}
}

func TestFedNASRunsAndShipsSupernet(t *testing.T) {
	ds := testDataset(t)
	rng := rand.New(rand.NewSource(4))
	part, err := data.IIDPartition(ds.NumTrain(), 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultFedNASConfig(testNet())
	cfg.Rounds = 10
	cfg.BatchSize = 8
	res, err := FedNAS(ds, part, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Genotype.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.PayloadBytesPerRound <= 0 {
		t.Fatal("FedNAS payload missing")
	}
	// The defining inefficiency: FedNAS ships the entire supernet.
	net, err := nas.NewSupernet(rng, cfg.Net)
	if err != nil {
		t.Fatal(err)
	}
	if res.PayloadBytesPerRound != net.SupernetBytes() {
		t.Errorf("payload %d != supernet %d", res.PayloadBytesPerRound, net.SupernetBytes())
	}
	if res.Curve.Len() != 10 || res.SearchSeconds <= 0 {
		t.Error("curve/timing not recorded")
	}
}

func TestEvoFedNASRunsAndEvolves(t *testing.T) {
	ds := testDataset(t)
	rng := rand.New(rand.NewSource(5))
	part, err := data.IIDPartition(ds.NumTrain(), 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultEvoConfig(testNet())
	cfg.Rounds = 20
	cfg.BatchSize = 8
	cfg.GenerationEvery = 5
	res, err := EvoFedNAS(ds, part, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Genotype.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.Curve.Len() != 20 || res.SearchSeconds <= 0 || res.PayloadBytesPerRound <= 0 {
		t.Error("curve/timing/payload not recorded")
	}
	cfg.Population = 1
	if _, err := EvoFedNAS(ds, part, cfg); err == nil {
		t.Error("expected error for population < 2")
	}
	// A generation period below one round is a config error, not a
	// division by zero after the first round.
	cfg.Population = 4
	for _, every := range []int{0, -1} {
		cfg.GenerationEvery = every
		if _, err := EvoFedNAS(ds, part, cfg); err == nil {
			t.Errorf("GenerationEvery %d: expected a config error", every)
		}
	}
}

func TestEvoVariants(t *testing.T) {
	base := testNet()
	big := EvoBig.ApplyVariant(base)
	if big.C != 2*base.C {
		t.Errorf("big variant C = %d", big.C)
	}
	small := EvoSmall.ApplyVariant(base)
	if len(small.Candidates) >= len(nas.AllOps) {
		t.Error("small variant candidate set not restricted")
	}
	for _, k := range small.Candidates {
		if k == nas.OpSepConv3 || k == nas.OpSepConv5 {
			t.Error("small variant must exclude convolutions")
		}
	}
	if EvoBig.String() == EvoSmall.String() {
		t.Error("variant strings must differ")
	}
}

func TestEvolveKeepsElite(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	pop := []*evoCandidate{
		{gates: randomGates(rng, 2, 2, 8), fitness: 0.9},
		{gates: randomGates(rng, 2, 2, 8), fitness: 0.1},
		{gates: randomGates(rng, 2, 2, 8), fitness: 0.8},
		{gates: randomGates(rng, 2, 2, 8), fitness: 0.2},
	}
	best := pop[0]
	evolve(pop, rng, 0.5, 8)
	found := false
	for _, c := range pop {
		if c == best {
			found = true
		}
	}
	if !found {
		t.Error("elite candidate evicted by evolution")
	}
}

func TestMutateRespectsRange(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	gates := make([]int, 50)
	mutate(gates, rng, 1.0, 4)
	changed := 0
	for _, g := range gates {
		if g < 0 || g >= 4 {
			t.Fatalf("mutated gate %d out of range", g)
		}
		if g != 0 {
			changed++
		}
	}
	if changed == 0 {
		t.Error("rate-1 mutation changed nothing")
	}
	before := append([]int(nil), gates...)
	mutate(gates, rng, 0, 4)
	for i := range gates {
		if gates[i] != before[i] {
			t.Fatal("rate-0 mutation changed gates")
		}
	}
}

// Cross-method shape check for Table V: our method's payload must be far
// below FedNAS's supernet payload on the same network config.
func TestPayloadOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	net, err := nas.NewSupernet(rng, testNet())
	if err != nil {
		t.Fatal(err)
	}
	// A representative one-op-per-edge sub-model.
	g := nas.Gates{Normal: []int{4, 4}, Reduce: []int{4, 4}}
	sub := net.SubModelBytes(g)
	super := net.SupernetBytes()
	if !(sub < super/2) {
		t.Errorf("sub-model %d not far below supernet %d", sub, super)
	}
}
