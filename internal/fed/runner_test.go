package fed

import (
	"math/rand"
	"testing"

	"fedrlnas/internal/data"
	"fedrlnas/internal/nn"
	"fedrlnas/internal/tensor"
)

func buildTestParts(t *testing.T, ds *data.Dataset, k int, seed int64) []*Participant {
	t.Helper()
	part, err := data.IIDPartition(ds.NumTrain(), k, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	parts, err := BuildParticipants(ds, part, seed+1)
	if err != nil {
		t.Fatal(err)
	}
	return parts
}

func assertSameCurve(t *testing.T, name string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: length %d vs %d", name, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] { // bit-identical, no tolerance
			t.Fatalf("%s[%d]: %v vs %v", name, i, a[i], b[i])
		}
	}
}

func assertSameParams(t *testing.T, a, b Model) {
	t.Helper()
	pa, pb := a.Params(), b.Params()
	if len(pa) != len(pb) {
		t.Fatalf("param count %d vs %d", len(pa), len(pb))
	}
	for i := range pa {
		da, db := pa[i].Value.Data(), pb[i].Value.Data()
		for j := range da {
			if da[j] != db[j] {
				t.Fatalf("param %d (%s) diverges at %d: %v vs %v",
					i, pa[i].Name, j, da[j], db[j])
			}
		}
	}
}

// TestFedAvgParallelMatchesSequential: FedAvg on four worker replicas must be
// bit-identical to the model training alone as the only slot — same
// training curve, same evaluation curve, same final weights and batch-norm
// statistics.
func TestFedAvgParallelMatchesSequential(t *testing.T) {
	ds := testDataset(t)
	cfg := FedAvgConfig{
		Rounds: 4, LocalSteps: 2, BatchSize: 8,
		LR: 0.05, Momentum: 0.9, WeightDecay: 1e-4, GradClip: 5,
		EvalEvery: 2,
	}

	seqModel := tinyModel(rand.New(rand.NewSource(5)), 3)
	seqRes, err := FedAvg(seqModel, ds, buildTestParts(t, ds, 4, 31), cfg)
	if err != nil {
		t.Fatal(err)
	}

	parCfg := cfg
	parCfg.Workers = 4
	parCfg.NewReplica = func() Model { return tinyModel(rand.New(rand.NewSource(99)), 3) }
	parModel := tinyModel(rand.New(rand.NewSource(5)), 3)
	parRes, err := FedAvg(parModel, ds, buildTestParts(t, ds, 4, 31), parCfg)
	if err != nil {
		t.Fatal(err)
	}

	assertSameCurve(t, "train accuracy", seqRes.TrainAcc.Values(), parRes.TrainAcc.Values())
	assertSameCurve(t, "val accuracy", seqRes.ValAcc.Values(), parRes.ValAcc.Values())
	assertSameCurve(t, "round seconds", seqRes.RoundSeconds, parRes.RoundSeconds)
	if seqRes.FinalAcc != parRes.FinalAcc {
		t.Fatalf("final accuracy %v vs %v", seqRes.FinalAcc, parRes.FinalAcc)
	}
	assertSameParams(t, seqModel, parModel)
	assertSameStats(t, seqModel, parModel)
}

func assertSameStats(t *testing.T, a, b *SequentialModel) {
	t.Helper()
	if ha, hb := nn.StatsHash(a.BatchNorms()), nn.StatsHash(b.BatchNorms()); ha != hb {
		t.Fatalf("batch-norm statistics diverge: %#x vs %#x", ha, hb)
	}
}

// opaqueModel hides SequentialModel's BatchNorms, so FedAvg cannot capture
// its batch statistics: it trains as the only slot and its forwards update
// the running statistics in place.
type opaqueModel struct{ m *SequentialModel }

func (o opaqueModel) Forward(x *tensor.Tensor) *tensor.Tensor { return o.m.Forward(x) }
func (o opaqueModel) Backward(g *tensor.Tensor)               { o.m.Backward(g) }
func (o opaqueModel) Params() []*nn.Param                     { return o.m.Params() }
func (o opaqueModel) SetTraining(training bool)               { o.m.SetTraining(training) }

// A model training alone captures its batch statistics and replays them in
// participant order: the same updates in the same order as in-place ones.
// Afterwards it is out of capture mode again, so a later training forward
// moves its running statistics.
func TestFedAvgCaptureReplayMatchesInPlaceStats(t *testing.T) {
	ds := testDataset(t)
	cfg := FedAvgConfig{
		Rounds: 3, LocalSteps: 2, BatchSize: 8,
		LR: 0.05, Momentum: 0.9, WeightDecay: 1e-4, GradClip: 5,
		EvalEvery: 1,
	}
	captured := tinyModel(rand.New(rand.NewSource(5)), 3)
	capRes, err := FedAvg(captured, ds, buildTestParts(t, ds, 4, 31), cfg)
	if err != nil {
		t.Fatal(err)
	}
	inPlace := tinyModel(rand.New(rand.NewSource(5)), 3)
	inRes, err := FedAvg(opaqueModel{inPlace}, ds, buildTestParts(t, ds, 4, 31), cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertSameCurve(t, "val accuracy", capRes.ValAcc.Values(), inRes.ValAcc.Values())
	assertSameParams(t, captured, inPlace)
	assertSameStats(t, captured, inPlace)

	before := nn.StatsHash(captured.BatchNorms())
	x, _ := ds.Gather([]int{0, 1, 2, 3})
	captured.Forward(x)
	if nn.StatsHash(captured.BatchNorms()) == before {
		t.Fatal("FedAvg left the model's batch norms capturing")
	}
}

// TestRunnerEvaluateMatchesSequential checks the pool-driven test-set
// evaluation against the plain sequential Evaluate.
func TestRunnerEvaluateMatchesSequential(t *testing.T) {
	ds := testDataset(t)
	model := tinyModel(rand.New(rand.NewSource(5)), 3)
	run, err := newRunner(model, 4, 8,
		func() Model { return tinyModel(rand.New(rand.NewSource(99)), 3) })
	if err != nil {
		t.Fatal(err)
	}
	if !run.parallelPath() {
		t.Fatal("expected parallel path")
	}
	for _, batchSize := range []int{7, 16, 32} {
		got, err := run.evaluate(ds, batchSize)
		if err != nil {
			t.Fatal(err)
		}
		if want := Evaluate(model, ds, batchSize); got != want {
			t.Fatalf("batchSize %d: parallel eval %v vs sequential %v", batchSize, got, want)
		}
	}
	// Replicas must be back in capture-mode training for the next round: a
	// training forward records batch statistics, an eval forward does not.
	x, _ := ds.Gather([]int{0, 1, 2, 3})
	for w, rep := range run.reps {
		rep.Forward(x)
		stats := run.drainBN(w, nil)
		recorded := 0
		for _, layer := range stats {
			recorded += len(layer)
		}
		if recorded == 0 {
			t.Fatalf("replica %d left in eval mode after evaluate", w)
		}
	}
}

// TestRunnerRejectsMismatchedReplica: a factory producing a structurally
// different model is a configuration bug and must fail loudly.
func TestRunnerRejectsMismatchedReplica(t *testing.T) {
	model := tinyModel(rand.New(rand.NewSource(5)), 3)
	_, err := newRunner(model, 2, 4,
		func() Model { return tinyModel(rand.New(rand.NewSource(1)), 2) })
	if err == nil {
		t.Fatal("expected structural-mismatch error")
	}
}

// TestRunnerNilFactoryIsSequential: no replica factory means the primary
// trains as the only slot, not an error.
func TestRunnerNilFactoryIsSequential(t *testing.T) {
	model := tinyModel(rand.New(rand.NewSource(5)), 3)
	run, err := newRunner(model, 4, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if run.parallelPath() {
		t.Fatal("nil factory must keep the sequential path")
	}
}
