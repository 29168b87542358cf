package nas

import (
	"math/rand"
	"testing"

	"fedrlnas/internal/tensor"
)

func batchTestModel(t *testing.T) *FixedModel {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	geno := Genotype{
		Normal: []OpKind{OpSepConv3, OpIdentity, OpMaxPool3, OpDilConv3, OpAvgPool3},
		Reduce: []OpKind{OpMaxPool3, OpSepConv5, OpIdentity, OpZero, OpSepConv3},
		Nodes:  2,
	}
	m, err := NewFixedModel(rng, testConfig(), geno)
	if err != nil {
		t.Fatal(err)
	}
	m.SetTraining(false)
	return m
}

// TestForwardBatchBitIdentity is the batched-serving correctness gate: for
// every batch size, ForwardBatch row i must equal a standalone Forward of
// example i bit for bit. Any divergence means the admission queue would
// change inference results depending on how requests happened to coalesce.
// The fills run in order on one model and end with 32, 8, 1, 5, 8, so a
// row left in the staged input by a larger batch would show up in a
// smaller one.
func TestForwardBatchBitIdentity(t *testing.T) {
	m := batchTestModel(t)
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 3, 5, 8, 7, 32, 8, 1, 5, 8} {
		xs := make([]*tensor.Tensor, n)
		for i := range xs {
			xs[i] = tensor.Randn(rng, 1, 1, 3, 8, 8)
		}
		// Compute singles first: ForwardBatch's outputs are model-owned
		// scratch, so copy them before the next model call.
		singles := make([][]float64, n)
		for i, x := range xs {
			singles[i] = append([]float64(nil), m.Forward(x).Data()...)
		}
		got, err := m.ForwardBatch(xs, 0)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(got) != n {
			t.Fatalf("n=%d: %d outputs", n, len(got))
		}
		for i := range got {
			gd := got[i].Data()
			if len(gd) != len(singles[i]) {
				t.Fatalf("n=%d row %d: %d logits, want %d", n, i, len(gd), len(singles[i]))
			}
			for j := range gd {
				if gd[j] != singles[i][j] {
					t.Fatalf("n=%d row %d logit %d: batched %v != single %v",
						n, i, j, gd[j], singles[i][j])
				}
			}
		}
	}
}

// TestForwardBatchAcceptsFlatExamples allows [C,H,W] examples (no leading
// batch dim), the shape raw inference payloads decode to.
func TestForwardBatchAcceptsFlatExamples(t *testing.T) {
	m := batchTestModel(t)
	rng := rand.New(rand.NewSource(13))
	flat := tensor.Randn(rng, 1, 3, 8, 8)
	lifted := tensor.New(1, 3, 8, 8)
	copy(lifted.Data(), flat.Data())
	want := append([]float64(nil), m.Forward(lifted).Data()...)
	got, err := m.ForwardBatch([]*tensor.Tensor{flat}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for j, v := range got[0].Data() {
		if v != want[j] {
			t.Fatalf("logit %d: %v != %v", j, v, want[j])
		}
	}
}

// TestForwardBatchRejectsTrainingMode: batching a training-mode model would
// couple rows through batch statistics, silently changing results.
func TestForwardBatchRejectsTrainingMode(t *testing.T) {
	m := batchTestModel(t)
	m.SetTraining(true)
	rng := rand.New(rand.NewSource(17))
	_, err := m.ForwardBatch([]*tensor.Tensor{tensor.Randn(rng, 1, 1, 3, 8, 8)}, 0)
	if err == nil {
		t.Fatal("expected error for training-mode ForwardBatch")
	}
}

// TestForwardBatchRejectsBadInput covers the error paths.
func TestForwardBatchRejectsBadInput(t *testing.T) {
	m := batchTestModel(t)
	if _, err := m.ForwardBatch(nil, 0); err == nil {
		t.Error("expected error for empty batch")
	}
	rng := rand.New(rand.NewSource(19))
	mixed := []*tensor.Tensor{
		tensor.Randn(rng, 1, 1, 3, 8, 8),
		tensor.Randn(rng, 1, 1, 3, 4, 4),
	}
	if _, err := m.ForwardBatch(mixed, 0); err == nil {
		t.Error("expected error for mismatched example shapes")
	}
	if _, err := m.ForwardBatch([]*tensor.Tensor{tensor.Randn(rng, 1, 8)}, 0); err == nil {
		t.Error("expected error for non-image example")
	}
}

// TestForwardBatchSteadyStateAllocs pins what FixedModel's scratch fields
// promise: once warm, a dispatch of any fill allocates nothing, so
// serving's allocations per request do not depend on how requests
// coalesce; and the staging arena holds exactly the largest batch, however
// the fills grew to it. A model switched back to training mode is still
// refused afterwards.
func TestForwardBatchSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops Puts at random, defeating scratch reuse")
	}
	m := batchTestModel(t)
	rng := rand.New(rand.NewSource(23))
	xs := make([]*tensor.Tensor, 8)
	for i := range xs {
		xs[i] = tensor.Randn(rng, 1, 1, 3, 8, 8)
	}
	fill := 0
	dispatch := func() {
		fill = fill%len(xs) + 1
		if _, err := m.ForwardBatch(xs[:fill], 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < len(xs); i++ {
		dispatch()
	}
	if allocs := testing.AllocsPerRun(20, dispatch); allocs != 0 {
		t.Fatalf("steady-state ForwardBatch allocates %v objects per dispatch, want 0", allocs)
	}
	if largest := len(xs) * xs[0].Size(); !arenaFits(&m.batchAr, largest) || arenaFits(&m.batchAr, largest+1) {
		t.Errorf("staging arena does not hold exactly the largest batch, %d words", largest)
	}
	m.SetTraining(true)
	if _, err := m.ForwardBatch(xs, 0); err == nil {
		t.Fatal("training mode set after the first dispatch must still be refused")
	}
}
