package serve

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"fedrlnas/internal/nas"
	"fedrlnas/internal/telemetry"
	"fedrlnas/internal/tensor"
)

func testNetConfig() nas.Config {
	return nas.Config{
		InChannels: 2, NumClasses: 5, C: 4, Layers: 2, Nodes: 1,
		Candidates: nas.AllOps,
	}
}

func testGenotype() nas.Genotype {
	return nas.Genotype{
		Normal: []nas.OpKind{nas.OpSepConv3, nas.OpIdentity},
		Reduce: []nas.OpKind{nas.OpMaxPool3, nas.OpSepConv5},
		Nodes:  1,
	}
}

func newTestInference(t *testing.T, bc BatchConfig) (*Inference, *nas.FixedModel) {
	t.Helper()
	model, err := nas.NewFixedModel(rand.New(rand.NewSource(5)), testNetConfig(), testGenotype())
	if err != nil {
		t.Fatal(err)
	}
	// A twin with identical weights for reference forwards: the served
	// model is dispatcher-owned, so comparisons use this copy.
	ref, err := nas.NewFixedModel(rand.New(rand.NewSource(5)), testNetConfig(), testGenotype())
	if err != nil {
		t.Fatal(err)
	}
	ref.SetTraining(false)
	inf, err := NewInference(model, bc, NewMetrics(telemetry.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(inf.Close)
	return inf, ref
}

// TestInferMatchesDirectForward: whatever batch a request lands in, its
// logits must equal a standalone forward of that example.
func TestInferMatchesDirectForward(t *testing.T) {
	inf, ref := newTestInference(t, BatchConfig{MaxBatch: 8, MaxWait: 2 * time.Millisecond})
	rng := rand.New(rand.NewSource(21))
	const n = 40
	xs := make([]*tensor.Tensor, n)
	want := make([][]float64, n)
	for i := range xs {
		xs[i] = tensor.Randn(rng, 1, 1, 2, 8, 8)
		want[i] = append([]float64(nil), ref.Forward(xs[i]).Data()...)
	}
	var wg sync.WaitGroup
	got := make([][]float64, n)
	errs := make([]error, n)
	for i := range xs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = inf.Infer(xs[i])
		}(i)
	}
	wg.Wait()
	for i := range xs {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		for j := range got[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("request %d logit %d: %v != %v (batching changed results)", i, j, got[i][j], want[i][j])
			}
		}
	}
}

// TestInferMixedShapesInOneBatch: H and W are free for the model, so
// requests of different sizes may coalesce into one dispatch. Each size
// runs as its own forward, so every request succeeds with the logits of a
// standalone forward, instead of the odd-sized one failing the batch.
func TestInferMixedShapesInOneBatch(t *testing.T) {
	// MaxWait far exceeds the time to admit four requests, so they share
	// one dispatch.
	inf, ref := newTestInference(t, BatchConfig{MaxBatch: 8, MaxWait: 500 * time.Millisecond})
	rng := rand.New(rand.NewSource(29))
	xs := []*tensor.Tensor{
		tensor.Randn(rng, 1, 1, 2, 8, 8),
		tensor.Randn(rng, 1, 1, 2, 6, 6),
		tensor.Randn(rng, 1, 1, 2, 8, 8),
		tensor.Randn(rng, 1, 1, 2, 8, 8),
	}
	want := make([][]float64, len(xs))
	for i, x := range xs {
		want[i] = append([]float64(nil), ref.Forward(x).Data()...)
	}
	var wg sync.WaitGroup
	got := make([][]float64, len(xs))
	errs := make([]error, len(xs))
	for i := range xs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = inf.Infer(xs[i])
		}(i)
	}
	wg.Wait()
	if b := inf.met.Batches.Value(); b != 1 {
		t.Fatalf("%d dispatches for %d requests, want 1", b, len(xs))
	}
	for i := range xs {
		if errs[i] != nil {
			t.Fatalf("request %d (shape %v): %v", i, xs[i].Shape(), errs[i])
		}
		if !slices.Equal(got[i], want[i]) {
			t.Fatalf("request %d (shape %v): logits %v, want %v", i, xs[i].Shape(), got[i], want[i])
		}
	}
}

// TestInferCoalesces drives concurrent requests through a MaxBatch=8 queue
// and checks the dispatcher actually batches (fewer batches than requests).
func TestInferCoalesces(t *testing.T) {
	inf, _ := newTestInference(t, BatchConfig{MaxBatch: 8, MaxWait: 5 * time.Millisecond})
	rng := rand.New(rand.NewSource(23))
	x := tensor.Randn(rng, 1, 1, 2, 8, 8)
	const n = 64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := inf.Infer(x); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	batches := inf.met.Batches.Value()
	if batches >= n {
		t.Fatalf("%d batches for %d requests: no coalescing", batches, n)
	}
	if got := inf.met.Requests.Value(); got != n {
		t.Fatalf("requests counter %d, want %d", got, n)
	}
}

// TestCloseFlushesInFlight: every request admitted before Close must get an
// answer, and every request after must get ErrClosed.
func TestCloseFlushesInFlight(t *testing.T) {
	inf, _ := newTestInference(t, BatchConfig{MaxBatch: 4, MaxWait: time.Millisecond, QueueCap: 64})
	rng := rand.New(rand.NewSource(27))
	x := tensor.Randn(rng, 1, 1, 2, 8, 8)
	const n = 32
	var wg sync.WaitGroup
	results := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, results[i] = inf.Infer(x)
		}(i)
	}
	wg.Wait() // all n admitted and answered before we close
	inf.Close()
	for i, err := range results {
		if err != nil {
			t.Fatalf("pre-close request %d: %v", i, err)
		}
	}
	if _, err := inf.Infer(x); err != ErrClosed {
		t.Fatalf("post-close Infer = %v, want ErrClosed", err)
	}
	inf.Close() // idempotent
}

// TestBatchPolicyRejectsBadConfig covers config validation.
func TestBatchPolicyRejectsBadConfig(t *testing.T) {
	model, err := nas.NewFixedModel(rand.New(rand.NewSource(5)), testNetConfig(), testGenotype())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewInference(model, BatchConfig{MaxBatch: 0}, NewMetrics(telemetry.NewRegistry())); err == nil {
		t.Error("expected error for MaxBatch 0")
	}
	if _, err := NewInference(model, BatchConfig{MaxBatch: 4, MaxWait: -time.Second}, NewMetrics(telemetry.NewRegistry())); err == nil {
		t.Error("expected error for negative MaxWait")
	}
}
