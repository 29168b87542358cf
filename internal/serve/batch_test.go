package serve

import (
	"math/rand"
	"runtime"
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
	inf, ref := newIdleInference(t, bc)
	go inf.dispatch()
	return inf, ref
}

// newIdleInference is newTestInference with the dispatcher not started yet.
func newIdleInference(t *testing.T, bc BatchConfig) (*Inference, *nas.FixedModel) {
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
	inf, err := newInference(model, bc, NewMetrics(telemetry.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(inf.Close)
	return inf, ref
}

// inferQueued submits every example through Infer and starts the
// dispatcher only once all of them are queued, so the dispatches are fixed
// by the queue alone: the first MaxBatch requests in admission order, then
// the next MaxBatch, and so on. The queue holds every example.
func inferQueued(t *testing.T, bc BatchConfig, xs []*tensor.Tensor) (inf *Inference, ref *nas.FixedModel, got [][]float64, errs []error) {
	t.Helper()
	bc.QueueCap = max(bc.QueueCap, len(xs))
	inf, ref = newIdleInference(t, bc)
	got, errs = make([][]float64, len(xs)), make([]error, len(xs))
	var wg sync.WaitGroup
	for i := range xs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = inf.Infer(xs[i])
		}()
	}
	for len(inf.reqs) < len(xs) {
		runtime.Gosched()
	}
	go inf.dispatch()
	wg.Wait()
	return inf, ref, got, errs
}

// TestInferMatchesDirectForward: whatever batch a request lands in, its
// logits must equal a standalone forward of that example.
func TestInferMatchesDirectForward(t *testing.T) {
	inf, ref := newTestInference(t, BatchConfig{MaxBatch: 8})
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
	rng := rand.New(rand.NewSource(29))
	xs := []*tensor.Tensor{
		tensor.Randn(rng, 1, 1, 2, 8, 8),
		tensor.Randn(rng, 1, 1, 2, 6, 6),
		tensor.Randn(rng, 1, 1, 2, 8, 8),
		tensor.Randn(rng, 1, 1, 2, 8, 8),
	}
	inf, ref, got, errs := inferQueued(t, BatchConfig{MaxBatch: 8}, xs)
	if b := inf.met.Batches.Value(); b != 1 {
		t.Fatalf("%d dispatches for %d queued requests, want 1", b, len(xs))
	}
	for i, x := range xs {
		if errs[i] != nil {
			t.Fatalf("request %d (shape %v): %v", i, x.Shape(), errs[i])
		}
		if want := ref.Forward(x).Data(); !slices.Equal(got[i], want) {
			t.Fatalf("request %d (shape %v): logits %v, want %v", i, x.Shape(), got[i], want)
		}
	}
}

// TestInferCoalesces queues more requests than a MaxBatch=8 dispatch holds
// before the dispatcher starts: it must take them eight at a time, in
// exactly ⌈n/8⌉ dispatches.
func TestInferCoalesces(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	x := tensor.Randn(rng, 1, 1, 2, 8, 8)
	const n, maxBatch = 61, 8
	xs := make([]*tensor.Tensor, n)
	for i := range xs {
		xs[i] = x
	}
	inf, _, _, errs := inferQueued(t, BatchConfig{MaxBatch: maxBatch}, xs)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if got, want := inf.met.Batches.Value(), int64((n+maxBatch-1)/maxBatch); got != want {
		t.Fatalf("%d dispatches for %d queued requests at MaxBatch %d, want %d", got, n, maxBatch, want)
	}
	if got := inf.met.Requests.Value(); got != n {
		t.Fatalf("requests counter %d, want %d", got, n)
	}
}

// TestLoneRequestDoesNotWait: the dispatcher runs a batch as soon as the
// model is free, so a lone request is answered at once even under a
// MaxWait that a waiting dispatcher would honour for an hour.
func TestLoneRequestDoesNotWait(t *testing.T) {
	inf, ref := newTestInference(t, BatchConfig{MaxBatch: 8, MaxWait: time.Hour})
	x := tensor.Randn(rand.New(rand.NewSource(31)), 1, 1, 2, 8, 8)
	type answer struct {
		logits []float64
		err    error
	}
	done := make(chan answer, 1)
	go func() {
		logits, err := inf.Infer(x)
		done <- answer{logits, err}
	}()
	select {
	case a := <-done:
		if a.err != nil {
			t.Fatal(a.err)
		}
		if want := ref.Forward(x).Data(); !slices.Equal(a.logits, want) {
			t.Fatalf("logits %v, want %v", a.logits, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a lone request waited 5 s for company")
	}
}

// TestCloseFlushesInFlight: every request admitted before Close must get an
// answer, and every request after must get ErrClosed.
func TestCloseFlushesInFlight(t *testing.T) {
	inf, _ := newTestInference(t, BatchConfig{MaxBatch: 4, QueueCap: 64})
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
