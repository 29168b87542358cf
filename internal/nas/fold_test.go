package nas

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"fedrlnas/internal/data"
	"fedrlnas/internal/nn"
	"fedrlnas/internal/tensor"
)

// servedNet and servedGenotype are the model the serve benchmark workload
// serves (seed 7, 3×8×8 requests, batches of up to 16).
func servedNet() Config {
	return Config{InChannels: 3, NumClasses: 10, C: 8, Layers: 3, Nodes: 2, Candidates: AllOps}
}

func servedGenotype() Genotype {
	return Genotype{
		Normal: []OpKind{OpSepConv3, OpIdentity, OpSepConv5, OpDilConv3, OpMaxPool3},
		Reduce: []OpKind{OpMaxPool3, OpSepConv3, OpIdentity, OpAvgPool3, OpSepConv5},
		Nodes:  2,
	}
}

// servedModel builds the served model in eval mode and n request inputs.
func servedModel(tb testing.TB, n int) (*FixedModel, []*tensor.Tensor) {
	tb.Helper()
	m, err := NewFixedModel(rand.New(rand.NewSource(7)), servedNet(), servedGenotype())
	if err != nil {
		tb.Fatal(err)
	}
	m.SetTraining(false)
	rng := rand.New(rand.NewSource(1))
	xs := make([]*tensor.Tensor, n)
	for i := range xs {
		xs[i] = tensor.Randn(rng, 1, 1, 3, 8, 8)
	}
	return m, xs
}

// trainSteps runs n SGD steps of m in training mode on batches of 32 drawn
// from ds, moving its weights and batch-norm running statistics.
func trainSteps(t *testing.T, m *FixedModel, ds *data.Dataset, rng *rand.Rand, n int) {
	t.Helper()
	m.SetTraining(true)
	opt := nn.NewSGD(0.05, 0.9, 0, 5)
	for range n {
		x, y := ds.Gather(rng.Perm(ds.NumTrain())[:32])
		nn.ZeroGrads(m.Params())
		loss, err := nn.CrossEntropy(m.Forward(x), y)
		if err != nil {
			t.Fatal(err)
		}
		m.Backward(loss.GradLogits)
		opt.Step(m.Params())
	}
}

// evalLogits returns m's eval-mode logits on every test example of ds,
// folded (m.SetTraining(false)) or not (batch norm in eval mode, no fold).
// It leaves m in eval mode.
func evalLogits(m *FixedModel, ds *data.Dataset, folded bool) *tensor.Tensor {
	idx := make([]int, ds.NumTest())
	for i := range idx {
		idx[i] = i
	}
	x, _ := ds.GatherTest(idx)
	m.SetTraining(true) // drop any fold
	if folded {
		m.SetTraining(false)
		return m.Forward(x).Clone()
	}
	m.Net.SetTraining(false)
	return m.Net.ForwardSampled(x, m.G).Clone()
}

// checkFold compares folded with unfolded logits, row by row, relative to
// the row's largest magnitude, and their argmax.
func checkFold(t *testing.T, folded, unfolded *tensor.Tensor) {
	t.Helper()
	classes := folded.Dim(1)
	fd, ud := folded.Data(), unfolded.Data()
	worst := 0.0
	for r := 0; r < folded.Dim(0); r++ {
		f, u := fd[r*classes:(r+1)*classes], ud[r*classes:(r+1)*classes]
		var diff, scale float64
		fArg, uArg := 0, 0
		for j := range f {
			diff, scale = math.Max(diff, math.Abs(f[j]-u[j])), math.Max(scale, math.Abs(u[j]))
			if f[j] > f[fArg] {
				fArg = j
			}
			if u[j] > u[uArg] {
				uArg = j
			}
		}
		worst = math.Max(worst, diff/scale)
		if fArg != uArg {
			t.Errorf("example %d: folded argmax %d, unfolded %d", r, fArg, uArg)
		}
	}
	t.Logf("%d examples: largest relative difference %.3g", folded.Dim(0), worst)
	if worst > 1e-12 {
		t.Errorf("folded logits differ from unfolded by %.3g relative", worst)
	}
}

// The folded eval forward of a trained model matches the unfolded one
// within a relative 1e-12 on every cifar10s test example, with the same
// argmax. A training step after SetTraining(true) moves the weights and
// statistics, and the next SetTraining(false) folds the new ones.
func TestFoldedLogitsMatchUnfolded(t *testing.T) {
	ds, err := data.Generate(data.CIFAR10S())
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewFixedModel(rand.New(rand.NewSource(3)), servedNet(), servedGenotype())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	trainSteps(t, m, ds, rng, 8)
	before := evalLogits(m, ds, true)
	checkFold(t, before, evalLogits(m, ds, false))

	trainSteps(t, m, ds, rng, 1)
	after := evalLogits(m, ds, true)
	checkFold(t, after, evalLogits(m, ds, false))
	if after.AllClose(before, 1e-9) {
		t.Error("the refold after a training step kept the old weights")
	}
}

// Backward after a folded forward panics: the forward skipped every batch
// norm, so there is nothing to back-propagate through.
func TestFoldedBackwardPanics(t *testing.T) {
	m, xs := servedModel(t, 1)
	logits := m.Forward(xs[0])
	defer func() {
		if recover() == nil {
			t.Error("Backward after a folded forward did not panic")
		}
	}()
	m.Backward(tensor.New(logits.Shape()...))
}

// The step arena of the served model at fill 16 is pinned to the word, as
// TestArenaHighWaterPinned pins a training step's: one eval forward plus
// the eighth the arena keeps spare. It is the served model's resident
// activation memory. It depends on the GEMM kernel: the AVX2 kernels' 8-wide
// tiles decline a batched product over 2×2 planes, which then lowers the
// batch into a column matrix, where the portable 4×4 kernel does not. The
// unfolded forward took 603,451 words (AVX2) and 595,259 (portable); the
// folded one 398,411 and 394,315 while every lane plan, ReLU output and
// the stem's column matrix lived to the end of the forward.
func TestEvalArenaHighWaterPinned(t *testing.T) {
	largest := 292000 // words
	if !strings.HasPrefix(tensor.KernelInfo().KernelF64, "avx2") {
		largest = 287904
	}
	m, xs := servedModel(t, 16)
	// Back to training and to eval again: the second SetTraining(false)
	// must fold again, or the forward would take the unfolded arena.
	m.SetTraining(true)
	m.SetTraining(false)
	for range 2 {
		if _, err := m.ForwardBatch(xs, 0); err != nil {
			t.Fatal(err)
		}
	}
	if want := largest + largest/8; !arenaFits(&m.Net.ar, want) || arenaFits(&m.Net.ar, want+1) {
		t.Errorf("eval arena capacity moved from %d words", want)
	}
}

// A served model's arena follows its largest dispatch, not the order fills
// arrived in. A first dispatch of one request sizes the arena for one; the
// full batch after it at least doubles the take, so the next Reset folds
// its growth slabs into one slab for sixteen. Fills that rise one request
// at a time fold on each doubling only, and keep the arena within twice
// the full batch's.
func TestEvalArenaFollowsLargestFill(t *testing.T) {
	words := func(fills ...int) int {
		m, xs := servedModel(t, 16)
		for _, f := range fills {
			if _, err := m.ForwardBatch(xs[:f], 0); err != nil {
				t.Fatal(err)
			}
		}
		return m.Net.ar.Words()
	}
	full := words(16, 16, 16)
	if got := words(1, 16, 16, 16); 8*got > 9*full {
		t.Errorf("fills 1,16,16,16 leave %d arena words, fills 16,16,16 %d: want at most 9/8 of it", got, full)
	}
	rising := make([]int, 16)
	for i := range rising {
		rising[i] = i + 1
	}
	if got := words(rising...); got > 2*full {
		t.Errorf("fills 1…16 leave %d arena words, want at most twice the %d of fills 16,16,16", got, full)
	}
}

// BenchmarkForwardBatch times one eval-mode batched forward of the served
// model at the fills a dispatch sees: a lone request, a part-full batch and
// a full one.
func BenchmarkForwardBatch(b *testing.B) {
	for _, fill := range []int{1, 7, 16} {
		b.Run(fmt.Sprintf("fill=%d", fill), func(b *testing.B) {
			m, xs := servedModel(b, fill)
			if _, err := m.ForwardBatch(xs, 0); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.ForwardBatch(xs, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
