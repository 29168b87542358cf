package nn

import (
	"math"
	"math/rand"
	"testing"

	"fedrlnas/internal/tensor"
)

// relDiff returns the largest difference between got and want relative to
// want's largest magnitude.
func relDiff(got, want []float64) float64 {
	var d, scale float64
	for i, w := range want {
		d = math.Max(d, math.Abs(got[i]-w))
		scale = math.Max(scale, math.Abs(w))
	}
	return d / scale
}

// A folded conv→BN block computes its unfolded eval forward within a
// relative 1e-12, returned and added into a node (ForwardAdd), on every
// conv path: the pointwise batched GEMM (4×4 planes), a pointwise conv on
// planes the batched GEMM may decline (2×2), the batch-wide column matrix
// (a stride-2 1×1), and a padded 3×3 with a bias of its own.
func TestFoldMatchesUnfoldedEval(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	cases := []struct {
		name  string
		seq   *Sequential
		shape []int
	}{
		{"sep 4x4", NewSepConv("sep", rng, 6, 3, 1), []int{3, 6, 4, 4}},
		{"sep 2x2", NewSepConv("sep2", rng, 6, 3, 1), []int{3, 6, 2, 2}},
		{"pre stride 2", NewReLUConvBN("pre", rng, 4, 6, 2), []int{3, 4, 8, 8}},
		{"stem with bias", NewSequential(
			NewConv2D("stem", rng, 3, 5, 3, ConvOpts{Pad: 1, Bias: true}),
			NewBatchNorm2D("stem.bn", 5)), []int{3, 3, 8, 8}},
	}
	for _, c := range cases {
		_, bn := c.seq.convBN()
		for ch := range bn.runningMean {
			bn.runningMean[ch], bn.runningVar[ch] = rng.NormFloat64(), 0.5+rng.Float64()
		}
		for _, p := range c.seq.Params() {
			if p.Value.Dims() == 1 { // a bias, γ or β
				copy(p.Value.Data(), tensor.Randn(rng, 1, p.Value.Size()).Data())
			}
		}
		x := tensor.Randn(rng, 1, c.shape...)
		c.seq.SetTraining(false)
		want := c.seq.Forward(x).Clone()
		node := tensor.Randn(rng, 1, want.Shape()...)
		wantAdd := node.Clone()
		wantAdd.AddInPlace(want)

		wn, bias := c.seq.FoldLen()
		c.seq.Fold(make([]float64, wn), make([]float64, bias))
		if d := relDiff(c.seq.Forward(x).Data(), want.Data()); d > 1e-12 {
			t.Errorf("%s: folded Forward off by %.3g relative", c.name, d)
		}
		gotAdd := node.Clone()
		if !ForwardAdd(c.seq, x, gotAdd) {
			t.Fatalf("%s: a folded block must add into a node", c.name)
		}
		if d := relDiff(gotAdd.Data(), wantAdd.Data()); d > 1e-12 {
			t.Errorf("%s: folded ForwardAdd off by %.3g relative", c.name, d)
		}
		c.seq.SetTraining(true)
		if c.seq.fold.conv != nil {
			t.Errorf("%s: SetTraining(true) kept the fold", c.name)
		}
	}
}

// Only a dense conv followed by the batch norm of its output folds.
func TestFoldNeedsConvThenBN(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, seq := range []*Sequential{
		NewSequential(NewConv2D("dw", rng, 4, 4, 3, ConvOpts{Pad: 1, Groups: 4}), NewBatchNorm2D("bn", 4)),
		NewSequential(NewConv2D("c", rng, 4, 4, 1, ConvOpts{}), NewReLU()),
		NewSequential(NewBatchNorm2D("bn", 4)),
	} {
		if w, b := seq.FoldLen(); w != 0 || b != 0 {
			t.Errorf("FoldLen %d, %d on a block with no conv→BN pair", w, b)
		}
	}
}
