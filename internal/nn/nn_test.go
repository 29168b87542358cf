package nn

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"fedrlnas/internal/tensor"
)

const gradTol = 1e-5

// smoothInput returns an input with no exact zeros or ties so that
// finite-difference checks of ReLU/max-pool are well defined.
func smoothInput(rng *rand.Rand, shape ...int) *tensor.Tensor {
	x := tensor.Randn(rng, 1, shape...)
	d := x.Data()
	for i := range d {
		d[i] += 0.137 * float64(i%7)
		if math.Abs(d[i]) < 0.05 {
			d[i] += 0.1
		}
	}
	return x
}

func checkModuleGrad(t *testing.T, name string, m Module, x *tensor.Tensor) {
	t.Helper()
	res, err := CheckGradients(m, x, 1e-5)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if res.MaxRelErr > gradTol {
		t.Errorf("%s: max relative gradient error %.3g at %s", name, res.MaxRelErr, res.Where)
	}
}

func TestConv2DGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := []struct {
		name string
		opts ConvOpts
		inC  int
		outC int
		k    int
	}{
		{"basic3x3", ConvOpts{Pad: 1}, 2, 3, 3},
		{"stride2", ConvOpts{Stride: 2, Pad: 1}, 2, 2, 3},
		{"dilated", ConvOpts{Pad: 2, Dilation: 2}, 2, 2, 3},
		{"depthwise", ConvOpts{Pad: 1, Groups: 2}, 2, 2, 3},
		{"bias1x1", ConvOpts{Bias: true}, 3, 2, 1},
		{"k5", ConvOpts{Pad: 2}, 1, 2, 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := NewConv2D("c", rng, tc.inC, tc.outC, tc.k, tc.opts)
			x := smoothInput(rng, 2, tc.inC, 5, 5)
			checkModuleGrad(t, tc.name, c, x)
		})
	}
}

func TestConv2DOutputShape(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	c := NewConv2D("c", rng, 3, 8, 3, ConvOpts{Stride: 2, Pad: 1})
	out := c.Forward(tensor.New(4, 3, 8, 8))
	want := []int{4, 8, 4, 4}
	for i, d := range want {
		if out.Dim(i) != d {
			t.Fatalf("output shape %v, want %v", out.Shape(), want)
		}
	}
}

func TestConv2DIdentityKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := NewConv2D("c", rng, 1, 1, 1, ConvOpts{})
	c.weight.Value.Set(1, 0, 0, 0, 0)
	x := tensor.Randn(rng, 1, 2, 1, 3, 3)
	if !c.Forward(x).AllClose(x, 1e-12) {
		t.Error("1x1 identity kernel should pass input through")
	}
}

func TestMaxPoolGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	p := NewMaxPool2D(3, 1, 1)
	checkModuleGrad(t, "maxpool s1", p, smoothInput(rng, 2, 2, 5, 5))
	p2 := NewMaxPool2D(3, 2, 1)
	checkModuleGrad(t, "maxpool s2", p2, smoothInput(rng, 1, 2, 6, 6))
}

func TestMaxPoolSelectsMax(t *testing.T) {
	x := tensor.FromSlice([]float64{
		1, 2, 3,
		4, 9, 6,
		7, 8, 5,
	}, 1, 1, 3, 3)
	p := NewMaxPool2D(3, 1, 0)
	out := p.Forward(x)
	if out.At(0, 0, 0, 0) != 9 {
		t.Errorf("max = %v, want 9", out.At(0, 0, 0, 0))
	}
}

func TestAvgPoolGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := NewAvgPool2D(3, 1, 1)
	checkModuleGrad(t, "avgpool s1", p, smoothInput(rng, 2, 2, 5, 5))
	p2 := NewAvgPool2D(3, 2, 1)
	checkModuleGrad(t, "avgpool s2", p2, smoothInput(rng, 1, 2, 6, 6))
}

func TestGlobalAvgPool(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := NewGlobalAvgPool()
	x := tensor.FromSlice([]float64{1, 2, 3, 4}, 1, 1, 2, 2)
	out := g.Forward(x)
	if out.At(0, 0) != 2.5 {
		t.Errorf("global avg = %v, want 2.5", out.At(0, 0))
	}
	checkModuleGrad(t, "gap", g, smoothInput(rng, 2, 3, 4, 4))
}

func TestSubSample(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := NewSubSample(2)
	x := tensor.FromSlice([]float64{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 1, 4, 4)
	out := s.Forward(x)
	want := []float64{1, 3, 9, 11}
	for i, w := range want {
		if out.Data()[i] != w {
			t.Fatalf("subsample = %v, want %v", out.Data(), want)
		}
	}
	checkModuleGrad(t, "subsample", s, smoothInput(rng, 2, 2, 4, 4))
	s1 := NewSubSample(1)
	checkModuleGrad(t, "subsample s1", s1, smoothInput(rng, 1, 2, 3, 3))
}

func TestReLUGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	checkModuleGrad(t, "relu", NewReLU(), smoothInput(rng, 2, 2, 3, 3))
}

func TestZeroOp(t *testing.T) {
	z := NewZero(1)
	x := tensor.Full(3, 1, 2, 4, 4)
	out := z.Forward(x)
	if out.Sum() != 0 {
		t.Error("Zero op must output zeros")
	}
	gin := z.Backward(tensor.Full(1, 1, 2, 4, 4))
	if gin.Sum() != 0 {
		t.Error("Zero op must back-propagate zeros")
	}
	z2 := NewZero(2)
	out2 := z2.Forward(x)
	if out2.Dim(2) != 2 || out2.Dim(3) != 2 {
		t.Errorf("strided zero shape %v", out2.Shape())
	}
}

func TestLinearGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	l := NewLinear("fc", rng, 4, 3)
	checkModuleGrad(t, "linear", l, smoothInput(rng, 3, 4))
}

func TestBatchNormGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	bn := NewBatchNorm2D("bn", 2)
	checkModuleGrad(t, "bn train", bn, smoothInput(rng, 3, 2, 3, 3))

	bn2 := NewBatchNorm2D("bn2", 2)
	bn2.Forward(smoothInput(rng, 3, 2, 3, 3)) // populate running stats
	bn2.SetTraining(false)
	checkModuleGrad(t, "bn eval", bn2, smoothInput(rng, 3, 2, 3, 3))
}

func TestBatchNormNormalizes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	bn := NewBatchNorm2D("bn", 3)
	x := tensor.Randn(rng, 5, 4, 3, 6, 6)
	d := x.Data()
	for i := range d {
		d[i] += 10 // big offset that BN should remove
	}
	out := bn.Forward(x)
	if m := out.Mean(); math.Abs(m) > 1e-8 {
		t.Errorf("BN output mean %v, want ~0", m)
	}
}

func TestSepConvAndDilConvGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	sc := NewSepConv("sep", rng, 2, 3, 1)
	checkModuleGrad(t, "sepconv", sc, smoothInput(rng, 2, 2, 5, 5))
	dc := NewDilConv("dil", rng, 2, 3, 1)
	checkModuleGrad(t, "dilconv", dc, smoothInput(rng, 2, 2, 7, 7))
}

func TestSequentialComposition(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	seq := NewSequential(
		NewConv2D("c1", rng, 1, 2, 3, ConvOpts{Pad: 1}),
		NewReLU(),
		NewConv2D("c2", rng, 2, 1, 1, ConvOpts{}),
	)
	if got := len(seq.Params()); got != 2 {
		t.Fatalf("Sequential.Params len = %d, want 2", got)
	}
	checkModuleGrad(t, "sequential", seq, smoothInput(rng, 2, 1, 4, 4))
}

func TestCrossEntropy(t *testing.T) {
	logits := tensor.FromSlice([]float64{
		10, 0, 0,
		0, 10, 0,
	}, 2, 3)
	res, err := CrossEntropy(logits, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accuracy != 1 {
		t.Errorf("accuracy = %v, want 1", res.Accuracy)
	}
	if res.Loss > 0.01 {
		t.Errorf("confident correct loss = %v, want ~0", res.Loss)
	}
	// Uniform logits: loss == ln(classes).
	res2, err := CrossEntropy(tensor.New(2, 3), []int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res2.Loss-math.Log(3)) > 1e-9 {
		t.Errorf("uniform loss = %v, want ln 3", res2.Loss)
	}
}

func TestCrossEntropyGradNumeric(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	logits := tensor.Randn(rng, 1, 3, 4)
	labels := []int{1, 3, 0}
	res, err := CrossEntropy(logits, labels)
	if err != nil {
		t.Fatal(err)
	}
	eps := 1e-6
	ld := logits.Data()
	for i := range ld {
		orig := ld[i]
		ld[i] = orig + eps
		up, _ := CrossEntropy(logits, labels)
		ld[i] = orig - eps
		down, _ := CrossEntropy(logits, labels)
		ld[i] = orig
		num := (up.Loss - down.Loss) / (2 * eps)
		if math.Abs(num-res.GradLogits.Data()[i]) > 1e-6 {
			t.Fatalf("grad[%d]: analytic %v numeric %v", i, res.GradLogits.Data()[i], num)
		}
	}
}

func TestCrossEntropyErrors(t *testing.T) {
	if _, err := CrossEntropy(tensor.New(2, 3), []int{0}); err == nil {
		t.Error("expected error for label/batch mismatch")
	}
	if _, err := CrossEntropy(tensor.New(2, 3), []int{0, 5}); err == nil {
		t.Error("expected error for out-of-range label")
	}
	if _, err := CrossEntropy(tensor.New(6), []int{0}); err == nil {
		t.Error("expected error for 1-D logits")
	}
}

func TestSGDStep(t *testing.T) {
	p := NewParam("w", tensor.FromSlice([]float64{1, 1}, 2))
	p.Grad.CopyFrom(tensor.FromSlice([]float64{1, -1}, 2))
	opt := NewSGD(0.1, 0, 0, 0)
	opt.Step([]*Param{p})
	if got := p.Value.At(0); math.Abs(got-0.9) > 1e-12 {
		t.Errorf("after step w[0] = %v, want 0.9", got)
	}
	if got := p.Value.At(1); math.Abs(got-1.1) > 1e-12 {
		t.Errorf("after step w[1] = %v, want 1.1", got)
	}
}

func TestSGDMomentumAccumulates(t *testing.T) {
	p := NewParam("w", tensor.New(1))
	opt := NewSGD(1, 0.5, 0, 0)
	p.Grad.Fill(1)
	opt.Step([]*Param{p}) // v=1, w=-1
	opt.Step([]*Param{p}) // v=1.5, w=-2.5
	if got := p.Value.At(0); math.Abs(got-(-2.5)) > 1e-12 {
		t.Errorf("momentum w = %v, want -2.5", got)
	}
}

func TestSGDWeightDecay(t *testing.T) {
	p := NewParam("w", tensor.FromSlice([]float64{2}, 1))
	opt := NewSGD(0.5, 0, 0.1, 0)
	opt.Step([]*Param{p}) // g = 0 + 0.1*2 = 0.2 → w = 2 - 0.1 = 1.9
	if got := p.Value.At(0); math.Abs(got-1.9) > 1e-12 {
		t.Errorf("weight decay w = %v, want 1.9", got)
	}
}

func TestSGDGradClip(t *testing.T) {
	p := NewParam("w", tensor.New(2))
	p.Grad.CopyFrom(tensor.FromSlice([]float64{30, 40}, 2)) // norm 50
	opt := NewSGD(1, 0, 0, 5)
	opt.Step([]*Param{p})
	if got := opt.LastGradNorm(); math.Abs(got-50) > 1e-9 {
		t.Errorf("pre-clip norm = %v, want 50", got)
	}
	// After clip to norm 5: grad = (3, 4); w = -(3,4).
	if got := p.Value.At(1); math.Abs(got-(-4)) > 1e-9 {
		t.Errorf("clipped step w[1] = %v, want -4", got)
	}
}

func TestSnapshotRestore(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	l := NewLinear("fc", rng, 3, 2)
	snap := CloneParamValues(l.Params())
	l.Params()[0].Value.Fill(0)
	if err := RestoreParamValues(l.Params(), snap); err != nil {
		t.Fatal(err)
	}
	if l.Params()[0].Value.Sum() == 0 {
		t.Error("restore did not bring weights back")
	}
	if err := RestoreParamValues(l.Params(), snap[:1]); err == nil {
		t.Error("expected error for length mismatch")
	}
}

func TestParamCountAndBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	l := NewLinear("fc", rng, 3, 2)
	if got := ParamCount(l.Params()); got != 3*2+2 {
		t.Errorf("ParamCount = %d, want 8", got)
	}
	if ParamBytes(l.Params()) <= 0 {
		t.Error("ParamBytes must be positive")
	}
}

// Training a tiny model end to end must reduce the loss — the substrate's
// core integration invariant.
func TestEndToEndTrainingReducesLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	model := NewSequential(
		NewConv2D("c1", rng, 1, 4, 3, ConvOpts{Pad: 1}),
		NewBatchNorm2D("bn1", 4),
		NewReLU(),
		NewGlobalAvgPool(),
		NewLinear("fc", rng, 4, 2),
	)
	// Two separable classes of 4x4 "images".
	n := 16
	x := tensor.New(n, 1, 4, 4)
	labels := make([]int, n)
	for b := 0; b < n; b++ {
		labels[b] = b % 2
		val := -1.0
		if labels[b] == 1 {
			val = 1.0
		}
		for i := 0; i < 16; i++ {
			x.Set(val+0.3*rng.NormFloat64(), b, 0, i/4, i%4)
		}
	}
	opt := NewSGD(0.1, 0.9, 0, 5)
	var first, last float64
	for step := 0; step < 40; step++ {
		ZeroGrads(model.Params())
		logits := model.Forward(x)
		res, err := CrossEntropy(logits, labels)
		if err != nil {
			t.Fatal(err)
		}
		model.Backward(res.GradLogits)
		opt.Step(model.Params())
		if step == 0 {
			first = res.Loss
		}
		last = res.Loss
	}
	if last >= first {
		t.Errorf("loss did not decrease: first %v last %v", first, last)
	}
	if last > 0.3 {
		t.Errorf("final loss %v too high for separable data", last)
	}
}

func TestResidualGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	r := NewBasicBlock("rb", rng, 2)
	checkModuleGrad(t, "residual", r, smoothInput(rng, 2, 2, 4, 4))
}

func TestResidualIdentityPath(t *testing.T) {
	// A residual block whose body outputs zero must be the identity.
	body := NewZero(1)
	r := NewResidual(body)
	rng := rand.New(rand.NewSource(21))
	x := tensor.Randn(rng, 1, 1, 2, 3, 3)
	if !r.Forward(x).AllClose(x, 0) {
		t.Error("zero-body residual must pass input through")
	}
	grad := tensor.Randn(rng, 1, 1, 2, 3, 3)
	if !r.Backward(grad).AllClose(grad, 0) {
		t.Error("zero-body residual must pass gradient through")
	}
}

func TestConvEdgeGeometries(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	cases := []struct {
		name           string
		inC, outC, k   int
		opts           ConvOpts
		h, w           int
		wantOH, wantOW int
	}{
		{"1x1 input", 2, 3, 1, ConvOpts{}, 1, 1, 1, 1},
		{"kernel equals input", 1, 1, 3, ConvOpts{}, 3, 3, 1, 1},
		{"stride exceeds kernel", 1, 1, 1, ConvOpts{Stride: 3}, 7, 7, 3, 3},
		{"heavy padding", 1, 1, 3, ConvOpts{Pad: 3}, 2, 2, 6, 6},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := NewConv2D("c", rng, tc.inC, tc.outC, tc.k, tc.opts)
			x := tensor.Randn(rng, 1, 1, tc.inC, tc.h, tc.w)
			out := c.Forward(x)
			if out.Dim(2) != tc.wantOH || out.Dim(3) != tc.wantOW {
				t.Fatalf("output %v, want spatial %dx%d", out.Shape(), tc.wantOH, tc.wantOW)
			}
			// Backward must produce an input-shaped gradient.
			gin := c.Backward(tensor.Randn(rng, 1, out.Shape()...))
			if !gin.SameShape(x) {
				t.Fatalf("grad shape %v != input %v", gin.Shape(), x.Shape())
			}
		})
	}
}

func TestBatchSizeOneBatchNorm(t *testing.T) {
	// N=1 training-mode BN must not divide by zero (variance over H*W only).
	rng := rand.New(rand.NewSource(31))
	bn := NewBatchNorm2D("bn", 2)
	out := bn.Forward(tensor.Randn(rng, 1, 1, 2, 3, 3))
	if out.HasNaN() {
		t.Fatal("N=1 batch norm produced NaN")
	}
}

func TestMaxPoolAllPaddingWindow(t *testing.T) {
	// A window fully in padding must output 0, not -Inf.
	p := NewMaxPool2D(3, 4, 1) // sparse sampling with padding
	x := tensor.Full(-5, 1, 1, 2, 2)
	out := p.Forward(x)
	if out.HasNaN() {
		t.Fatal("max pool produced NaN/Inf on padded window")
	}
}

func TestCrossEntropyExtremeLogits(t *testing.T) {
	logits := tensor.FromSlice([]float64{1e4, -1e4, 0, 0, 1e4, -1e4}, 2, 3)
	res, err := CrossEntropy(logits, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.GradLogits.HasNaN() {
		t.Fatal("extreme logits produced NaN gradients")
	}
}

// ParamHash is the standard library's FNV-1a over each value's little-endian
// bytes (the form some callers computed it in before it was shared), and it
// sees a one-ulp change anywhere.
func TestParamHashIsFNV1a(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ps := []*Param{
		NewParam("a", tensor.Randn(rng, 1, 3, 4)),
		NewParam("b", tensor.Randn(rng, 1, 5)),
	}
	h := fnv.New64a()
	var buf [8]byte
	for _, p := range ps {
		for _, v := range p.Value.Data() {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	want := h.Sum64()
	if got := ParamHash(ps); got != want {
		t.Fatalf("ParamHash %#x, FNV-1a %#x", got, want)
	}
	d := ps[1].Value.Data()
	d[4] = math.Nextafter(d[4], math.Inf(1))
	if ParamHash(ps) == want {
		t.Error("a one-ulp change left the hash unchanged")
	}
}
