package nn

import (
	"math"
	"math/rand"
	"testing"

	"fedrlnas/internal/tensor"
)

// Bit-identity tables for the fast paths: each compares against a naive
// loop, element by element on the bits. Every build runs the same
// algorithms (under -tags noasm with tensor's portable kernels), so the
// tables hold on every platform.

// sparseTensor draws what a layer downstream of a ReLU sees: about half
// exact zeros, of both signs.
func sparseTensor(rng *rand.Rand, shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	d := t.Data()
	for i := range d {
		switch rng.Intn(4) {
		case 0:
			d[i] = 0
		case 1:
			d[i] = math.Copysign(0, -1)
		default:
			d[i] = rng.NormFloat64()
		}
	}
	return t
}

func requireSameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v (%016x), want %v (%016x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

type dwGeometry struct {
	k, stride, dil, pad, n, c, h, w int
}

// checkDepthwise runs one depthwise layer and requires the bits of the
// naive loops (directForward, depthwiseBackward) on out, gradX and the
// accumulated gradW. It reports false when the geometry has no output.
func checkDepthwise(t *testing.T, g dwGeometry, seed int64) bool {
	t.Helper()
	// (convOutDim's truncating division reports 1 for a kernel that
	// overhangs the padded input by less than the stride.)
	if eff := g.dil*(g.k-1) + 1; g.h+2*g.pad < eff || g.w+2*g.pad < eff {
		return false
	}
	rng := rand.New(rand.NewSource(seed))
	c := NewConv2D("dw", rng, g.c, g.c, g.k, ConvOpts{Stride: g.stride, Pad: g.pad, Dilation: g.dil, Groups: g.c})
	oh := convOutDim(g.h, g.k, g.stride, g.pad, g.dil)
	ow := convOutDim(g.w, g.k, g.stride, g.pad, g.dil)
	wantGW := make([]float64, c.weight.Grad.Size())
	// Two steps: the second rebuilds the plan over the first's arena
	// storage, so the zero borders and the gaps between strided gradient
	// positions must be cleared again, and the weight gradient, not cleared
	// between them, must accumulate.
	for step := 0; step < 2; step++ {
		x := sparseTensor(rng, g.n, g.c, g.h, g.w)
		grad := sparseTensor(rng, g.n, g.c, oh, ow)
		requireSameBits(t, "out", c.Forward(x).Data(), directForward(c, x).Data())
		requireSameBits(t, "gradX", c.Backward(grad).Data(), depthwiseBackward(c, x, grad, wantGW).Data())
		requireSameBits(t, "gradW", c.weight.Grad.Data(), wantGW)
	}
	return true
}

func TestDepthwiseKernelsBitIdentical(t *testing.T) {
	var cases []dwGeometry
	// Every depthwise layer the default supernet instantiates: sep_conv
	// (dilation 1) and dil_conv (dilation 2), k 3 and 5, at each cell's
	// resolution, stride 1 and the reduction cells' stride 2.
	for _, k := range []int{3, 5} {
		for _, dil := range []int{1, 2} {
			pad := dil * (k - 1) / 2
			for _, s := range []struct{ c, h, w, stride int }{
				{4, 8, 8, 1}, {8, 8, 8, 2}, {8, 4, 4, 1}, {16, 4, 4, 2}, {16, 2, 2, 1},
			} {
				cases = append(cases, dwGeometry{k, s.stride, dil, pad, 3, s.c, s.h, s.w})
			}
			// Odd and 1-wide planes; channel counts below four (spare lanes
			// repeating the last channel) and with an overlapping last group;
			// batches of one and of a few images.
			for _, s := range []struct{ n, c, h, w, stride int }{
				{3, 4, 5, 7, 1}, {3, 4, 7, 5, 2}, {3, 4, 1, 9, 1}, {3, 4, 9, 1, 1}, {3, 4, 1, 1, 1},
				{3, 6, 3, 3, 1}, {3, 5, 6, 6, 2}, {3, 9, 4, 3, 3},
				{1, 1, 5, 5, 1}, {5, 1, 4, 4, 2}, {1, 2, 3, 4, 1}, {3, 2, 4, 4, 1}, {1, 3, 5, 5, 2},
				{2, 3, 3, 3, 1}, {1, 5, 4, 4, 1}, {1, 6, 5, 3, 1}, {1, 7, 4, 4, 2}, {2, 7, 3, 3, 1},
				{7, 1, 2, 2, 1}, {1, 9, 3, 3, 1},
			} {
				cases = append(cases, dwGeometry{k, s.stride, dil, pad, s.n, s.c, s.h, s.w})
			}
		}
	}
	// Padding other than "same": none, and up to the kernel's reach.
	cases = append(cases,
		dwGeometry{3, 1, 1, 0, 3, 4, 6, 6}, dwGeometry{3, 2, 1, 2, 3, 4, 5, 5},
		dwGeometry{5, 1, 2, 8, 3, 4, 4, 4}, dwGeometry{2, 1, 1, 1, 3, 4, 4, 4},
		dwGeometry{3, 1, 1, 2, 1, 3, 3, 3},
	)
	for i, g := range cases {
		if !checkDepthwise(t, g, int64(100+i)) {
			t.Fatalf("case %+v has no output", g)
		}
	}
}

// TestDepthwiseDispatch pins that every depthwise layer runs the lane path,
// whatever its channel count and on every build, and that the
// configurations it cannot run are refused at construction. An infinite
// weight on tap (0,0) of every channel marks the lane path: it multiplies
// the weight by a padding zero (NaN) where a loop skipping the tap gives a
// finite value, at output (0,0) forward and at input (h-1,w-1) backward.
// (A one-channel layer is a dense conv, Groups 1.)
func TestDepthwiseDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n, h, w = 2, 5, 5
	for _, c := range []int{2, 3, 4, 5, 6, 8} {
		conv := NewConv2D("c", rng, c, c, 3, ConvOpts{Pad: 1, Groups: c})
		for ch := 0; ch < c; ch++ {
			conv.weight.Value.Data()[ch*9] = math.Inf(1)
		}
		out := conv.Forward(tensor.Randn(rng, 1, n, c, h, w))
		gx := conv.Backward(tensor.Randn(rng, 1, n, c, h, w))
		for b := 0; b < n; b++ {
			for ch := 0; ch < c; ch++ {
				plane := (b*c + ch) * h * w
				if fwd, bwd := out.Data()[plane], gx.Data()[plane+h*w-1]; !math.IsNaN(fwd) || !math.IsNaN(bwd) {
					t.Errorf("C=%d image %d channel %d: corners %v / %v, want the lane path's NaN", c, b, ch, fwd, bwd)
				}
			}
		}
	}

	for _, tc := range []struct {
		name  string
		build func()
	}{
		{"biased depthwise", func() { NewConv2D("c", rng, 8, 8, 3, ConvOpts{Pad: 1, Groups: 8, Bias: true}) }},
		{"grouped, not depthwise", func() { NewConv2D("c", rng, 8, 8, 3, ConvOpts{Pad: 1, Groups: 4}) }},
		{"channel multiplier", func() { NewConv2D("c", rng, 4, 8, 3, ConvOpts{Pad: 1, Groups: 4}) }},
		{"depthwise padding beyond the kernel", func() { NewConv2D("c", rng, 4, 4, 3, ConvOpts{Pad: 3, Groups: 4}) }},
		{"dilated depthwise padding beyond the kernel", func() {
			NewConv2D("c", rng, 4, 4, 3, ConvOpts{Pad: 5, Dilation: 2, Groups: 4})
		}},
		{"avg pool padding as wide as the kernel", func() { NewAvgPool2D(3, 1, 3) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: constructed, want a panic", tc.name)
				}
			}()
			tc.build()
		}()
	}
}

// TestDepthwiseNonFiniteWeightDiverges pins the one place the lane path and
// the naive loops are allowed to differ: the lane path multiplies the
// padding zeros by the weights, so an infinite weight turns every border
// output into Inf·0 = NaN where the naive loops skip the tap. Bit-identity
// with them is a statement about finite values only.
func TestDepthwiseNonFiniteWeightDiverges(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := NewConv2D("dw", rng, 4, 4, 3, ConvOpts{Pad: 1, Groups: 4})
	c.weight.Value.Data()[0] = math.Inf(1) // channel 0, tap (0,0)
	x := tensor.Full(1, 1, 4, 3, 3)
	out, ref := c.Forward(x).Data(), directForward(c, x).Data()
	// Output (0,0) of channel 0 has tap (0,0) in the padding.
	if got := out[0]; !math.IsNaN(got) {
		t.Errorf("lane path corner = %v, want NaN (Inf times a padding zero)", got)
	}
	if got := ref[0]; math.IsNaN(got) || math.IsInf(got, 0) {
		t.Errorf("naive loops corner = %v, want finite (the tap is skipped)", got)
	}
	// Where the tap lands inside the image both give +Inf, and the channels
	// with finite weights still agree on every bit.
	if f, r := out[8], ref[8]; !math.IsInf(f, 1) || !math.IsInf(r, 1) {
		t.Errorf("interior-tap output = %v / %v, want +Inf on both", f, r)
	}
	requireSameBits(t, "finite channels", out[9:], ref[9:])
}

// TestSubSampleStride1AnyRank: at stride 1 the layer is a copy and takes
// whatever shape it is given, in both directions.
func TestSubSampleStride1AnyRank(t *testing.T) {
	s := NewSubSample(1)
	x := tensor.FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	requireSameBits(t, "forward", s.Forward(x).Data(), x.Data())
	gx := s.Backward(x)
	if !gx.SameShape(x) {
		t.Fatalf("gradX shape %v, want %v", gx.Shape(), x.Shape())
	}
	requireSameBits(t, "backward", gx.Data(), x.Data())
}

func FuzzDepthwiseGeometry(f *testing.F) {
	f.Add(uint8(3), uint8(1), uint8(1), uint8(1), uint8(4), uint8(8), uint8(8), int64(1))
	f.Add(uint8(5), uint8(2), uint8(2), uint8(4), uint8(8), uint8(8), uint8(8), int64(2))
	f.Add(uint8(5), uint8(1), uint8(2), uint8(4), uint8(16), uint8(2), uint8(2), int64(3))
	f.Add(uint8(3), uint8(2), uint8(2), uint8(2), uint8(16), uint8(4), uint8(4), int64(4))
	f.Add(uint8(1), uint8(1), uint8(1), uint8(0), uint8(4), uint8(1), uint8(1), int64(5))
	f.Add(uint8(4), uint8(3), uint8(3), uint8(5), uint8(7), uint8(9), uint8(2), int64(6))
	f.Fuzz(func(t *testing.T, k, stride, dil, pad, c, h, w uint8, seed int64) {
		g := dwGeometry{
			k: 1 + int(k)%6, stride: 1 + int(stride)%3, dil: 1 + int(dil)%3,
			n: 3, c: 1 + int(c)%17, h: 1 + int(h)%10, w: 1 + int(w)%10,
		}
		g.pad = int(pad) % ((g.k-1)*g.dil + 1) // up to the kernel's reach, NewConv2D's limit
		checkDepthwise(t, g, seed)
	})
}

// bnMoments1 is the one-chain reference for bnMoments4: one channel's batch
// mean and biased variance over m = n*hw elements.
func bnMoments1(xd []float64, n, c, hw, ch int, m float64) (mean, variance float64) {
	sum := 0.0
	for b := 0; b < n; b++ {
		base := (b*c + ch) * hw
		for _, v := range xd[base : base+hw] {
			sum += v
		}
	}
	mean = sum / m
	sq := 0.0
	for b := 0; b < n; b++ {
		base := (b*c + ch) * hw
		for _, v := range xd[base : base+hw] {
			d := v - mean
			sq += d * d
		}
	}
	return mean, sq / m
}

// bnGradSums1 is the one-chain reference for bnGradSums4: one channel's Σdy
// and Σdy·x̂.
func bnGradSums1(gd, xh []float64, n, c, hw, ch int) (sumDy, sumDyXHat float64) {
	for b := 0; b < n; b++ {
		base := (b*c + ch) * hw
		xr := xh[base : base+hw]
		for i, dy := range gd[base : base+hw] {
			sumDy += dy
			sumDyXHat += dy * xr[i]
		}
	}
	return sumDy, sumDyXHat
}

func TestBatchNormLanesBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, s := range []struct{ n, c, h, w int }{
		{16, 4, 8, 8}, {16, 8, 4, 4}, {16, 16, 2, 2}, {3, 5, 3, 3}, {1, 7, 1, 5}, {2, 1, 2, 2},
		{8, 6, 8, 8}, {8, 10, 4, 4}, {2, 3, 2, 2},
	} {
		hw := s.h * s.w
		m := float64(s.n * hw)
		x, dy, xh := sparseTensor(rng, s.n, s.c, s.h, s.w), sparseTensor(rng, s.n, s.c, s.h, s.w), sparseTensor(rng, s.n, s.c, s.h, s.w)
		// Every group start, and with fewer than four channels the one
		// group, whose spare lanes repeat the last channel.
		for ch0 := 0; ch0 == 0 || ch0+bnLanes <= s.c; ch0++ {
			mean, variance := bnMoments4(x.Data(), s.n, s.c, hw, ch0, m)
			sumDy, sumDyXHat := bnGradSums4(dy.Data(), xh.Data(), s.n, s.c, hw, ch0)
			for j := 0; j < bnLanes; j++ {
				ch := min(ch0+j, s.c-1)
				wm, wv := bnMoments1(x.Data(), s.n, s.c, hw, ch, m)
				wd, wx := bnGradSums1(dy.Data(), xh.Data(), s.n, s.c, hw, ch)
				requireSameBits(t, "moments", []float64{mean[j], variance[j]}, []float64{wm, wv})
				requireSameBits(t, "grad sums", []float64{sumDy[j], sumDyXHat[j]}, []float64{wd, wx})
			}
		}

		// The whole layer against one single-channel layer per channel
		// (whose four lanes all carry that channel), in training mode and
		// then in evaluation mode.
		for _, training := range []bool{true, false} {
			bn := NewBatchNorm2D("bn", s.c)
			for i := range bn.runningMean {
				bn.runningMean[i], bn.runningVar[i] = rng.NormFloat64(), 0.5+rng.Float64()
				bn.gamma.Value.Data()[i], bn.beta.Value.Data()[i] = rng.NormFloat64(), rng.NormFloat64()
			}
			rm0, rv0 := append([]float64(nil), bn.runningMean...), append([]float64(nil), bn.runningVar...)
			bn.SetTraining(training)
			out := bn.Forward(x)
			gx := bn.Backward(dy)
			for ch := 0; ch < s.c; ch++ {
				one := NewBatchNorm2D("one", 1)
				one.runningMean[0], one.runningVar[0] = rm0[ch], rv0[ch]
				one.gamma.Value.Data()[0], one.beta.Value.Data()[0] = bn.gamma.Value.Data()[ch], bn.beta.Value.Data()[ch]
				one.SetTraining(training)
				xc, dyc := tensor.New(s.n, 1, s.h, s.w), tensor.New(s.n, 1, s.h, s.w)
				for b := 0; b < s.n; b++ {
					copy(xc.Data()[b*hw:(b+1)*hw], x.Data()[(b*s.c+ch)*hw:])
					copy(dyc.Data()[b*hw:(b+1)*hw], dy.Data()[(b*s.c+ch)*hw:])
				}
				outC := one.Forward(xc)
				gxC := one.Backward(dyc)
				for b := 0; b < s.n; b++ {
					requireSameBits(t, "bn out", out.Data()[(b*s.c+ch)*hw:(b*s.c+ch+1)*hw], outC.Data()[b*hw:(b+1)*hw])
					requireSameBits(t, "bn gradX", gx.Data()[(b*s.c+ch)*hw:(b*s.c+ch+1)*hw], gxC.Data()[b*hw:(b+1)*hw])
				}
				requireSameBits(t, "bn running stats",
					[]float64{bn.runningMean[ch], bn.runningVar[ch]}, []float64{one.runningMean[0], one.runningVar[0]})
				requireSameBits(t, "bn param grads",
					[]float64{bn.gamma.Grad.Data()[ch], bn.beta.Grad.Data()[ch]},
					[]float64{one.gamma.Grad.Data()[0], one.beta.Grad.Data()[0]})
			}
		}
	}
}

// poolInputs are planes that stress first-max ties and skipped values:
// constant, few distinct values, ReLU-sparse with signed zeros, and with NaN
// and ±Inf entries.
func poolInputs(rng *rand.Rand, n, c, h, w int) []*tensor.Tensor {
	constant := tensor.Full(-5, n, c, h, w)
	ties := tensor.New(n, c, h, w)
	for i := range ties.Data() {
		ties.Data()[i] = float64(rng.Intn(3))
	}
	special := sparseTensor(rng, n, c, h, w)
	for i := range special.Data() {
		switch rng.Intn(12) {
		case 0:
			special.Data()[i] = math.NaN()
		case 1:
			special.Data()[i] = math.Inf(-1)
		case 2:
			special.Data()[i] = math.Inf(1)
		}
	}
	allNaN := tensor.Full(math.NaN(), n, c, h, w)
	return []*tensor.Tensor{constant, ties, sparseTensor(rng, n, c, h, w), tensor.Randn(rng, 1, n, c, h, w), special, allNaN}
}

// poolGeometries include N·C below four (spare lanes repeating the last
// plane) and above four but not a multiple of it (an overlapping last group).
var poolGeometries = []struct{ n, c, h, w, stride, pad int }{
	{2, 4, 8, 8, 1, 1}, {2, 8, 8, 8, 2, 1}, {2, 8, 4, 4, 1, 1}, {2, 16, 4, 4, 2, 1}, {2, 16, 2, 2, 1, 1},
	{2, 2, 5, 7, 1, 1}, {2, 2, 7, 5, 2, 1}, {2, 2, 1, 9, 1, 1}, {2, 2, 9, 1, 1, 1}, {2, 1, 1, 1, 1, 1},
	{2, 2, 6, 6, 1, 0}, {2, 2, 7, 7, 2, 0}, {2, 2, 3, 3, 1, 2}, {2, 2, 5, 5, 3, 2},
	{1, 1, 4, 4, 1, 1}, {1, 2, 3, 5, 2, 1}, {1, 3, 5, 5, 1, 1}, {5, 1, 4, 4, 2, 1},
	{3, 2, 4, 4, 1, 1}, {1, 7, 3, 3, 1, 0}, {7, 1, 6, 6, 2, 1}, {1, 6, 8, 8, 1, 1},
	{2, 1, 2, 2, 4, 1}, // some windows lie entirely in the padding
	{2, 1, 3, 4, 1, 3}, // so do whole rows and columns of windows
}

// maxPoolReference scans each output's window with its in-bounds kernel
// range clamped, in (ky,kx) order. First-max semantics: the strict > keeps
// the earliest maximum and never selects a NaN; a window with nothing above
// -Inf gives 0 at -1.
func maxPoolReference(x *tensor.Tensor, k, stride, pad int) (*tensor.Tensor, []int) {
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	oh, ow := convOutDim(h, k, stride, pad, 1), convOutDim(w, k, stride, pad, 1)
	out := tensor.New(n, c, oh, ow)
	argmax := make([]int, out.Size())
	xd, od := x.Data(), out.Data()
	for pl := 0; pl < n*c; pl++ {
		base := pl * h * w
		for oy := 0; oy < oh; oy++ {
			iy0 := oy*stride - pad
			ky0, ky1 := clampWindow(iy0, k, h)
			for ox := 0; ox < ow; ox++ {
				ix0 := ox*stride - pad
				kx0, kx1 := clampWindow(ix0, k, w)
				best, bestI := math.Inf(-1), -1
				for ky := ky0; ky <= ky1; ky++ {
					row := base + (iy0+ky)*w + ix0
					for kx := kx0; kx <= kx1; kx++ {
						if v := xd[row+kx]; v > best {
							best, bestI = v, row+kx
						}
					}
				}
				oi := (pl*oh+oy)*ow + ox
				if bestI < 0 {
					best = 0
				}
				od[oi], argmax[oi] = best, bestI
			}
		}
	}
	return out, argmax
}

// clampWindow returns the inclusive kernel-offset range [k0, k1] for which
// i0+k stays inside [0, limit); k1 < k0 when the window misses entirely.
func clampWindow(i0, k, limit int) (k0, k1 int) {
	k0, k1 = 0, k-1
	if i0 < 0 {
		k0 = -i0
	}
	if i0+k1 >= limit {
		k1 = limit - 1 - i0
	}
	return k0, k1
}

func TestMaxPool3x3BitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, g := range poolGeometries {
		if convOutDim(g.h, 3, g.stride, g.pad, 1) < 1 || convOutDim(g.w, 3, g.stride, g.pad, 1) < 1 {
			t.Fatalf("geometry %+v has no output", g)
		}
		for _, x := range poolInputs(rng, g.n, g.c, g.h, g.w) {
			want, wantAt := maxPoolReference(x, 3, g.stride, g.pad)
			p := NewMaxPool2D(3, g.stride, g.pad)
			requireSameBits(t, "max pool out", p.Forward(x).Data(), want.Data())
			for i, at := range wantAt {
				if p.argmaxI[i] != at {
					t.Fatalf("geometry %+v: argmax[%d] = %d, want %d", g, i, p.argmaxI[i], at)
				}
			}
		}
	}
}

// nanAdd is acc + v with the payload rule of one operand order made
// explicit: where both are NaN, IEEE 754 leaves the result's payload open
// and x86 returns its first operand's. The normal build compiles acc += v
// with acc first (accFirst), and the assembly follows that order; the race
// detector's instrumentation may commute the compiled Go adds, so under it a
// reference is also computed the other way round.
func nanAdd(acc, v float64, accFirst bool) float64 {
	switch {
	case accFirst && math.IsNaN(acc):
		return acc
	case !accFirst && math.IsNaN(v):
		return v + 0 // quieted, as the add would
	}
	return acc + v
}

// requireAddOrderBits is requireSameBits against accFirst, the reference in
// the normal build's operand order. Only under the race detector does it
// also accept valFirst, which differs where two NaNs meet.
func requireAddOrderBits(t *testing.T, what string, got, accFirst, valFirst []float64) {
	t.Helper()
	if !raceEnabled {
		requireSameBits(t, what, got, accFirst)
		return
	}
	for i := range got {
		g := math.Float64bits(got[i])
		if g != math.Float64bits(accFirst[i]) && g != math.Float64bits(valFirst[i]) {
			t.Fatalf("%s[%d] = %v (%#x), want %v (%#x)", what, i, got[i], g, accFirst[i], math.Float64bits(accFirst[i]))
		}
	}
}

// avgPoolReference is the clamped-window average pool: per output, the
// in-bounds taps in (ky,kx) order.
func avgPoolReference(x *tensor.Tensor, k, stride, pad int, accFirst bool) *tensor.Tensor {
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	oh, ow := convOutDim(h, k, stride, pad, 1), convOutDim(w, k, stride, pad, 1)
	out := tensor.New(n, c, oh, ow)
	inv := 1.0 / float64(k*k)
	for pl := 0; pl < n*c; pl++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				acc := 0.0
				for ky := 0; ky < k; ky++ {
					for kx := 0; kx < k; kx++ {
						iy, ix := oy*stride-pad+ky, ox*stride-pad+kx
						if iy >= 0 && iy < h && ix >= 0 && ix < w {
							acc = nanAdd(acc, x.Data()[(pl*h+iy)*w+ix], accFirst)
						}
					}
				}
				out.Data()[(pl*oh+oy)*ow+ox] = acc * inv
			}
		}
	}
	return out
}

// avgPoolGradReference scatters each output's share in (oy,ox,ky,kx) order.
func avgPoolGradReference(grad *tensor.Tensor, h, w, k, stride, pad int, accFirst bool) *tensor.Tensor {
	n, c, oh, ow := grad.Dim(0), grad.Dim(1), grad.Dim(2), grad.Dim(3)
	gx := tensor.New(n, c, h, w)
	inv := 1.0 / float64(k*k)
	for pl := 0; pl < n*c; pl++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				gv := grad.Data()[(pl*oh+oy)*ow+ox] * inv
				for ky := 0; ky < k; ky++ {
					for kx := 0; kx < k; kx++ {
						iy, ix := oy*stride-pad+ky, ox*stride-pad+kx
						if iy >= 0 && iy < h && ix >= 0 && ix < w {
							at := (pl*h+iy)*w + ix
							gx.Data()[at] = nanAdd(gx.Data()[at], gv, accFirst)
						}
					}
				}
			}
		}
	}
	return gx
}

func TestAvgPoolBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, k := range []int{3, 2} {
		for _, g := range poolGeometries {
			if g.pad >= k || convOutDim(g.h, k, g.stride, g.pad, 1) < 1 || convOutDim(g.w, k, g.stride, g.pad, 1) < 1 {
				continue // NewAvgPool2D refuses pad ≥ k
			}
			for _, x := range poolInputs(rng, g.n, g.c, g.h, g.w) {
				want := avgPoolReference(x, k, g.stride, g.pad, true).Data()
				wantV := avgPoolReference(x, k, g.stride, g.pad, false).Data()
				p := NewAvgPool2D(k, g.stride, g.pad)
				out := p.Forward(x)
				requireAddOrderBits(t, "avg pool out", out.Data(), want, wantV)
				grad := sparseTensor(rng, out.Shape()...)
				wantGX := avgPoolGradReference(grad, g.h, g.w, k, g.stride, g.pad, true).Data()
				wantGXV := avgPoolGradReference(grad, g.h, g.w, k, g.stride, g.pad, false).Data()
				requireAddOrderBits(t, "avg pool gradX", p.Backward(grad).Data(), wantGX, wantGXV)
			}
		}
	}
}

func TestReLUBranchFreeBits(t *testing.T) {
	negZero := math.Copysign(0, -1)
	sub := math.SmallestNonzeroFloat64
	negNaN := math.Float64frombits(0xFFF8000000000001)
	in := []float64{math.NaN(), negNaN, negZero, 0, sub, -sub, 1.5, -1.5, math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64}
	want := []float64{0, 0, 0, 0, sub, 0, 1.5, 0, math.Inf(1), 0, math.MaxFloat64, 0}
	mask := []float64{0, 0, 0, 0, 1, 0, 1, 0, 1, 0, 1, 0}
	r := NewReLU()
	out := r.Forward(tensor.FromSlice(in, len(in)))
	requireSameBits(t, "ReLU out", out.Data(), want) // +0 everywhere a zero is due: ReLU(NaN) = ReLU(-0) = +0
	// Backward reads the mask off that output: a gradient of ones comes back
	// as the mask itself, +0 where the input was not positive.
	ones := tensor.Full(1, len(in))
	requireSameBits(t, "ReLU mask", r.Backward(ones).Data(), mask)

	// Against the compare-and-branch loop on activations-like data, forward
	// and backward.
	rng := rand.New(rand.NewSource(19))
	x := sparseTensor(rng, 16, 4, 8, 8)
	g := tensor.Randn(rng, 1, 16, 4, 8, 8)
	out = r.Forward(x)
	gx := r.Backward(g)
	for i, v := range x.Data() {
		wantV, wantM := 0.0, 0.0
		if v > 0 {
			wantV, wantM = v, 1
		}
		wantG := g.Data()[i] * wantM
		if math.Float64bits(out.Data()[i]) != math.Float64bits(wantV) || math.Float64bits(gx.Data()[i]) != math.Float64bits(wantG) {
			t.Fatalf("ReLU(%v) = %v grad %v, want %v grad %v", v, out.Data()[i], gx.Data()[i], wantV, wantG)
		}
	}
}

// TestConvBackwardReusesLoweringSafely drives Forward→Backward twice with a
// changed input (and a changed shape) on one layer and requires the bits a
// fresh layer gives: the column matrix the backward pass reuses must always
// be the one its own forward wrote.
func TestConvBackwardReusesLoweringSafely(t *testing.T) {
	for _, tc := range []struct {
		name string
		k    int
		o    ConvOpts
	}{
		{"3x3", 3, ConvOpts{Pad: 1, Bias: true}},
		{"pointwise", 1, ConvOpts{}},
		{"1x1 stride 2", 1, ConvOpts{Stride: 2}},
	} {
		rng := rand.New(rand.NewSource(5))
		c := NewConv2D("c", rng, 4, 6, tc.k, tc.o)
		step := func(layer *Conv2D, x, grad *tensor.Tensor) (out, gx, gw []float64) {
			ZeroGrads(layer.Params())
			o := layer.Forward(x)
			g := layer.Backward(grad)
			return append([]float64(nil), o.Data()...), append([]float64(nil), g.Data()...),
				append([]float64(nil), layer.weight.Grad.Data()...)
		}
		fresh := func() *Conv2D {
			f := NewConv2D("f", rand.New(rand.NewSource(99)), 4, 6, tc.k, tc.o)
			f.weight.Value.CopyFrom(c.weight.Value)
			if c.bias != nil {
				f.bias.Value.CopyFrom(c.bias.Value)
			}
			return f
		}
		inputs := []*tensor.Tensor{
			tensor.Randn(rng, 1, 3, 4, 8, 8), tensor.Randn(rng, 1, 3, 4, 8, 8),
			tensor.Randn(rng, 1, 2, 4, 4, 4), tensor.Randn(rng, 1, 3, 4, 8, 8),
		}
		for _, x := range inputs {
			grad := tensor.Randn(rng, 1, fresh().Forward(x).Shape()...)
			out, gx, gw := step(c, x, grad)
			wout, wgx, wgw := step(fresh(), x, grad)
			requireSameBits(t, tc.name+" out", out, wout)
			requireSameBits(t, tc.name+" gradX", gx, wgx)
			requireSameBits(t, tc.name+" gradW", gw, wgw)
		}
	}
}

// TestPointwiseConvBothRoutes compares a pointwise convolution with the
// plain ascending-channel sums on plane sizes that tensor.GemmRawBatched
// takes in place (whole column tiles) and ones it declines (2×2, 3×3), so
// the in-place products and the column-matrix route are each held to the
// same bits whichever the host's kernel picks.
func TestPointwiseConvBothRoutes(t *testing.T) {
	const n, inC, outC = 3, 5, 6
	for _, hw := range [][2]int{{8, 8}, {4, 4}, {2, 2}, {3, 3}, {1, 8}} {
		for _, bias := range []bool{false, true} {
			rng := rand.New(rand.NewSource(11))
			c := NewConv2D("pw", rng, inC, outC, 1, ConvOpts{Bias: bias})
			cols := hw[0] * hw[1]
			x := sparseTensor(rng, n, inC, hw[0], hw[1])
			grad := sparseTensor(rng, n, outC, hw[0], hw[1])
			out := c.Forward(x)
			gx := c.Backward(grad)

			wd, xd, gd := c.weight.Value.Data(), x.Data(), grad.Data()
			wantOut, wantGX := make([]float64, n*outC*cols), make([]float64, n*inC*cols)
			for b := 0; b < n; b++ {
				for j := 0; j < cols; j++ {
					for oc := 0; oc < outC; oc++ {
						acc := 0.0
						for ic := 0; ic < inC; ic++ {
							acc += wd[oc*inC+ic] * xd[(b*inC+ic)*cols+j]
						}
						if bias {
							acc += c.bias.Value.Data()[oc]
						}
						wantOut[(b*outC+oc)*cols+j] = acc
					}
					for ic := 0; ic < inC; ic++ {
						acc := 0.0
						for oc := 0; oc < outC; oc++ {
							acc += wd[oc*inC+ic] * gd[(b*outC+oc)*cols+j]
						}
						wantGX[(b*inC+ic)*cols+j] = acc
					}
				}
			}
			requireSameBits(t, "out", out.Data(), wantOut)
			requireSameBits(t, "gradX", gx.Data(), wantGX)
		}
	}
}

// TestBackwardParamsMatchesBackward pins that skipping the first layer's
// input gradient leaves every parameter gradient bit-identical.
func TestBackwardParamsMatchesBackward(t *testing.T) {
	build := func() *Sequential {
		rng := rand.New(rand.NewSource(3))
		return NewSequential(
			NewConv2D("stem.conv", rng, 3, 4, 3, ConvOpts{Pad: 1, Bias: true}),
			NewBatchNorm2D("stem.bn", 4),
		)
	}
	rng := rand.New(rand.NewSource(4))
	x := tensor.Randn(rng, 1, 16, 3, 8, 8)
	grad := tensor.Randn(rng, 1, 16, 4, 8, 8)
	full, params := build(), build()
	full.Forward(x)
	full.Backward(grad)
	params.Forward(x)
	BackwardParams(params, grad)
	for i, p := range full.Params() {
		requireSameBits(t, p.Name, params.Params()[i].Grad.Data(), p.Grad.Data())
	}
	// A module that is not a conv-first chain takes its ordinary Backward.
	r := NewReLU()
	r.Forward(tensor.Full(1, 2, 2))
	BackwardParams(r, tensor.Full(1, 2, 2))
}

// TestVaryingBatchReusesStorage feeds every layer batches of varying size, as
// a cohort of unequal shards or a serving queue does. Once the largest batch
// has been seen, a step must fit in the storage the layer's arena already
// holds (a fresh tensor per call is 20 MB of cleared memory a round on the
// softsync workload) and allocate nothing, and what a layer computes over
// that dirty storage must equal a fresh layer's result bit for bit.
func TestVaryingBatchReusesStorage(t *testing.T) {
	for _, tc := range []struct {
		name string
		c    int
		mk   func(rng *rand.Rand) Module
	}{
		{"conv 3x3", 4, func(rng *rand.Rand) Module { return NewConv2D("c", rng, 4, 8, 3, ConvOpts{Pad: 1, Bias: true}) }},
		{"conv 1x1", 8, func(rng *rand.Rand) Module { return NewConv2D("pw", rng, 8, 8, 1, ConvOpts{}) }},
		{"depthwise 3x3", 8, func(rng *rand.Rand) Module { return NewConv2D("dw", rng, 8, 8, 3, ConvOpts{Pad: 1, Groups: 8}) }},
		{"depthwise 5x5 dilated stride 2", 8, func(rng *rand.Rand) Module {
			return NewConv2D("dw", rng, 8, 8, 5, ConvOpts{Stride: 2, Pad: 4, Dilation: 2, Groups: 8})
		}},
		{"batch norm", 8, func(*rand.Rand) Module { return NewBatchNorm2D("bn", 8) }},
		{"max pool", 8, func(*rand.Rand) Module { return NewMaxPool2D(3, 1, 1) }},
		{"avg pool stride 2", 8, func(*rand.Rand) Module { return NewAvgPool2D(3, 2, 1) }},
		{"global avg pool", 8, func(*rand.Rand) Module { return NewGlobalAvgPool() }},
		{"zero stride 2", 8, func(*rand.Rand) Module { return NewZero(2) }},
		{"subsample stride 2", 8, func(*rand.Rand) Module { return NewSubSample(2) }},
		{"identity", 8, func(*rand.Rand) Module { return NewIdentity() }},
		{"relu", 8, func(*rand.Rand) Module { return NewReLU() }},
	} {
		rng := rand.New(rand.NewSource(11))
		m := tc.mk(rand.New(rand.NewSource(5)))
		for _, n := range []int{16, 7, 12, 1, 16, 3} {
			x := sparseTensor(rng, n, tc.c, 8, 8)
			out := m.Forward(x)
			grad := tensor.Randn(rng, 1, out.Shape()...)
			ZeroGrads(m.Params())
			gx := m.Backward(grad)

			fresh := tc.mk(rand.New(rand.NewSource(5)))
			wantOut := fresh.Forward(x)
			requireSameBits(t, tc.name+" out", out.Data(), wantOut.Data())
			requireSameBits(t, tc.name+" gradX", gx.Data(), fresh.Backward(grad).Data())
			for j, p := range fresh.Params() {
				requireSameBits(t, tc.name+" "+p.Name, m.Params()[j].Grad.Data(), p.Grad.Data())
			}
			if !out.ShapeIs(wantOut.Shape()...) || !gx.SameShape(x) {
				t.Fatalf("%s: batch %d gave shapes %v / %v", tc.name, n, out.Shape(), gx.Shape())
			}
		}
		if raceEnabled {
			continue // sync.Pool-backed GEMM scratch re-allocates at random
		}
		xs := []*tensor.Tensor{sparseTensor(rng, 5, tc.c, 8, 8), sparseTensor(rng, 16, tc.c, 8, 8), sparseTensor(rng, 2, tc.c, 8, 8)}
		grads := make([]*tensor.Tensor, len(xs))
		for i, x := range xs {
			grads[i] = tensor.Randn(rng, 1, tc.mk(rng).Forward(x).Shape()...)
		}
		i := 0
		if allocs := testing.AllocsPerRun(9, func() {
			m.Forward(xs[i%3])
			m.Backward(grads[i%3])
			i++
		}); allocs != 0 {
			t.Errorf("%s: a batch no larger than one already seen allocates %.0f objects", tc.name, allocs)
		}
	}
}

// TestPointwiseWeightGradLanes requires a pointwise layer's weight gradient
// to carry the bits of the lowered-batch GEMM's chain — per element one
// accumulator from +0 over (image, pixel) in ascending order, added into the
// gradient once — whether it comes from the lane kernel (8×8 and 4×4 planes,
// which the forward's batched GEMM takes) or from that GEMM (2×2, which
// lowers). Channel counts that are not multiples of four overlap their last
// lane group on either axis or both, and must add each element once.
func TestPointwiseWeightGradLanes(t *testing.T) {
	const n = 5
	for _, ch := range [][2]int{{4, 4}, {8, 4}, {4, 8}, {8, 16}, {6, 6}, {5, 7}, {6, 12}, {12, 6}, {18, 6}} {
		for _, hw := range [][2]int{{8, 8}, {4, 4}, {2, 2}} {
			inC, outC, cols := ch[0], ch[1], hw[0]*hw[1]
			rng := rand.New(rand.NewSource(3))
			c := NewConv2D("pw", rng, inC, outC, 1, ConvOpts{})
			x := sparseTensor(rng, n, inC, hw[0], hw[1])
			grad := sparseTensor(rng, n, outC, hw[0], hw[1])
			prior := sparseTensor(rng, outC, inC, 1, 1)
			c.weight.Grad.CopyFrom(prior) // the gradient accumulates
			c.Forward(x)
			c.Backward(grad)
			want := prior.Data()
			xd, gd := x.Data(), grad.Data()
			for oc := 0; oc < outC; oc++ {
				for ic := 0; ic < inC; ic++ {
					acc := 0.0
					for b := 0; b < n; b++ {
						for j := 0; j < cols; j++ {
							acc += gd[(b*outC+oc)*cols+j] * xd[(b*inC+ic)*cols+j]
						}
					}
					want[oc*inC+ic] += acc
				}
			}
			requireSameBits(t, "pointwise weight gradient", c.weight.Grad.Data(), want)
		}
	}
}
