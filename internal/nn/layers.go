package nn

import (
	"fmt"
	"math"
	"math/rand"

	"fedrlnas/internal/tensor"
)

// ReLU is the rectified-linear activation. Backward reads its mask off the
// output it returned (out > 0 exactly where x > 0), so nothing may write into
// that output before Backward runs. Containers that add into a child's
// output (Residual.Forward, nas.Cell's node sums) may do so only where that
// child does not end in a ReLU; today every such child ends in batch norm or
// is a pool, an Identity copy, a SubSample or a Zero.
type ReLU struct {
	arenaRef
	outBuf, gradXBuf tensor.Tensor
}

var _ Module = (*ReLU)(nil)

// NewReLU constructs a ReLU activation.
func NewReLU() *ReLU { return &ReLU{} }

// Params implements Module.
func (r *ReLU) Params() []*Param { return nil }

// Forward implements Module: ReLU(x) = x where x > 0, else +0 — NaN and -0
// included (tensor.ReLU).
func (r *ReLU) Forward(x *tensor.Tensor) *tensor.Tensor {
	out := r.stepArena().TakeLike(&r.outBuf, x)
	tensor.ReLU(out.Data(), x.Data())
	return out
}

// Backward implements Module.
func (r *ReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	gradX := r.ar.TakeLike(&r.gradXBuf, grad)
	tensor.ReLUGrad(gradX.Data(), grad.Data(), r.outBuf.Data())
	return gradX
}

func (r *ReLU) backwardAdd(grad, dst *tensor.Tensor) {
	tensor.ReLUGradAdd(dst.Data(), grad.Data(), r.outBuf.Data())
}

// Identity passes its input through unchanged (the "skip connect" op). It
// returns a copy, not an alias: callers (cell nodes) accumulate into op
// outputs in place, so aliasing the input would corrupt upstream buffers.
// Added at its producer (ForwardAdd, BackwardAdd) it needs no copy.
type Identity struct {
	arenaRef
	outBuf, gradXBuf tensor.Tensor
}

var _ Module = (*Identity)(nil)

// NewIdentity constructs an identity module.
func NewIdentity() *Identity { return &Identity{} }

// Params implements Module.
func (id *Identity) Params() []*Param { return nil }

// Forward implements Module.
func (id *Identity) Forward(x *tensor.Tensor) *tensor.Tensor {
	out := id.stepArena().TakeLike(&id.outBuf, x)
	out.CopyFrom(x)
	return out
}

// Backward implements Module.
func (id *Identity) Backward(grad *tensor.Tensor) *tensor.Tensor {
	gradX := id.ar.TakeLike(&id.gradXBuf, grad)
	gradX.CopyFrom(grad)
	return gradX
}

func (id *Identity) forwardAdd(x, dst *tensor.Tensor) { dst.AddInPlace(x) }

func (id *Identity) backwardAdd(grad, dst *tensor.Tensor) { dst.AddInPlace(grad) }

// Zero is the "none" op: it outputs zeros (optionally spatially strided),
// cutting the edge from the computation graph.
type Zero struct {
	Stride int

	arenaRef
	lastShape [4]int

	outBuf, gradXBuf tensor.Tensor
}

var _ Module = (*Zero)(nil)

// NewZero constructs a zero op with the given spatial stride.
func NewZero(stride int) *Zero { return &Zero{Stride: stride} }

// Params implements Module.
func (z *Zero) Params() []*Param { return nil }

// Forward implements Module.
func (z *Zero) Forward(x *tensor.Tensor) *tensor.Tensor {
	n, c, h, w := mustDims4(x, "Zero")
	z.lastShape = [4]int{n, c, h, w}
	oh, ow := h, w
	if z.Stride != 1 {
		oh = (h + z.Stride - 1) / z.Stride
		ow = (w + z.Stride - 1) / z.Stride
	}
	out := z.stepArena().Take(&z.outBuf, n, c, oh, ow)
	out.Zero() // callers accumulate into returned buffers in place
	return out
}

// Backward implements Module.
func (z *Zero) Backward(grad *tensor.Tensor) *tensor.Tensor {
	gradX := z.ar.Take(&z.gradXBuf, z.lastShape[:]...)
	gradX.Zero()
	return gradX
}

// Linear is a fully connected layer: y = x Wᵀ + b with x of shape [N, in].
type Linear struct {
	In, Out int

	weight *Param
	bias   *Param
	params []*Param

	arenaRef
	lastX *tensor.Tensor

	outBuf, gradXBuf tensor.Tensor
}

var _ Module = (*Linear)(nil)

// NewLinear constructs a fully connected layer with bias.
func NewLinear(name string, rng *rand.Rand, in, out int) *Linear {
	return &Linear{
		In: in, Out: out,
		weight: NewParam(name+".weight", tensor.KaimingLinear(rng, out, in)),
		bias:   NewParam(name+".bias", tensor.New(out)),
	}
}

// Params implements Module. The returned slice is cached and must not be
// mutated.
func (l *Linear) Params() []*Param {
	if l.params == nil {
		l.params = []*Param{l.weight, l.bias}
	}
	return l.params
}

// Forward implements Module.
func (l *Linear) Forward(x *tensor.Tensor) *tensor.Tensor {
	if x.Dims() != 2 || x.Dim(1) != l.In {
		panic(fmt.Sprintf("nn: Linear expects [N,%d], got %v", l.In, x.Shape()))
	}
	l.lastX = x
	n := x.Dim(0)
	out := l.stepArena().Take(&l.outBuf, n, l.Out)
	// out [N, Out] = x [N, In] · Wᵀ [In, Out], then broadcast the bias.
	tensor.GemmRaw(false, true, n, l.Out, l.In, 1,
		x.Data(), l.In, l.weight.Value.Data(), l.In, 0, out.Data(), l.Out)
	bd, od := l.bias.Value.Data(), out.Data()
	for b := 0; b < n; b++ {
		row := od[b*l.Out : (b+1)*l.Out]
		for o, bv := range bd {
			row[o] += bv
		}
	}
	return out
}

// Backward implements Module.
func (l *Linear) Backward(grad *tensor.Tensor) *tensor.Tensor {
	n := grad.Dim(0)
	gradX := l.ar.Take(&l.gradXBuf, n, l.In)
	gd, gbd := grad.Data(), l.bias.Grad.Data()
	for b := 0; b < n; b++ {
		row := gd[b*l.Out : (b+1)*l.Out]
		for o, gv := range row {
			gbd[o] += gv
		}
	}
	// gradW [Out, In] += gradᵀ [Out, N] · x [N, In]
	tensor.GemmRaw(true, false, l.Out, l.In, n, 1,
		gd, l.Out, l.lastX.Data(), l.In, 1, l.weight.Grad.Data(), l.In)
	// gradX [N, In] = grad [N, Out] · W [Out, In]
	tensor.GemmRaw(false, false, n, l.In, l.Out, 1,
		gd, l.Out, l.weight.Value.Data(), l.In, 0, gradX.Data(), l.In)
	return gradX
}

// BatchNorm2D normalizes each channel over the batch and spatial dimensions,
// with learnable scale (gamma) and shift (beta) and running statistics for
// evaluation mode.
type BatchNorm2D struct {
	C        int
	Eps      float64
	Momentum float64 // running-stat update rate

	gamma, beta *Param
	params      []*Param

	runningMean []float64
	runningVar  []float64
	training    bool

	// capture mode: training forwards log their batch statistics instead
	// of EMA-updating the running stats (see bnstats.go). statsFree is a
	// freelist of consumed records whose Mean/Var storage capture reuses.
	capture   bool
	captured  []BNStats
	statsFree []BNStats

	// cached for backward: x̂ in xHatBuf and the per-channel std
	arenaRef
	lastStd []float64

	outBuf, xHatBuf, gradXBuf tensor.Tensor
}

var (
	_ Module       = (*BatchNorm2D)(nil)
	_ TrainToggler = (*BatchNorm2D)(nil)
)

// NewBatchNorm2D constructs batch normalization over c channels.
func NewBatchNorm2D(name string, c int) *BatchNorm2D {
	bn := &BatchNorm2D{
		C: c, Eps: 1e-5, Momentum: 0.1,
		gamma:       NewParam(name+".gamma", tensor.Full(1, c)),
		beta:        NewParam(name+".beta", tensor.New(c)),
		runningMean: make([]float64, c),
		runningVar:  make([]float64, c),
		training:    true,
	}
	for i := range bn.runningVar {
		bn.runningVar[i] = 1
	}
	return bn
}

// SetTraining implements TrainToggler.
func (bn *BatchNorm2D) SetTraining(training bool) { bn.training = training }

// Params implements Module. The returned slice is cached and must not be
// mutated.
func (bn *BatchNorm2D) Params() []*Param {
	if bn.params == nil {
		bn.params = []*Param{bn.gamma, bn.beta}
	}
	return bn.params
}

// Forward implements Module.
func (bn *BatchNorm2D) Forward(x *tensor.Tensor) *tensor.Tensor {
	n, c, h, w := mustDims4(x, "BatchNorm2D")
	ar := bn.stepArena()
	out := ar.Take(&bn.outBuf, n, c, h, w)
	bn.forward(ar, x, out, false)
	return out
}

// forwardAdd adds the layer's output into dst instead of returning it.
func (bn *BatchNorm2D) forwardAdd(x, dst *tensor.Tensor) {
	ar := bn.stepArena()
	if !dst.SameShape(x) {
		panic(fmt.Sprintf("nn: BatchNorm2D adds %v into %v", x.Shape(), dst.Shape()))
	}
	bn.forward(ar, x, dst, true)
}

// forward normalises x into out (add: adds into out), caching x̂ and the
// per-channel std for Backward.
func (bn *BatchNorm2D) forward(ar *tensor.Arena, x, out *tensor.Tensor, add bool) {
	n, c, h, w := mustDims4(x, "BatchNorm2D")
	if c != bn.C {
		panic(fmt.Sprintf("nn: BatchNorm2D got %d channels, want %d", c, bn.C))
	}
	xhat := ar.Take(&bn.xHatBuf, n, c, h, w)
	bn.lastStd = ar.Floats(c)

	m := float64(n * h * w)
	xd, od, xh := x.Data(), out.Data(), xhat.Data()
	gd, bd := bn.gamma.Value.Data(), bn.beta.Value.Data()
	var capStats BNStats
	if bn.training && bn.capture {
		if n := len(bn.statsFree); n > 0 {
			capStats = bn.statsFree[n-1]
			bn.statsFree = bn.statsFree[:n-1]
		} else {
			capStats = BNStats{Mean: make([]float64, c), Var: make([]float64, c)}
		}
	}
	hw := h * w
	for g := 0; g < c; g += bnLanes {
		ch0, skip := laneGroup(g, c)
		lanes := min(bnLanes, c-ch0)
		var mean, variance [bnLanes]float64
		if bn.training {
			mean, variance = bnMoments4(xd, n, c, hw, ch0, m)
		} else {
			copy(mean[:lanes], bn.runningMean[ch0:])
			copy(variance[:lanes], bn.runningVar[ch0:])
		}
		for j := skip; j < lanes; j++ {
			ch := ch0 + j
			if bn.training {
				if capStats.Mean != nil {
					capStats.Mean[ch], capStats.Var[ch] = mean[j], variance[j]
				} else {
					bn.runningMean[ch] = (1-bn.Momentum)*bn.runningMean[ch] + bn.Momentum*mean[j]
					bn.runningVar[ch] = (1-bn.Momentum)*bn.runningVar[ch] + bn.Momentum*variance[j]
				}
			}
			std := math.Sqrt(variance[j] + bn.Eps)
			bn.lastStd[ch] = std
			// The channel's n planes, c·hw apart.
			at := ch * hw
			if add {
				tensor.BNNormalizeAdd(od[at:], xh[at:], xd[at:], n, hw, c*hw, mean[j], 1/std, gd[ch], bd[ch])
			} else {
				tensor.BNNormalize(od[at:], xh[at:], xd[at:], n, hw, c*hw, mean[j], 1/std, gd[ch], bd[ch])
			}
		}
	}
	if capStats.Mean != nil {
		bn.captured = append(bn.captured, capStats)
	}
}

// Backward implements Module. In evaluation mode the statistics are treated
// as constants; in training mode the full batch-statistics gradient is used.
func (bn *BatchNorm2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	n, c, h, w := mustDims4(grad, "BatchNorm2D.Backward")
	gradX := bn.ar.Take(&bn.gradXBuf, n, c, h, w)
	m := float64(n * h * w)
	gd := grad.Data()
	xh := bn.xHatBuf.Data()
	gxd := gradX.Data()
	ggd, gbd := bn.gamma.Grad.Data(), bn.beta.Grad.Data()
	gammaD := bn.gamma.Value.Data()
	hw := h * w
	for g := 0; g < c; g += bnLanes {
		ch0, skip := laneGroup(g, c)
		lanes := min(bnLanes, c-ch0)
		sumDy, sumDyXHat := bnGradSums4(gd, xh, n, c, hw, ch0)
		for j := skip; j < lanes; j++ {
			ch := ch0 + j
			ggd[ch] += sumDyXHat[j]
			gbd[ch] += sumDy[j]
			scale := gammaD[ch] / bn.lastStd[ch]
			if !bn.training {
				for b := 0; b < n; b++ {
					base := (b*c + ch) * hw
					gr := gd[base : base+hw]
					gxr := gxd[base : base+hw]
					for i, dy := range gr {
						gxr[i] = scale * dy
					}
				}
				continue
			}
			at := ch * hw
			tensor.BNBackward(gxd[at:], gd[at:], xh[at:], n, hw, c*hw, scale, sumDy[j]/m, sumDyXHat[j]/m)
		}
	}
	return gradX
}

// bnLanes is how many channels the batch-norm reductions walk at once. One
// channel's sum is a single dependent chain (an add every ~4 cycles);
// advancing four channels' chains together fills the adder's pipeline while
// each chain still adds its own elements in (batch, pixel) ascending order,
// so every statistic keeps the bits of the one-channel loop. The groups are
// laneGroup's; a layer of fewer than four channels repeats its last channel
// in the spare lanes.
const bnLanes = tensor.DWLanes

// bnOffsets returns where the planes of channels ch0..ch0+3 (of c) start in
// an image, a channel past the last repeating the last.
func bnOffsets(c, hw, ch0 int) (o0, o1, o2, o3 int) {
	o := func(l int) int { return min(ch0+l, c-1) * hw }
	return o(0), o(1), o(2), o(3)
}

// bnMoments4 returns the batch mean and biased variance over m = n*hw
// elements of channels ch0..ch0+3, one chain per channel, the four chains
// interleaved.
func bnMoments4(xd []float64, n, c, hw, ch0 int, m float64) (mean, variance [bnLanes]float64) {
	var s0, s1, s2, s3 float64
	o0, o1, o2, o3 := bnOffsets(c, hw, ch0)
	for b := 0; b < n; b++ {
		img := xd[b*c*hw:]
		p0, p1, p2, p3 := img[o0:][:hw], img[o1:][:hw], img[o2:][:hw], img[o3:][:hw]
		for i, v := range p0 {
			s0 += v
			s1 += p1[i]
			s2 += p2[i]
			s3 += p3[i]
		}
	}
	m0, m1, m2, m3 := s0/m, s1/m, s2/m, s3/m
	var q0, q1, q2, q3 float64
	for b := 0; b < n; b++ {
		img := xd[b*c*hw:]
		p0, p1, p2, p3 := img[o0:][:hw], img[o1:][:hw], img[o2:][:hw], img[o3:][:hw]
		for i, v := range p0 {
			d0, d1, d2, d3 := v-m0, p1[i]-m1, p2[i]-m2, p3[i]-m3
			q0 += d0 * d0
			q1 += d1 * d1
			q2 += d2 * d2
			q3 += d3 * d3
		}
	}
	return [bnLanes]float64{m0, m1, m2, m3}, [bnLanes]float64{q0 / m, q1 / m, q2 / m, q3 / m}
}

// bnGradSums4 returns Σdy and Σdy·x̂ of channels ch0..ch0+3 with the eight
// chains interleaved.
func bnGradSums4(gd, xh []float64, n, c, hw, ch0 int) (sumDy, sumDyXHat [bnLanes]float64) {
	var a0, a1, a2, a3, b0, b1, b2, b3 float64
	o0, o1, o2, o3 := bnOffsets(c, hw, ch0)
	for b := 0; b < n; b++ {
		gi, xi := gd[b*c*hw:], xh[b*c*hw:]
		g0, g1, g2, g3 := gi[o0:][:hw], gi[o1:][:hw], gi[o2:][:hw], gi[o3:][:hw]
		x0, x1, x2, x3 := xi[o0:][:hw], xi[o1:][:hw], xi[o2:][:hw], xi[o3:][:hw]
		for i, dy := range g0 {
			dy1, dy2, dy3 := g1[i], g2[i], g3[i]
			a0 += dy
			a1 += dy1
			a2 += dy2
			a3 += dy3
			b0 += dy * x0[i]
			b1 += dy1 * x1[i]
			b2 += dy2 * x2[i]
			b3 += dy3 * x3[i]
		}
	}
	return [bnLanes]float64{a0, a1, a2, a3}, [bnLanes]float64{b0, b1, b2, b3}
}
