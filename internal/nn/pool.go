package nn

import (
	"fmt"
	"math"
	"slices"

	"fedrlnas/internal/tensor"
)

// MaxPool2D is a max pooling layer over [N,C,H,W] inputs.
type MaxPool2D struct {
	K, Stride, Pad int

	arenaRef
	lastX   *tensor.Tensor
	argmaxI []int // flat input index of each output's max

	outBuf, gradXBuf tensor.Tensor
}

var _ Module = (*MaxPool2D)(nil)

// NewMaxPool2D constructs a k×k max pool.
func NewMaxPool2D(k, stride, pad int) *MaxPool2D {
	return &MaxPool2D{K: k, Stride: stride, Pad: pad}
}

// Params implements Module.
func (p *MaxPool2D) Params() []*Param { return nil }

// Forward implements Module. It pools the N·C planes four at a time, in
// laneGroup's groups, through tensor.DWMaxTaps: the planes are
// lane-interleaved inside a -Inf border (as nn.Conv2D's depthwise path does
// with a zero one), and each output scans its K×K window in (ky,kx) order
// with a strict >, keeping the first maximum and its flat input index. A
// border position never wins, so maxima and indices are those of a scan
// that skips the border; a window with nothing above -Inf gives 0 at -1.
func (p *MaxPool2D) Forward(x *tensor.Tensor) *tensor.Tensor {
	const L = tensor.DWLanes
	n, c, h, w := mustDims4(x, "MaxPool2D")
	ar := p.stepArena()
	p.lastX = x
	oh := convOutDim(h, p.K, p.Stride, p.Pad, 1)
	ow := convOutDim(w, p.K, p.Stride, p.Pad, 1)
	out := ar.Take(&p.outBuf, n, c, oh, ow)
	p.argmaxI = ar.Ints(out.Size())
	defer ar.Release(ar.Mark()) // the plan and tables die with the call
	pl := dwPlanFor(ar, dwGeom{p.K, p.K, p.Stride, p.Pad, 1}, h, w, oh, ow, false)
	negInf := math.Inf(-1)
	for i := range pl.xp {
		pl.xp[i] = negInf
	}
	s, pad := p.Stride, p.Pad
	pixAt, tapAt, at := ar.Ints(len(pl.xpix)), ar.Ints(pl.ntaps), ar.Ints(len(pl.res))
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			pixAt[oy*ow+ox] = (oy*s-pad)*w + ox*s - pad
		}
	}
	for i := pl.npix; i < len(pixAt); i++ {
		pixAt[i] = pixAt[0]
	}
	for ky := 0; ky < p.K; ky++ {
		for kx := 0; kx < p.K; kx++ {
			tapAt[ky*p.K+kx] = ky*w + kx
		}
	}
	hw, npix, planes := h*w, pl.npix, n*c
	xd, od, am := padLanes(ar, x.Data(), 1, planes, hw), out.Data(), p.argmaxI
	if planes < L {
		od, am = ar.Floats(L*npix), ar.Ints(L*npix)
	}
	lane := ar.Ints(L) // the group's plane offsets
	for g := 0; g < max(planes, L); g += L {
		g0, _ := laneGroup(g, max(planes, L))
		for l := range lane {
			lane[l] = (g0 + l) * hw
		}
		tensor.DWInterleave(pl.xp, pad*pl.xpW+pad, pl.xpW, 1, xd[g0*hw:], h, w)
		tensor.DWMaxTaps(pl.res, at, pl.xp, pl.xpix, pixAt, pl.ftaps[:pl.ntaps], tapAt, lane)
		tensor.DWDeinterleave(od[g0*npix:], pl.res, npix)
		tensor.DWDeinterleaveInts(am[g0*npix:], at, npix)
	}
	if planes < L {
		copy(out.Data(), od)
		copy(p.argmaxI, am)
	}
	return out
}

// Backward implements Module.
func (p *MaxPool2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	gradX := p.ar.TakeLike(&p.gradXBuf, p.lastX)
	gradX.Zero() // the argmax scatter accumulates
	gd, gxd := grad.Data(), gradX.Data()
	for oi, src := range p.argmaxI {
		if src >= 0 {
			gxd[src] += gd[oi]
		}
	}
	return gradX
}

// AvgPool2D is an average pooling layer. The divisor is the full window size
// (count_include_pad semantics, like the paper's PyTorch default).
type AvgPool2D struct {
	K, Stride, Pad int

	arenaRef
	lastShape [4]int

	outBuf, gradXBuf tensor.Tensor
}

var _ Module = (*AvgPool2D)(nil)

// NewAvgPool2D constructs a k×k average pool. It panics on pad ≥ k, where
// whole windows would lie in the padding (PyTorch rejects pad > k/2): the
// backward pass's spread gradient plane has no room for them.
func NewAvgPool2D(k, stride, pad int) *AvgPool2D {
	if pad >= k {
		panic(fmt.Sprintf("nn: avg pool pad %d must be below the kernel size %d", pad, k))
	}
	return &AvgPool2D{K: k, Stride: stride, Pad: pad}
}

// Params implements Module.
func (p *AvgPool2D) Params() []*Param { return nil }

func (p *AvgPool2D) geom() dwGeom { return dwGeom{p.K, p.K, p.Stride, p.Pad, 1} }

// Forward implements Module. It pools the N·C planes four at a time, in
// laneGroup's groups, through the depthwise lane kernel with every weight 1:
// each window's terms are added from +0 in (ky,kx) order, the zero border
// adding +0 where a clamped window skips (which leaves an accumulator
// started at +0 unchanged), and the sum is then multiplied by 1/K².
func (p *AvgPool2D) Forward(x *tensor.Tensor) *tensor.Tensor {
	const L = tensor.DWLanes
	n, c, h, w := mustDims4(x, "AvgPool2D")
	p.lastShape = [4]int{n, c, h, w}
	oh := convOutDim(h, p.K, p.Stride, p.Pad, 1)
	ow := convOutDim(w, p.K, p.Stride, p.Pad, 1)
	ar := p.stepArena()
	out := ar.Take(&p.outBuf, n, c, oh, ow)
	defer ar.Release(ar.Mark())
	pl := dwPlanFor(ar, p.geom(), h, w, oh, ow, false)
	for i := range pl.wl {
		pl.wl[i] = 1
	}
	hw, npix, planes := h*w, pl.npix, n*c
	xd, od := padLanes(ar, x.Data(), 1, planes, hw), out.Data()
	if planes < L {
		od = ar.Floats(L * npix)
	}
	for g := 0; g < max(planes, L); g += L {
		g0, _ := laneGroup(g, max(planes, L))
		tensor.DWInterleave(pl.xp, p.Pad*pl.xpW+p.Pad, pl.xpW, 1, xd[g0*hw:], h, w)
		tensor.DWTaps(pl.res, pl.xp, pl.xpix, pl.ftaps[:pl.ntaps], pl.wl)
		tensor.DWDeinterleave(od[g0*npix:], pl.res, npix)
	}
	tensor.ScaleTo(out.Data(), od[:planes*npix], 1/float64(p.K*p.K))
	return out
}

// Backward implements Module. It writes the input gradient through the
// depthwise lane kernel, as nn.Conv2D's depthwise backward does: the output
// gradient is spread Stride apart inside a zero border and each input pixel
// sums g/K² over the outputs whose window covers it. The backward taps are
// walked last to first, so those outputs come in (oy,ox) order — the order
// in which a scatter over the outputs adds them.
func (p *AvgPool2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	const L = tensor.DWLanes
	n, c, oh, ow := mustDims4(grad, "AvgPool2D.Backward")
	gradX := p.ar.Take(&p.gradXBuf, p.lastShape[:]...)
	h, w := p.lastShape[2], p.lastShape[3]
	defer p.ar.Release(p.ar.Mark())
	pl := dwPlanFor(p.ar, p.geom(), h, w, oh, ow, true)
	slices.Reverse(pl.btaps)
	inv := 1 / float64(p.K*p.K)
	for i := range pl.wl {
		pl.wl[i] = inv
	}
	hw, npix, planes := h*w, pl.npix, n*c
	gd, gxd := padLanes(p.ar, grad.Data(), 1, planes, npix), gradX.Data()
	if planes < L {
		gxd = p.ar.Floats(L * hw)
	}
	for g := 0; g < max(planes, L); g += L {
		g0, _ := laneGroup(g, max(planes, L))
		tensor.DWInterleave(pl.gp, pl.gOffY*pl.gpW+pl.gOffX, p.Stride*pl.gpW, p.Stride, gd[g0*npix:], oh, ow)
		tensor.DWTaps(pl.res, pl.gp, pl.gxpix, pl.btaps, pl.wl)
		tensor.DWDeinterleave(gxd[g0*hw:], pl.res, hw)
	}
	if planes < L {
		copy(gradX.Data(), gxd)
	}
	return gradX
}

// GlobalAvgPool averages each channel's spatial map to a single value,
// producing [N, C] output from [N, C, H, W] input.
type GlobalAvgPool struct {
	arenaRef
	lastShape [4]int

	outBuf, gradXBuf tensor.Tensor
}

var _ Module = (*GlobalAvgPool)(nil)

// NewGlobalAvgPool constructs a global average pooling layer.
func NewGlobalAvgPool() *GlobalAvgPool { return &GlobalAvgPool{} }

// Params implements Module.
func (p *GlobalAvgPool) Params() []*Param { return nil }

// Forward implements Module.
func (p *GlobalAvgPool) Forward(x *tensor.Tensor) *tensor.Tensor {
	n, c, h, w := mustDims4(x, "GlobalAvgPool")
	p.lastShape = [4]int{n, c, h, w}
	out := p.stepArena().Take(&p.outBuf, n, c)
	inv := 1.0 / float64(h*w)
	xd, od := x.Data(), out.Data()
	for b := 0; b < n; b++ {
		for ch := 0; ch < c; ch++ {
			base := ((b*c + ch) * h) * w
			acc := 0.0
			for i := 0; i < h*w; i++ {
				acc += xd[base+i]
			}
			od[b*c+ch] = acc * inv
		}
	}
	return out
}

// Backward implements Module.
func (p *GlobalAvgPool) Backward(grad *tensor.Tensor) *tensor.Tensor {
	gradX := p.ar.Take(&p.gradXBuf, p.lastShape[:]...) // fully overwritten below
	n, c, h, w := p.lastShape[0], p.lastShape[1], p.lastShape[2], p.lastShape[3]
	inv := 1.0 / float64(h*w)
	gd, gxd := grad.Data(), gradX.Data()
	for b := 0; b < n; b++ {
		for ch := 0; ch < c; ch++ {
			gv := gd[b*c+ch] * inv
			base := ((b*c + ch) * h) * w
			for i := 0; i < h*w; i++ {
				gxd[base+i] = gv
			}
		}
	}
	return gradX
}

// SubSample spatially subsamples by taking every stride-th pixel. It is the
// strided form of the identity operation in reduction cells (a simplification
// of DARTS' factorized reduce; see DESIGN.md §2).
type SubSample struct {
	Stride int

	arenaRef
	lastShape [4]int

	outBuf, gradXBuf tensor.Tensor
}

var _ Module = (*SubSample)(nil)

// NewSubSample constructs a stride-s spatial subsampler.
func NewSubSample(stride int) *SubSample { return &SubSample{Stride: stride} }

// Params implements Module.
func (s *SubSample) Params() []*Param { return nil }

// Forward implements Module.
func (s *SubSample) Forward(x *tensor.Tensor) *tensor.Tensor {
	ar := s.stepArena()
	if s.Stride == 1 {
		// A copy of any shape; Backward sizes itself from its gradient.
		out := ar.TakeLike(&s.outBuf, x)
		out.CopyFrom(x)
		return out
	}
	n, c, h, w := mustDims4(x, "SubSample")
	s.lastShape = [4]int{n, c, h, w}
	oh := (h + s.Stride - 1) / s.Stride
	ow := (w + s.Stride - 1) / s.Stride
	out := ar.Take(&s.outBuf, n, c, oh, ow)
	xd, od := x.Data(), out.Data()
	for b := 0; b < n; b++ {
		for ch := 0; ch < c; ch++ {
			base := ((b*c + ch) * h) * w
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					od[((b*c+ch)*oh+oy)*ow+ox] = xd[base+oy*s.Stride*w+ox*s.Stride]
				}
			}
		}
	}
	return out
}

// Backward implements Module.
func (s *SubSample) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if s.Stride == 1 {
		gradX := s.ar.TakeLike(&s.gradXBuf, grad)
		gradX.CopyFrom(grad)
		return gradX
	}
	gradX := s.ar.Take(&s.gradXBuf, s.lastShape[:]...)
	gradX.Zero() // only the strided positions are written below
	n, c, oh, ow := mustDims4(grad, "SubSample.Backward")
	h, w := s.lastShape[2], s.lastShape[3]
	gd, gxd := grad.Data(), gradX.Data()
	for b := 0; b < n; b++ {
		for ch := 0; ch < c; ch++ {
			base := ((b*c + ch) * h) * w
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					gxd[base+oy*s.Stride*w+ox*s.Stride] = gd[((b*c+ch)*oh+oy)*ow+ox]
				}
			}
		}
	}
	return gradX
}
