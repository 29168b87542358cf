package nn

import (
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

// Forward implements Module.
func (p *MaxPool2D) Forward(x *tensor.Tensor) *tensor.Tensor {
	return p.forward(x, tensor.DepthwiseSIMD())
}

// forward pools x. With useLanes set, whole groups of four planes go to the
// lane kernel (forwardLanes) and the scalar paths take the rest.
func (p *MaxPool2D) forward(x *tensor.Tensor, useLanes bool) *tensor.Tensor {
	n, c, h, w := mustDims4(x, "MaxPool2D")
	ar := p.stepArena()
	p.lastX = x
	oh := convOutDim(h, p.K, p.Stride, p.Pad, 1)
	ow := convOutDim(w, p.K, p.Stride, p.Pad, 1)
	out := ar.Take(&p.outBuf, n, c, oh, ow)
	p.argmaxI = ar.Ints(out.Size())
	xd, od := x.Data(), out.Data()
	planes, lanes := n*c, 0
	if useLanes {
		lanes = planes &^ (tensor.DWLanes - 1)
		p.forwardLanes(ar, xd, od, lanes, h, w, oh, ow)
	}
	// Planes narrower than three outputs are all border: the row pass buys
	// nothing there and the window scan is quicker.
	switch {
	case lanes == planes:
	case p.K == 3 && ow >= 3:
		p.forward3(ar, xd, od, lanes, planes, h, w, oh, ow)
	default:
		p.forwardWindow(xd, od, lanes, planes, h, w, oh, ow)
	}
	return out
}

// forwardLanes pools planes [0, planes), a multiple of four, four at a time
// through tensor.DWMaxTaps: the planes are lane-interleaved inside a -Inf
// border (as nn.Conv2D's depthwise path does with a zero one), and each
// output scans its K×K window in (ky,kx) order with a strict >, keeping the
// first maximum and its flat input index. A border position never wins, so
// maxima and indices equal forwardWindow's, which skips them.
func (p *MaxPool2D) forwardLanes(ar *tensor.Arena, xd, od []float64, planes, h, w, oh, ow int) {
	if planes == 0 {
		return
	}
	const L = tensor.DWLanes
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
	hw, npix := h*w, pl.npix
	lane := ar.Ints(L) // the group's plane offsets
	for g := 0; g < planes; g += L {
		for l := range lane {
			lane[l] = (g + l) * hw
		}
		tensor.DWInterleave(pl.xp, pad*pl.xpW+pad, pl.xpW, 1, xd[g*hw:], h, w)
		tensor.DWMaxTaps(pl.res, at, pl.xp, pl.xpix, pixAt, pl.ftaps[:pl.ntaps], tapAt, lane)
		tensor.DWDeinterleave(od[g*npix:], pl.res, npix)
		tensor.DWDeinterleaveInts(p.argmaxI[g*npix:], at, npix)
	}
}

// forwardWindow is the general path and the reference the 3×3 path is tested
// against: the window's in-bounds kernel range is clamped once per output row
// and column and scanned in (ky,kx) order. First-max semantics: the strict >
// keeps the earliest maximum and never selects a NaN.
func (p *MaxPool2D) forwardWindow(xd, od []float64, pl0, pl1, h, w, oh, ow int) {
	for pl := pl0; pl < pl1; pl++ {
		base := pl * h * w
		for oy := 0; oy < oh; oy++ {
			iy0 := oy*p.Stride - p.Pad
			ky0, ky1 := clampWindow(iy0, p.K, h)
			for ox := 0; ox < ow; ox++ {
				ix0 := ox*p.Stride - p.Pad
				kx0, kx1 := clampWindow(ix0, p.K, w)
				best := math.Inf(-1)
				bestI := -1
				for ky := ky0; ky <= ky1; ky++ {
					row := base + (iy0+ky)*w + ix0
					for kx := kx0; kx <= kx1; kx++ {
						if v := xd[row+kx]; v > best {
							best, bestI = v, row+kx
						}
					}
				}
				oi := (pl*oh+oy)*ow + ox
				if bestI < 0 { // window entirely in padding
					best = 0
				}
				od[oi] = best
				p.argmaxI[oi] = bestI
			}
		}
	}
}

// forward3 is the 3×3 path: a row pass reduces each input row to the first
// maximum of every output column's three-wide window, then a column pass
// takes the first maximum of those over the window's rows. The earliest
// (ky,kx) holding the window's maximum lies in the first row that reaches
// it, at that row's leftmost position, so the result and the argmax equal
// forwardWindow's scan — with 6 compares per output instead of 9 and the
// clamping confined to the border columns and rows. The row pass keeps, per
// input row and output column, the window's first maximum in rowV and its
// flat input index in rowAt, both taken from ar.
func (p *MaxPool2D) forward3(ar *tensor.Arena, xd, od []float64, pl0, pl1, h, w, oh, ow int) {
	rowV, rowAt := ar.Floats(h*ow), ar.Ints(h*ow)
	s, pad := p.Stride, p.Pad
	negInf := math.Inf(-1)
	// Output columns [oxLo, oxHi) see a full in-bounds window.
	oxLo, oxHi := interiorRange(ow, 3, s, pad, w)
	for pl := pl0; pl < pl1; pl++ {
		base := pl * h * w
		for iy := 0; iy < h; iy++ {
			rbase := base + iy*w
			row := xd[rbase : rbase+w]
			rv, ra := rowV[iy*ow:(iy+1)*ow], rowAt[iy*ow:(iy+1)*ow]
			for ox := 0; ox < oxLo; ox++ {
				rv[ox], ra[ox] = rowMaxClamped(row, rbase, ox*s-pad)
			}
			ix := oxLo*s - pad
			for ox := oxLo; ox < oxHi; ox++ {
				win := row[ix : ix+3 : ix+3]
				best, bi := negInf, -1
				if v := win[0]; v > best {
					best, bi = v, rbase+ix
				}
				if v := win[1]; v > best {
					best, bi = v, rbase+ix+1
				}
				if v := win[2]; v > best {
					best, bi = v, rbase+ix+2
				}
				rv[ox], ra[ox] = best, bi
				ix += s
			}
			for ox := oxHi; ox < ow; ox++ {
				rv[ox], ra[ox] = rowMaxClamped(row, rbase, ox*s-pad)
			}
		}
		obase := pl * oh * ow
		for oy := 0; oy < oh; oy++ {
			iy0 := oy*s - pad
			k0, k1 := clampWindow(iy0, 3, h)
			orow := od[obase+oy*ow : obase+(oy+1)*ow]
			arow := p.argmaxI[obase+oy*ow : obase+(oy+1)*ow]
			for ox := range orow {
				best, bi := negInf, -1
				for k := k0; k <= k1; k++ {
					if at := (iy0+k)*ow + ox; rowV[at] > best {
						best, bi = rowV[at], rowAt[at]
					}
				}
				if bi < 0 { // window entirely in padding
					best = 0
				}
				orow[ox], arow[ox] = best, bi
			}
		}
	}
}

// rowMaxClamped is forward3's row pass for a border column: the first
// maximum of the window row[ix0:ix0+3] clipped to the row, and its flat input
// index (-Inf, -1 when nothing in bounds exceeds -Inf).
func rowMaxClamped(row []float64, rbase, ix0 int) (float64, int) {
	k0, k1 := clampWindow(ix0, 3, len(row))
	best, at := math.Inf(-1), -1
	for k := k0; k <= k1; k++ {
		if v := row[ix0+k]; v > best {
			best, at = v, rbase+ix0+k
		}
	}
	return best, at
}

// interiorRange returns the half-open range [lo, hi) of output indices whose
// k-wide window, starting at o*stride-pad, lies wholly inside [0, limit);
// outputs outside it need clamping.
func interiorRange(outDim, k, stride, pad, limit int) (lo, hi int) {
	lo, _ = convValid(outDim, -pad, stride, limit)
	_, hi = convValid(outDim, k-1-pad, stride, limit)
	lo = min(lo, outDim)
	hi = max(hi+1, lo)
	return lo, hi
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

// NewAvgPool2D constructs a k×k average pool.
func NewAvgPool2D(k, stride, pad int) *AvgPool2D {
	return &AvgPool2D{K: k, Stride: stride, Pad: pad}
}

// Params implements Module.
func (p *AvgPool2D) Params() []*Param { return nil }

// Forward implements Module.
func (p *AvgPool2D) Forward(x *tensor.Tensor) *tensor.Tensor {
	return p.forward(x, tensor.DepthwiseSIMD())
}

// forward pools x. With useLanes set, whole groups of four planes go to the
// lane kernels (forwardLanes) and the scalar loops below take the rest.
func (p *AvgPool2D) forward(x *tensor.Tensor, useLanes bool) *tensor.Tensor {
	n, c, h, w := mustDims4(x, "AvgPool2D")
	p.lastShape = [4]int{n, c, h, w}
	oh := convOutDim(h, p.K, p.Stride, p.Pad, 1)
	ow := convOutDim(w, p.K, p.Stride, p.Pad, 1)
	ar := p.stepArena()
	out := ar.Take(&p.outBuf, n, c, oh, ow)
	inv := 1.0 / float64(p.K*p.K)
	xd, od := x.Data(), out.Data()
	lanes := 0
	if useLanes && p.Pad < p.K {
		lanes = n * c &^ (tensor.DWLanes - 1)
		p.forwardLanes(ar, xd, od, lanes, h, w, oh, ow, inv)
	}
	s, pad := p.Stride, p.Pad
	oyLo, oyHi, oxLo, oxHi := p.interior(oh, ow, h, w)
	for pl := lanes; pl < n*c; pl++ {
		base := pl * h * w
		for oy := 0; oy < oh; oy++ {
			iy0 := oy*s - pad
			orow := od[(pl*oh+oy)*ow : (pl*oh+oy+1)*ow]
			lo, hi := oxLo, oxHi
			if oy < oyLo || oy >= oyHi {
				lo, hi = 0, 0 // a border row: every column is clamped
			}
			for ox := 0; ox < lo; ox++ {
				orow[ox] = p.sumClamped(xd, base, h, w, iy0, ox*s-pad) * inv
			}
			// Interior: the whole 3×3 window is in bounds, summed in the same
			// (ky,kx) order as the clamped scan.
			at := base + iy0*w + lo*s - pad
			for ox := lo; ox < hi; ox++ {
				r0 := xd[at : at+3 : at+3]
				r1 := xd[at+w : at+w+3 : at+w+3]
				r2 := xd[at+2*w : at+2*w+3 : at+2*w+3]
				acc := 0.0
				acc += r0[0]
				acc += r0[1]
				acc += r0[2]
				acc += r1[0]
				acc += r1[1]
				acc += r1[2]
				acc += r2[0]
				acc += r2[1]
				acc += r2[2]
				orow[ox] = acc * inv
				at += s
			}
			for ox := hi; ox < ow; ox++ {
				orow[ox] = p.sumClamped(xd, base, h, w, iy0, ox*s-pad) * inv
			}
		}
	}
	return out
}

// forwardLanes pools planes [0, planes), a multiple of four, through the
// depthwise lane kernel with every weight 1: each window's terms are added
// from +0 in (ky,kx) order, the zero border adding +0 where the scalar loop
// skips (which leaves an accumulator started at +0 unchanged), and the sum is
// then multiplied by inv.
func (p *AvgPool2D) forwardLanes(ar *tensor.Arena, xd, od []float64, planes, h, w, oh, ow int, inv float64) {
	if planes == 0 {
		return
	}
	const L = tensor.DWLanes
	pl := dwPlanFor(ar, p.geom(), h, w, oh, ow, false)
	for i := range pl.wl {
		pl.wl[i] = 1
	}
	hw, npix := h*w, pl.npix
	for g := 0; g < planes; g += L {
		tensor.DWInterleave(pl.xp, p.Pad*pl.xpW+p.Pad, pl.xpW, 1, xd[g*hw:], h, w)
		tensor.DWTaps(pl.res, pl.xp, pl.xpix, pl.ftaps[:pl.ntaps], pl.wl)
		tensor.DWDeinterleave(od[g*npix:], pl.res, npix)
	}
	tensor.ScaleTo(od[:planes*npix], od[:planes*npix], inv)
}

// backwardLanes writes the input gradient of planes [0, planes) through the
// depthwise lane kernel, as nn.Conv2D's depthwise backward does: the output
// gradient is spread Stride apart inside a zero border and each input pixel
// sums inv·g over the outputs whose window covers it. The backward taps are
// walked last to first, so those outputs come in (oy,ox) order — the order in
// which the scalar loop's scatter adds them.
func (p *AvgPool2D) backwardLanes(ar *tensor.Arena, gd, gxd []float64, planes, h, w, oh, ow int, inv float64) {
	if planes == 0 {
		return
	}
	const L = tensor.DWLanes
	pl := dwPlanFor(ar, p.geom(), h, w, oh, ow, true)
	slices.Reverse(pl.btaps)
	for i := range pl.wl {
		pl.wl[i] = inv
	}
	hw, npix := h*w, pl.npix
	for g := 0; g < planes; g += L {
		tensor.DWInterleave(pl.gp, pl.gOffY*pl.gpW+pl.gOffX, p.Stride*pl.gpW, p.Stride, gd[g*npix:], oh, ow)
		tensor.DWTaps(pl.res, pl.gp, pl.gxpix, pl.btaps, pl.wl)
		tensor.DWDeinterleave(gxd[g*hw:], pl.res, hw)
	}
}

func (p *AvgPool2D) geom() dwGeom { return dwGeom{p.K, p.K, p.Stride, p.Pad, 1} }

// interior returns the output rows [oyLo, oyHi) and columns [oxLo, oxHi)
// whose whole window is in bounds and takes the unrolled 3×3 body; other
// kernel sizes have none, so every output takes the clamped scan.
func (p *AvgPool2D) interior(oh, ow, h, w int) (oyLo, oyHi, oxLo, oxHi int) {
	if p.K != 3 {
		return 0, 0, 0, 0
	}
	oyLo, oyHi = interiorRange(oh, 3, p.Stride, p.Pad, h)
	oxLo, oxHi = interiorRange(ow, 3, p.Stride, p.Pad, w)
	return oyLo, oyHi, oxLo, oxHi
}

// sumClamped adds the in-bounds part of the K×K window whose top-left input
// coordinate is (iy0, ix0), in (ky,kx) order.
func (p *AvgPool2D) sumClamped(xd []float64, base, h, w, iy0, ix0 int) float64 {
	ky0, ky1 := clampWindow(iy0, p.K, h)
	kx0, kx1 := clampWindow(ix0, p.K, w)
	acc := 0.0
	for ky := ky0; ky <= ky1; ky++ {
		row := base + (iy0+ky)*w + ix0
		for kx := kx0; kx <= kx1; kx++ {
			acc += xd[row+kx]
		}
	}
	return acc
}

// Backward implements Module.
func (p *AvgPool2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return p.backward(grad, tensor.DepthwiseSIMD())
}

// backward is forward's counterpart.
func (p *AvgPool2D) backward(grad *tensor.Tensor, useLanes bool) *tensor.Tensor {
	n, c, oh, ow := mustDims4(grad, "AvgPool2D.Backward")
	gradX := p.ar.Take(&p.gradXBuf, p.lastShape[:]...)
	h, w := p.lastShape[2], p.lastShape[3]
	inv := 1.0 / float64(p.K*p.K)
	gd, gxd := grad.Data(), gradX.Data()
	lanes := 0
	if useLanes && p.Pad < p.K { // a wider border would put gradients outside the spread plane
		lanes = n * c &^ (tensor.DWLanes - 1)
		p.backwardLanes(p.ar, gd, gxd, lanes, h, w, oh, ow, inv)
	}
	clear(gxd[lanes*h*w:]) // overlapping windows accumulate
	s, pad := p.Stride, p.Pad
	oyLo, oyHi, oxLo, oxHi := p.interior(oh, ow, h, w)
	for pl := lanes; pl < n*c; pl++ {
		base := pl * h * w
		for oy := 0; oy < oh; oy++ {
			iy0 := oy*s - pad
			grow := gd[(pl*oh+oy)*ow : (pl*oh+oy+1)*ow]
			lo, hi := oxLo, oxHi
			if oy < oyLo || oy >= oyHi {
				lo, hi = 0, 0
			}
			for ox := 0; ox < lo; ox++ {
				p.spreadClamped(gxd, base, h, w, iy0, ox*s-pad, grow[ox]*inv)
			}
			at := base + iy0*w + lo*s - pad
			for ox := lo; ox < hi; ox++ {
				gv := grow[ox] * inv
				r0 := gxd[at : at+3 : at+3]
				r1 := gxd[at+w : at+w+3 : at+w+3]
				r2 := gxd[at+2*w : at+2*w+3 : at+2*w+3]
				r0[0] += gv
				r0[1] += gv
				r0[2] += gv
				r1[0] += gv
				r1[1] += gv
				r1[2] += gv
				r2[0] += gv
				r2[1] += gv
				r2[2] += gv
				at += s
			}
			for ox := hi; ox < ow; ox++ {
				p.spreadClamped(gxd, base, h, w, iy0, ox*s-pad, grow[ox]*inv)
			}
		}
	}
	return gradX
}

// spreadClamped adds gv to the in-bounds part of the K×K window at
// (iy0, ix0): the transpose of sumClamped.
func (p *AvgPool2D) spreadClamped(gxd []float64, base, h, w, iy0, ix0 int, gv float64) {
	ky0, ky1 := clampWindow(iy0, p.K, h)
	kx0, kx1 := clampWindow(ix0, p.K, w)
	for ky := ky0; ky <= ky1; ky++ {
		row := base + (iy0+ky)*w + ix0
		for kx := kx0; kx <= kx1; kx++ {
			gxd[row+kx] += gv
		}
	}
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
