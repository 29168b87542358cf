package nn

import (
	"fmt"
	"math/rand"

	"fedrlnas/internal/tensor"
)

// Conv2D is a 2-D convolution with optional grouping (for depthwise
// convolutions), dilation, stride, and zero padding. Input [N,C,H,W],
// weight [outC, inC/groups, kH, kW], optional bias [outC].
type Conv2D struct {
	InC, OutC        int
	KH, KW           int
	Stride, Pad      int
	Dilation, Groups int

	weight *Param
	bias   *Param // nil when bias is disabled
	params []*Param

	arenaRef
	lastX *tensor.Tensor

	// Step buffers (see the package doc's buffer-ownership contract): the
	// forward's im2col column matrix, which backward reuses, and the output
	// and input-gradient headers.
	colBuf           []float64
	colValid         bool // colBuf holds the lowering of lastX
	outBuf, gradXBuf tensor.Tensor

	// Hoisted in-bounds output ranges for the grouped direct path: for each
	// kernel offset, the inclusive output rows/cols whose sampled input
	// stays inside the image (see convValid).
	oy0s, oy1s []int
	ox0s, ox1s []int
}

var _ Module = (*Conv2D)(nil)

// ConvOpts configures optional Conv2D behaviour.
type ConvOpts struct {
	Stride   int // default 1
	Pad      int // default 0
	Dilation int // default 1
	Groups   int // default 1
	Bias     bool
}

// NewConv2D constructs a convolution with Kaiming-initialized weights.
func NewConv2D(name string, rng *rand.Rand, inC, outC, k int, o ConvOpts) *Conv2D {
	if o.Stride == 0 {
		o.Stride = 1
	}
	if o.Dilation == 0 {
		o.Dilation = 1
	}
	if o.Groups == 0 {
		o.Groups = 1
	}
	if inC%o.Groups != 0 || outC%o.Groups != 0 {
		panic(fmt.Sprintf("nn: conv groups %d must divide inC %d and outC %d", o.Groups, inC, outC))
	}
	c := &Conv2D{
		InC: inC, OutC: outC, KH: k, KW: k,
		Stride: o.Stride, Pad: o.Pad, Dilation: o.Dilation, Groups: o.Groups,
	}
	// One allocation backs all four range tables.
	buf := make([]int, 4*k)
	c.oy0s, c.oy1s, c.ox0s, c.ox1s = buf[:k:k], buf[k:2*k:2*k], buf[2*k:3*k:3*k], buf[3*k:]
	c.weight = NewParam(name+".weight", tensor.KaimingConv(rng, outC, inC/o.Groups, k, k))
	if o.Bias {
		c.bias = NewParam(name+".bias", tensor.New(outC))
	}
	return c
}

// Params implements Module. The returned slice is cached (the parameter set
// is fixed at construction) and must not be mutated.
func (c *Conv2D) Params() []*Param {
	if c.params == nil {
		if c.bias != nil {
			c.params = []*Param{c.weight, c.bias}
		} else {
			c.params = []*Param{c.weight}
		}
	}
	return c.params
}

// Forward implements Module.
func (c *Conv2D) Forward(x *tensor.Tensor) *tensor.Tensor {
	n, inC, h, w := mustDims4(x, "Conv2D")
	if inC != c.InC {
		panic(fmt.Sprintf("nn: Conv2D got %d input channels, want %d", inC, c.InC))
	}
	ar := c.stepArena()
	c.lastX = x
	if c.Groups == 1 {
		return c.forwardIm2col(ar, x)
	}
	oh := convOutDim(h, c.KH, c.Stride, c.Pad, c.Dilation)
	ow := convOutDim(w, c.KW, c.Stride, c.Pad, c.Dilation)
	out := ar.Take(&c.outBuf, n, c.OutC, oh, ow)
	c.forwardGrouped(ar, x, out, tensor.DepthwiseSIMD())
	return out
}

// forwardGrouped fills out for Groups > 1. With useLanes set, a qualifying
// depthwise layer runs every channel through the lane kernels, whose scratch
// comes from ar; any other takes the direct loops.
func (c *Conv2D) forwardGrouped(ar *tensor.Arena, x, out *tensor.Tensor, useLanes bool) {
	if useLanes && c.laneDepthwise() {
		c.forwardDepthwiseLanes(ar, x, out)
		return
	}
	c.forwardDirect(x, out)
}

// forwardDirect computes a grouped convolution with the direct loops. It is
// the general grouped path, the depthwise path where no vector kernel exists
// or the layer has fewer than four channels, and the reference the lane
// kernels are tested against.
//
// Shift-and-AXPY formulation: the kernel offsets are the outer loops and
// each (ky,kx) contributes one branch-free strided row update over the
// precomputed in-bounds output range. Per output element the additions
// arrive in (ic,ky,kx) order.
func (c *Conv2D) forwardDirect(x, out *tensor.Tensor) {
	n, _, h, w := mustDims4(x, "Conv2D")
	oh, ow := out.Dim(2), out.Dim(3)
	xd, wd, od := x.Data(), c.weight.Value.Data(), out.Data()
	var biasD []float64
	if c.bias != nil {
		biasD = c.bias.Value.Data()
	}
	icg := c.InC / c.Groups // input channels per group
	ocg := c.OutC / c.Groups
	c.hoistRanges(oh, ow, h, w)
	oy0s, oy1s, ox0s, ox1s := c.oy0s, c.oy1s, c.ox0s, c.ox1s
	for b := 0; b < n; b++ {
		for oc := 0; oc < c.OutC; oc++ {
			g := oc / ocg
			plane := od[((b*c.OutC+oc)*oh)*ow : ((b*c.OutC+oc)*oh+oh)*ow]
			bv := 0.0
			if biasD != nil {
				bv = biasD[oc]
			}
			for i := range plane {
				plane[i] = bv
			}
			for ic := 0; ic < icg; ic++ {
				xBase := ((b*c.InC + g*icg + ic) * h) * w
				wBase := ((oc*icg + ic) * c.KH) * c.KW
				for ky := 0; ky < c.KH; ky++ {
					kyOff := ky*c.Dilation - c.Pad
					oy0, oy1 := oy0s[ky], oy1s[ky]
					for kx := 0; kx < c.KW; kx++ {
						wv := wd[wBase+ky*c.KW+kx]
						kxOff := kx*c.Dilation - c.Pad
						ox0, ox1 := ox0s[kx], ox1s[kx]
						if ox0 > ox1 {
							continue
						}
						if c.Stride == 1 {
							// Contiguous AXPY over the in-bounds span;
							// slicing both rows to the same length lets the
							// compiler drop the bounds checks.
							for oy := oy0; oy <= oy1; oy++ {
								orow := plane[oy*ow+ox0 : oy*ow+ox1+1]
								xrow := xd[xBase+(oy+kyOff)*w+ox0+kxOff:][:len(orow)]
								for i, v := range xrow {
									orow[i] += wv * v
								}
							}
							continue
						}
						for oy := oy0; oy <= oy1; oy++ {
							xrow := xd[xBase+(oy*c.Stride+kyOff)*w:]
							orow := plane[oy*ow:]
							ix := ox0*c.Stride + kxOff
							for ox := ox0; ox <= ox1; ox++ {
								orow[ox] += wv * xrow[ix]
								ix += c.Stride
							}
						}
					}
				}
			}
		}
	}
}

// hoistRanges fills the per-kernel-offset valid output ranges used by the
// grouped direct path.
func (c *Conv2D) hoistRanges(oh, ow, h, w int) {
	for ky := 0; ky < c.KH; ky++ {
		c.oy0s[ky], c.oy1s[ky] = convValid(oh, ky*c.Dilation-c.Pad, c.Stride, h)
	}
	for kx := 0; kx < c.KW; kx++ {
		c.ox0s[kx], c.ox1s[kx] = convValid(ow, kx*c.Dilation-c.Pad, c.Stride, w)
	}
}

// convValid returns the inclusive output-index range [lo, hi] whose sampled
// input index o*stride+off stays inside [0, limit); hi < lo when empty.
func convValid(outDim, off, stride, limit int) (lo, hi int) {
	lo = divCeil(-off, stride)
	if lo < 0 {
		lo = 0
	}
	hi = divFloor(limit-1-off, stride)
	if hi > outDim-1 {
		hi = outDim - 1
	}
	return lo, hi
}

func divCeil(a, b int) int {
	if a >= 0 {
		return (a + b - 1) / b
	}
	return -(-a / b)
}

func divFloor(a, b int) int {
	if a >= 0 {
		return a / b
	}
	return -((-a + b - 1) / b)
}

// Backward implements Module.
func (c *Conv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return c.backward(grad, true)
}

// backward accumulates the parameter gradients and, when needGradX is set,
// computes dL/d(input). Callers that discard the input gradient (the first
// layer of a network, see BackwardParams) pass false: the Groups==1 path
// then skips the colGrad GEMM, the col2im scatter and the buffer clear, and
// returns nil.
func (c *Conv2D) backward(grad *tensor.Tensor, needGradX bool) *tensor.Tensor {
	x := c.lastX
	if x == nil {
		panic("nn: Conv2D.Backward before Forward")
	}
	if c.Groups == 1 {
		return c.backwardIm2col(grad, needGradX, tensor.DepthwiseSIMD())
	}
	mustDims4(grad, "Conv2D.Backward")
	gradX := c.ar.TakeLike(&c.gradXBuf, x)
	c.backwardGrouped(c.ar, x, grad, gradX, tensor.DepthwiseSIMD())
	return gradX
}

// backwardGrouped is forwardGrouped's counterpart: it accumulates the
// parameter gradients and overwrites gradX.
func (c *Conv2D) backwardGrouped(ar *tensor.Arena, x, grad, gradX *tensor.Tensor, useLanes bool) {
	if useLanes && c.laneDepthwise() {
		c.backwardDepthwiseLanes(ar, x, grad, gradX) // overwrites gradX
		return
	}
	gradX.Zero() // the direct loops accumulate into it
	c.backwardDirect(x, grad, gradX)
}

// backwardDirect is forwardDirect's counterpart: it accumulates the weight
// (and bias) gradients and adds the input gradient into gradX, which the
// caller has cleared.
func (c *Conv2D) backwardDirect(x, grad, gradX *tensor.Tensor) {
	n, _, h, w := mustDims4(x, "Conv2D")
	oh, ow := grad.Dim(2), grad.Dim(3)
	xd, wd := x.Data(), c.weight.Value.Data()
	gd, gxd, gwd := grad.Data(), gradX.Data(), c.weight.Grad.Data()
	icg := c.InC / c.Groups
	ocg := c.OutC / c.Groups
	var gbd []float64
	if c.bias != nil {
		gbd = c.bias.Grad.Data()
	}
	// Same shift-and-AXPY structure as the grouped forward: per (ky,kx) one
	// branch-free strided sweep accumulates both the weight gradient (as a
	// register reduction) and the input gradient.
	c.hoistRanges(oh, ow, h, w)
	oy0s, oy1s, ox0s, ox1s := c.oy0s, c.oy1s, c.ox0s, c.ox1s
	for b := 0; b < n; b++ {
		for oc := 0; oc < c.OutC; oc++ {
			g := oc / ocg
			gplane := gd[((b*c.OutC+oc)*oh)*ow : ((b*c.OutC+oc)*oh+oh)*ow]
			if gbd != nil {
				s := 0.0
				for _, v := range gplane {
					s += v
				}
				gbd[oc] += s
			}
			for ic := 0; ic < icg; ic++ {
				xBase := ((b*c.InC + g*icg + ic) * h) * w
				wBase := ((oc*icg + ic) * c.KH) * c.KW
				for ky := 0; ky < c.KH; ky++ {
					kyOff := ky*c.Dilation - c.Pad
					oy0, oy1 := oy0s[ky], oy1s[ky]
					for kx := 0; kx < c.KW; kx++ {
						wv := wd[wBase+ky*c.KW+kx]
						kxOff := kx*c.Dilation - c.Pad
						ox0, ox1 := ox0s[kx], ox1s[kx]
						if ox0 > ox1 {
							continue
						}
						gw := 0.0
						if c.Stride == 1 {
							for oy := oy0; oy <= oy1; oy++ {
								grow := gplane[oy*ow+ox0 : oy*ow+ox1+1]
								rowBase := xBase + (oy+kyOff)*w + ox0 + kxOff
								xrow := xd[rowBase:][:len(grow)]
								gxrow := gxd[rowBase:][:len(grow)]
								for i, gv := range grow {
									gw += gv * xrow[i]
									gxrow[i] += gv * wv
								}
							}
						} else {
							for oy := oy0; oy <= oy1; oy++ {
								rowBase := xBase + (oy*c.Stride+kyOff)*w
								xrow := xd[rowBase:]
								gxrow := gxd[rowBase:]
								grow := gplane[oy*ow:]
								ix := ox0*c.Stride + kxOff
								for ox := ox0; ox <= ox1; ox++ {
									gv := grow[ox]
									gw += gv * xrow[ix]
									gxrow[ix] += gv * wv
									ix += c.Stride
								}
							}
						}
						gwd[wBase+ky*c.KW+kx] += gw
					}
				}
			}
		}
	}
}
