package nn

import (
	"fmt"
	"math/rand"

	"fedrlnas/internal/tensor"
)

// Conv2D is a 2-D convolution with dilation, stride and zero padding, either
// dense or depthwise (Groups == InC == OutC: one filter per channel). Input
// [N,C,H,W], weight [outC, inC/groups, kH, kW], optional bias [outC].
type Conv2D struct {
	InC, OutC        int
	KH, KW           int
	Stride, Pad      int
	Dilation, Groups int

	weight *Param
	bias   *Param // nil when bias is disabled
	params []*Param

	// reluIn makes a depthwise layer apply a ReLU to its input itself
	// (NewSepConv, NewDilConv; see depthwise.go). Its Backward reads the
	// mask off the input, so nothing may write into that input before it.
	reluIn bool

	arenaRef
	lastX *tensor.Tensor

	// Step buffers (see the package doc's buffer-ownership contract): the
	// forward's im2col column matrix, which backward reuses, and the output
	// and input-gradient headers.
	colBuf           []float64
	colValid         bool // colBuf holds the lowering of lastX
	outBuf, gradXBuf tensor.Tensor
}

var _ Module = (*Conv2D)(nil)

// ConvOpts configures optional Conv2D behaviour.
type ConvOpts struct {
	Stride   int // default 1
	Pad      int // default 0
	Dilation int // default 1
	Groups   int // default 1; otherwise inC, with outC == inC (depthwise)
	Bias     bool
}

// NewConv2D constructs a convolution with Kaiming-initialized weights. A
// depthwise layer runs on the lane kernels (depthwise.go), so it takes no
// bias and no padding beyond the kernel's reach; NewConv2D panics on those,
// and on any grouping other than dense or depthwise.
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
	if o.Groups != 1 {
		switch {
		case o.Groups != inC || outC != inC:
			panic(fmt.Sprintf("nn: conv groups %d with inC %d and outC %d: only 1 or depthwise (inC == outC == groups)", o.Groups, inC, outC))
		case o.Bias:
			panic("nn: a depthwise conv takes no bias")
		case o.Pad > (k-1)*o.Dilation:
			panic(fmt.Sprintf("nn: depthwise conv pad %d beyond the kernel's reach %d", o.Pad, (k-1)*o.Dilation))
		}
	}
	c := &Conv2D{
		InC: inC, OutC: outC, KH: k, KW: k,
		Stride: o.Stride, Pad: o.Pad, Dilation: o.Dilation, Groups: o.Groups,
	}
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
	if c.Groups == 1 {
		var b []float64
		if c.bias != nil {
			b = c.bias.Value.Data()
		}
		return c.forwardWith(x, c.weight.Value.Data(), b, nil)
	}
	ar := c.begin(x)
	n, _, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	oh := convOutDim(h, c.KH, c.Stride, c.Pad, c.Dilation)
	ow := convOutDim(w, c.KW, c.Stride, c.Pad, c.Dilation)
	out := ar.Take(&c.outBuf, n, c.OutC, oh, ow)
	c.forwardDepthwise(ar, x, out)
	return out
}

// forwardWith runs a dense layer forward with weight w (the layer's
// weight's shape) and bias b (OutC, or nil) in place of its own parameters,
// adding y + b into dst when dst is non-nil (see forwardIm2col). A folded
// conv→BN pair runs this way (Sequential.Fold).
func (c *Conv2D) forwardWith(x *tensor.Tensor, w, b []float64, dst *tensor.Tensor) *tensor.Tensor {
	return c.forwardIm2col(c.begin(x), x, w, b, dst)
}

// begin checks x and starts a forward on it, returning the arena to take
// from.
func (c *Conv2D) begin(x *tensor.Tensor) *tensor.Arena {
	if _, inC, _, _ := mustDims4(x, "Conv2D"); inC != c.InC {
		panic(fmt.Sprintf("nn: Conv2D got %d input channels, want %d", inC, c.InC))
	}
	c.lastX = x
	return c.stepArena()
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
		return c.backwardIm2col(grad, needGradX)
	}
	mustDims4(grad, "Conv2D.Backward")
	gradX := c.ar.TakeLike(&c.gradXBuf, x)
	gxd := gradX.Data()
	c.backwardDepthwise(c.ar, x, grad, gxd)
	if c.reluIn {
		tensor.ReLUGrad(gxd, gxd, x.Data())
	}
	return gradX
}

// backwardAdd adds the input gradient into dst (BackwardAdd) from storage
// it releases before returning: a depthwise layer computes the gradient
// into scratch and adds it, masked when reluIn — dst + g·m, the bits a ReLU
// module's backwardAdd gives — and a dense layer adds what Backward returns.
func (c *Conv2D) backwardAdd(grad, dst *tensor.Tensor) {
	x := c.lastX
	if x == nil {
		panic("nn: Conv2D.Backward before Forward")
	}
	if !dst.SameShape(x) {
		panic(fmt.Sprintf("nn: Conv2D adds an input gradient of %v into %v", x.Shape(), dst.Shape()))
	}
	defer c.ar.Release(c.ar.Mark())
	if c.Groups == 1 {
		dst.AddInPlace(c.backward(grad, true))
		return
	}
	mustDims4(grad, "Conv2D.Backward")
	gxd := c.ar.Floats(x.Size())
	c.backwardDepthwise(c.ar, x, grad, gxd)
	if c.reluIn {
		tensor.ReLUGradAdd(dst.Data(), gxd, x.Data())
	} else {
		tensor.AddTo(dst.Data(), gxd)
	}
}
