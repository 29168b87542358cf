package nn

import (
	"math/rand"

	"fedrlnas/internal/tensor"
)

// Sequential chains modules, feeding each one's output to the next.
type Sequential struct {
	mods   []Module
	params []*Param
}

var (
	_ Module       = (*Sequential)(nil)
	_ TrainToggler = (*Sequential)(nil)
	_ Container    = (*Sequential)(nil)
)

// NewSequential constructs a chain of modules.
func NewSequential(mods ...Module) *Sequential {
	return &Sequential{mods: mods}
}

// Modules returns the contained modules in order.
func (s *Sequential) Modules() []Module { return s.mods }

// Children implements Container.
func (s *Sequential) Children() []Module { return s.mods }

// Params implements Module. The returned slice is cached (module structure
// is fixed at construction) and must not be mutated.
func (s *Sequential) Params() []*Param {
	if s.params == nil {
		for _, m := range s.mods {
			s.params = append(s.params, m.Params()...)
		}
	}
	return s.params
}

// Forward implements Module.
func (s *Sequential) Forward(x *tensor.Tensor) *tensor.Tensor {
	for _, m := range s.mods {
		x = m.Forward(x)
	}
	return x
}

// Backward implements Module.
func (s *Sequential) Backward(grad *tensor.Tensor) *tensor.Tensor {
	for i := len(s.mods) - 1; i >= 0; i-- {
		grad = s.mods[i].Backward(grad)
	}
	return grad
}

// BackwardParams back-propagates grad through m for its parameter gradients
// only, for callers that throw dL/d(input) away (m is the first block of a
// network, fed by data). Where m's first layer is a convolution, the input
// gradient is never computed; parameter gradients are bit-identical to
// Backward's.
func BackwardParams(m Module, grad *tensor.Tensor) {
	switch v := m.(type) {
	case *Sequential:
		for i := len(v.mods) - 1; i >= 1; i-- {
			grad = v.mods[i].Backward(grad)
		}
		if len(v.mods) > 0 {
			BackwardParams(v.mods[0], grad)
		}
	case *Conv2D:
		v.backward(grad, false)
	default:
		m.Backward(grad)
	}
}

// forwardAdder and backwardAdder are the modules that can add a result at
// its producer: into a caller's buffer instead of one of their own.
type forwardAdder interface{ forwardAdd(x, dst *tensor.Tensor) }

type backwardAdder interface {
	backwardAdd(grad, dst *tensor.Tensor)
}

// ForwardAdd runs m forward on x and adds its output into dst, which must
// have the output's shape, without materialising the output (a cell node
// sums its edges this way). Every element of dst becomes dst + y, the bits
// dst.AddInPlace(m.Forward(x)) gives. A Sequential adds through its last
// module. It reports false, having run nothing, when m cannot add; the caller
// then runs Forward and adds.
func ForwardAdd(m Module, x, dst *tensor.Tensor) bool {
	if s, ok := m.(*Sequential); ok {
		last := len(s.mods) - 1
		if last < 0 || !addsForward(s.mods[last]) {
			return false
		}
		for _, mod := range s.mods[:last] {
			x = mod.Forward(x)
		}
		return ForwardAdd(s.mods[last], x, dst)
	}
	if a, ok := m.(forwardAdder); ok {
		a.forwardAdd(x, dst)
		return true
	}
	return false
}

func addsForward(m Module) bool {
	if s, ok := m.(*Sequential); ok {
		return len(s.mods) > 0 && addsForward(s.mods[len(s.mods)-1])
	}
	_, ok := m.(forwardAdder)
	return ok
}

// BackwardAdd is ForwardAdd's backward: it back-propagates grad through m,
// adding dL/d(input) into dst (a cell's state gradient) instead of
// returning it — the bits dst.AddInPlace(m.Backward(grad)) gives. A
// Sequential adds through its first module. It reports false, having run
// nothing, when m cannot add.
func BackwardAdd(m Module, grad, dst *tensor.Tensor) bool {
	if s, ok := m.(*Sequential); ok {
		if len(s.mods) == 0 || !addsBackward(s.mods[0]) {
			return false
		}
		for i := len(s.mods) - 1; i >= 1; i-- {
			grad = s.mods[i].Backward(grad)
		}
		return BackwardAdd(s.mods[0], grad, dst)
	}
	if a, ok := m.(backwardAdder); ok {
		a.backwardAdd(grad, dst)
		return true
	}
	return false
}

func addsBackward(m Module) bool {
	if s, ok := m.(*Sequential); ok {
		return len(s.mods) > 0 && addsBackward(s.mods[0])
	}
	_, ok := m.(backwardAdder)
	return ok
}

// SetTraining implements TrainToggler, propagating to children.
func (s *Sequential) SetTraining(training bool) {
	SetTraining(training, s.mods...)
}

// NewSepConv builds the DARTS separable convolution block:
// ReLU → depthwise k×k conv → pointwise 1×1 conv → batch norm.
// (The paper's search space applies the DARTS block; we use a single
// depthwise-separable stage instead of DARTS' doubled stage to keep
// participant-side compute tractable on this substrate — see DESIGN.md.)
func NewSepConv(name string, rng *rand.Rand, c, k, stride int) *Sequential {
	pad := k / 2
	return NewSequential(
		NewReLU(),
		NewConv2D(name+".dw", rng, c, c, k, ConvOpts{Stride: stride, Pad: pad, Groups: c}),
		NewConv2D(name+".pw", rng, c, c, 1, ConvOpts{}),
		NewBatchNorm2D(name+".bn", c),
	)
}

// NewDilConv builds the DARTS dilated separable convolution block:
// ReLU → depthwise k×k dilation-2 conv → pointwise 1×1 conv → batch norm.
func NewDilConv(name string, rng *rand.Rand, c, k, stride int) *Sequential {
	dil := 2
	pad := dil * (k - 1) / 2
	return NewSequential(
		NewReLU(),
		NewConv2D(name+".dw", rng, c, c, k, ConvOpts{Stride: stride, Pad: pad, Dilation: dil, Groups: c}),
		NewConv2D(name+".pw", rng, c, c, 1, ConvOpts{}),
		NewBatchNorm2D(name+".bn", c),
	)
}

// NewReLUConvBN builds the DARTS preprocessing block:
// ReLU → k×k conv → batch norm. Used for cell input preprocessing and stems.
func NewReLUConvBN(name string, rng *rand.Rand, inC, outC, k, stride int) *Sequential {
	return NewSequential(
		NewReLU(),
		NewConv2D(name+".conv", rng, inC, outC, k, ConvOpts{Stride: stride, Pad: k / 2}),
		NewBatchNorm2D(name+".bn", outC),
	)
}
