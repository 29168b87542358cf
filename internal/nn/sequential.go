package nn

import (
	"math"
	"math/rand"

	"fedrlnas/internal/tensor"
)

// Sequential chains modules, feeding each one's output to the next.
type Sequential struct {
	mods   []Module
	params []*Param

	fold convFold
}

// convFold, while conv is set, runs a Sequential's trailing conv→BN pair as
// that conv with weight w and bias b (Sequential.Fold).
type convFold struct {
	conv *Conv2D
	w, b []float64
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
	if f := &s.fold; f.conv != nil {
		return f.conv.forwardWith(s.forwardUnfolded(x), f.w, f.b, nil)
	}
	for _, m := range s.mods {
		x = m.Forward(x)
	}
	return x
}

// forwardUnfolded runs the modules ahead of a folded conv→BN pair.
func (s *Sequential) forwardUnfolded(x *tensor.Tensor) *tensor.Tensor {
	for _, m := range s.mods[:len(s.mods)-2] {
		x = m.Forward(x)
	}
	return x
}

// FoldLen returns the lengths of the weight and bias a Fold of s writes,
// or 0, 0 when s does not end in a dense Conv2D followed by the BatchNorm2D
// of its output.
func (s *Sequential) FoldLen() (w, b int) {
	conv, bn := s.convBN()
	if bn == nil {
		return 0, 0
	}
	return conv.weight.Value.Size(), conv.OutC
}

func (s *Sequential) convBN() (*Conv2D, *BatchNorm2D) {
	if len(s.mods) < 2 {
		return nil, nil
	}
	conv, ok := s.mods[len(s.mods)-2].(*Conv2D)
	bn, ok2 := s.mods[len(s.mods)-1].(*BatchNorm2D)
	if !ok || !ok2 || conv.Groups != 1 || bn.C != conv.OutC {
		return nil, nil
	}
	return conv, bn
}

// Fold makes s, in eval mode, run its trailing conv→BN pair as one conv:
// it writes the pair's fold into w and b (lengths FoldLen),
//
//	w′ = w·γ/√(var+ε)    b′ = (b−μ)·γ/√(var+ε) + β,
//
// from the conv's current weight and bias and the batch norm's γ, β and
// running statistics, and from then on Forward and ForwardAdd run the conv
// with w′ and b′ and skip the batch norm. The fold is a snapshot: parameters
// or statistics changed later are not seen until Fold runs again. Nothing
// may run Backward through s while it is folded; SetTraining(true) drops
// the fold. It panics when s has no pair to fold.
func (s *Sequential) Fold(w, b []float64) {
	conv, bn := s.convBN()
	if bn == nil {
		panic("nn: Fold on a Sequential that does not end in a dense conv and its batch norm")
	}
	cw := conv.weight.Value.Data()
	per := len(cw) / conv.OutC
	gamma, beta := bn.gamma.Value.Data(), bn.beta.Value.Data()
	for oc := 0; oc < conv.OutC; oc++ {
		scale := gamma[oc] / math.Sqrt(bn.runningVar[oc]+bn.Eps)
		for i, v := range cw[oc*per : (oc+1)*per] {
			w[oc*per+i] = v * scale
		}
		cb := 0.0
		if conv.bias != nil {
			cb = conv.bias.Value.Data()[oc]
		}
		b[oc] = (cb-bn.runningMean[oc])*scale + beta[oc]
	}
	s.fold = convFold{conv, w[:len(cw)], b[:conv.OutC]}
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
// module, a folded one through its conv (dst + (y + b′)). It reports false,
// having run nothing, when m cannot add; the caller then runs Forward and
// adds.
func ForwardAdd(m Module, x, dst *tensor.Tensor) bool {
	if s, ok := m.(*Sequential); ok {
		if f := &s.fold; f.conv != nil {
			f.conv.forwardWith(s.forwardUnfolded(x), f.w, f.b, dst)
			return true
		}
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
		return s.fold.conv != nil || len(s.mods) > 0 && addsForward(s.mods[len(s.mods)-1])
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

// SetTraining implements TrainToggler, propagating to children. Entering
// training mode drops a Fold.
func (s *Sequential) SetTraining(training bool) {
	if training {
		s.fold = convFold{}
	}
	SetTraining(training, s.mods...)
}

// NewSepConv builds the DARTS separable convolution block:
// ReLU → depthwise k×k conv → pointwise 1×1 conv → batch norm, the ReLU
// applied by the depthwise conv to its own input (depthwise.go), so the
// rectified input is never stored.
// (The paper's search space applies the DARTS block; we use a single
// depthwise-separable stage instead of DARTS' doubled stage to keep
// participant-side compute tractable on this substrate — see DESIGN.md.)
func NewSepConv(name string, rng *rand.Rand, c, k, stride int) *Sequential {
	pad := k / 2
	return newReLUSepConv(name, rng, c, k, ConvOpts{Stride: stride, Pad: pad, Groups: c})
}

// NewDilConv builds the DARTS dilated separable convolution block:
// ReLU → depthwise k×k dilation-2 conv → pointwise 1×1 conv → batch norm,
// the ReLU applied as in NewSepConv.
func NewDilConv(name string, rng *rand.Rand, c, k, stride int) *Sequential {
	dil := 2
	pad := dil * (k - 1) / 2
	return newReLUSepConv(name, rng, c, k, ConvOpts{Stride: stride, Pad: pad, Dilation: dil, Groups: c})
}

// newReLUSepConv builds ReLU → depthwise → pointwise → batch norm, the ReLU
// folded into the depthwise layer. A one-channel "depthwise" layer is a
// dense one (Groups 1), which keeps the ReLU module.
func newReLUSepConv(name string, rng *rand.Rand, c, k int, dw ConvOpts) *Sequential {
	mods := []Module{NewConv2D(name+".dw", rng, c, c, k, dw)}
	if conv := mods[0].(*Conv2D); conv.Groups > 1 {
		conv.reluIn = true
	} else {
		mods = append([]Module{NewReLU()}, mods...)
	}
	return NewSequential(append(mods,
		NewConv2D(name+".pw", rng, c, c, 1, ConvOpts{}),
		NewBatchNorm2D(name+".bn", c),
	)...)
}

// NewReLUConvBN builds the DARTS preprocessing block a cell runs on each of
// its inputs: ReLU → 1×1 conv → batch norm. A strided 1×1 conv reads one
// pixel per output, so a strided block runs as ReLU → SubSample → pointwise
// conv → batch norm: the same parameters, drawn from rng in the same order,
// and the same bits (each output is the same one chain over the input
// channels), with the conv on the batched pointwise path instead of a
// lowered column matrix.
func NewReLUConvBN(name string, rng *rand.Rand, inC, outC, stride int) *Sequential {
	mods := []Module{NewReLU()}
	if stride > 1 {
		mods = append(mods, NewSubSample(stride))
	}
	return NewSequential(append(mods,
		NewConv2D(name+".conv", rng, inC, outC, 1, ConvOpts{}),
		NewBatchNorm2D(name+".bn", outC),
	)...)
}
