// Package nn is a from-scratch deep-learning substrate: layers with explicit
// forward/backward passes, an SGD optimizer, and gradient-check utilities.
//
// It stands in for the PyTorch+GPU stack the paper used (see DESIGN.md §2).
// Every candidate operation in the DARTS search space — separable and dilated
// convolutions, pooling, identity, zero — is implemented here with real
// gradients, so the federated NAS algorithm above it trains genuinely.
//
// Modules are stateful: Forward caches whatever Backward needs, so each
// module supports exactly one in-flight forward/backward pair. That matches
// how the simulator drives training (strictly sequential per model replica)
// and keeps the implementation simple and allocation-light.
//
// Buffer ownership: tensors returned by Forward and Backward are owned by
// the module and remain valid only until that module's next Forward or
// Backward call, which may overwrite them in place. Callers that need a
// result to outlive the next call must Clone it. This is what makes the
// steady-state training loop allocation-free: every layer reuses its
// output and input-gradient buffers as long as shapes repeat, and their
// storage (under a new tensor header, see tensor.Reuse) whenever a
// differently shaped call fits in it, so batches of varying size cost a
// small header, not a cleared activation, per layer.
package nn

import (
	"fmt"
	"math"

	"fedrlnas/internal/tensor"
)

// Module is a differentiable layer. Input and output layouts are documented
// per implementation; convolutional modules use [N, C, H, W].
type Module interface {
	// Forward computes the layer output for x and caches intermediates.
	Forward(x *tensor.Tensor) *tensor.Tensor
	// Backward consumes dL/d(output) and returns dL/d(input), accumulating
	// parameter gradients into Params().Grad. It must be called after
	// Forward with a gradient matching the last output's shape.
	Backward(grad *tensor.Tensor) *tensor.Tensor
	// Params returns the module's learnable parameters (possibly empty).
	Params() []*Param
}

// TrainToggler is implemented by modules whose behaviour differs between
// training and evaluation (e.g. batch norm).
type TrainToggler interface {
	SetTraining(training bool)
}

// Param is a learnable tensor with its accumulated gradient.
type Param struct {
	Name  string
	Value *tensor.Tensor
	Grad  *tensor.Tensor
}

// NewParam allocates a parameter wrapping value with a zero gradient.
func NewParam(name string, value *tensor.Tensor) *Param {
	return &Param{Name: name, Value: value, Grad: tensor.New(value.Shape()...)}
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// ZeroGrads clears the gradients of every parameter in ps.
func ZeroGrads(ps []*Param) {
	for _, p := range ps {
		p.ZeroGrad()
	}
}

// ParamCount returns the total number of scalar parameters in ps.
func ParamCount(ps []*Param) int {
	n := 0
	for _, p := range ps {
		n += p.Value.Size()
	}
	return n
}

// ParamBytes returns the float32 wire size of ps, the payload a real
// deployment would transmit (used for the paper's MB figures).
func ParamBytes(ps []*Param) int64 {
	var n int64
	for _, p := range ps {
		n += p.Value.Float32WireSize()
	}
	return n
}

// CloneParamValues deep-copies the parameter values (snapshot for staleness
// memory pools and for participant-local model replicas).
func CloneParamValues(ps []*Param) []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(ps))
	for i, p := range ps {
		out[i] = p.Value.Clone()
	}
	return out
}

// ParamHash fingerprints parameter values to the bit: 64-bit FNV-1a over the
// little-endian bytes of every value, in order. It is the θ hash every
// determinism pin in this repository is stated in.
func ParamHash(ps []*Param) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, p := range ps {
		for _, v := range p.Value.Data() {
			bits := math.Float64bits(v)
			for i := 0; i < 64; i += 8 {
				h ^= uint64(byte(bits >> i))
				h *= prime64
			}
		}
	}
	return h
}

// RestoreParamValues copies snapshot values back into ps.
func RestoreParamValues(ps []*Param, snap []*tensor.Tensor) error {
	if len(ps) != len(snap) {
		return fmt.Errorf("restore: %d params vs %d snapshot tensors", len(ps), len(snap))
	}
	for i, p := range ps {
		if !p.Value.SameShape(snap[i]) {
			return fmt.Errorf("restore: param %q shape %v vs snapshot %v",
				p.Name, p.Value.Shape(), snap[i].Shape())
		}
		p.Value.CopyFrom(snap[i])
	}
	return nil
}

// CloneParamGrads deep-copies the parameter gradients.
func CloneParamGrads(ps []*Param) []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(ps))
	for i, p := range ps {
		out[i] = p.Grad.Clone()
	}
	return out
}

// SetTraining walks modules and toggles any that implement TrainToggler.
func SetTraining(training bool, ms ...Module) {
	for _, m := range ms {
		if t, ok := m.(TrainToggler); ok {
			t.SetTraining(training)
		}
	}
}

// conv output size helper shared by conv and pooling layers.
func convOutDim(in, kernel, stride, pad, dilation int) int {
	eff := dilation*(kernel-1) + 1
	return (in+2*pad-eff)/stride + 1
}

func mustDims4(x *tensor.Tensor, who string) (n, c, h, w int) {
	if x.Dims() != 4 {
		panic(fmt.Sprintf("nn: %s expects [N,C,H,W] input, got shape %v", who, x.Shape()))
	}
	return x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
}
