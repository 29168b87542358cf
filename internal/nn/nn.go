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
// Buffer ownership: every activation, mask, scratch and input-gradient
// buffer is taken from a tensor.Arena — the arena of the model that owns the
// module (BindArena), which the model resets when a step starts, or else a
// private one the module resets at its own Forward. Tensors returned by
// Forward and Backward therefore remain valid until the owning model's next
// forward, header included: the next step rewrites them in place. Callers
// that need a result to outlive it must Clone it. Storage that dies inside
// a step goes back to the arena sooner (tensor.Arena.Release): an op's lane
// plans, planes and scratch when the call that took them returns, and a
// nas cell edge's backward storage once its input gradient has been added
// into a state's gradient; what an op returns is never released by the op. Modules keep only
// parameters, shape plans and tensor headers, so a model holds the buffers of
// the one sub-model its step runs, and a steady-state step allocates nothing.
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
func CloneParamValues(ps []*Param) []*tensor.Tensor { return SnapshotParamValues(nil, ps) }

// SnapshotParamValues is CloneParamValues into dst: a tensor of dst whose
// shape matches its parameter's is overwritten in place, so a snapshot
// retaken every round allocates only the first time. It returns the
// snapshot.
func SnapshotParamValues(dst []*tensor.Tensor, ps []*Param) []*tensor.Tensor {
	if len(dst) != len(ps) {
		dst = make([]*tensor.Tensor, len(ps))
	}
	for i, p := range ps {
		if dst[i] == nil || !dst[i].SameShape(p.Value) {
			dst[i] = p.Value.Clone()
		} else {
			dst[i].CopyFrom(p.Value)
		}
	}
	return dst
}

// ParamHash fingerprints parameter values to the bit: 64-bit FNV-1a over the
// little-endian bytes of every value, in order. It is the θ hash every
// determinism pin in this repository is stated in.
func ParamHash(ps []*Param) uint64 {
	h := uint64(fnvOffset)
	for _, p := range ps {
		h = hashFloats(h, p.Value.Data())
	}
	return h
}

const fnvOffset = 14695981039346656037

// hashFloats continues the FNV-1a hash h over the little-endian bytes of vs.
func hashFloats(h uint64, vs []float64) uint64 {
	const prime64 = 1099511628211
	for _, v := range vs {
		bits := math.Float64bits(v)
		for i := 0; i < 64; i += 8 {
			h ^= uint64(byte(bits >> i))
			h *= prime64
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

// arenaRef is where a module's step-scoped buffers come from.
type arenaRef struct {
	ar      *tensor.Arena
	private bool // ar is the module's own, reset by its Forward
}

// stepArena returns the arena a Forward takes from, resetting it when it is
// the module's private one (created on first use outside any model).
func (r *arenaRef) stepArena() *tensor.Arena {
	if r.ar == nil {
		r.ar, r.private = new(tensor.Arena), true
	}
	if r.private {
		r.ar.Reset()
	}
	return r.ar
}

func (r *arenaRef) bindArena(a *tensor.Arena) { r.ar, r.private = a, false }

// BindArena makes a the arena of every module in the trees rooted at ms; the
// model that owns a resets it when a step starts.
func BindArena(a *tensor.Arena, ms ...Module) {
	for _, m := range ms {
		if b, ok := m.(interface{ bindArena(*tensor.Arena) }); ok {
			b.bindArena(a)
		}
		if c, ok := m.(Container); ok {
			BindArena(a, c.Children()...)
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
