package nn

import (
	"math/rand"

	"fedrlnas/internal/tensor"
)

// Residual wraps a body module with an identity skip connection:
// y = body(x) + x. The body must preserve the input shape.
type Residual struct {
	body Module
}

var (
	_ Module       = (*Residual)(nil)
	_ TrainToggler = (*Residual)(nil)
	_ Container    = (*Residual)(nil)
)

// NewResidual constructs a residual block around body.
func NewResidual(body Module) *Residual { return &Residual{body: body} }

// NewBasicBlock builds the ResNet basic block at c channels:
// conv3x3–bn–relu–conv3x3–bn inside an identity skip.
func NewBasicBlock(name string, rng *rand.Rand, c int) *Residual {
	return NewResidual(NewSequential(
		NewConv2D(name+".conv1", rng, c, c, 3, ConvOpts{Pad: 1}),
		NewBatchNorm2D(name+".bn1", c),
		NewReLU(),
		NewConv2D(name+".conv2", rng, c, c, 3, ConvOpts{Pad: 1}),
		NewBatchNorm2D(name+".bn2", c),
	))
}

// Children implements Container.
func (r *Residual) Children() []Module { return []Module{r.body} }

// Params implements Module.
func (r *Residual) Params() []*Param { return r.body.Params() }

// Forward implements Module. It adds the skip into the body's output in
// place, so the body must not end in a ReLU (see ReLU).
func (r *Residual) Forward(x *tensor.Tensor) *tensor.Tensor {
	out := r.body.Forward(x)
	out.AddInPlace(x)
	return out
}

// Backward implements Module.
func (r *Residual) Backward(grad *tensor.Tensor) *tensor.Tensor {
	gin := r.body.Backward(grad)
	gin.AddInPlace(grad)
	return gin
}

// SetTraining implements TrainToggler.
func (r *Residual) SetTraining(training bool) { SetTraining(training, r.body) }
