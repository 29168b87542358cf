//go:build fedcheck

package nn

import (
	"math"
	"testing"

	"fedrlnas/internal/tensor"
)

// echo is a deliberately broken layer: its output adds what its previous
// step's output held: storage the arena released when this step began, the
// way a depthwise plane whose zero border was written once and then trusted
// would read it.
type echo struct {
	arenaRef
	out  tensor.Tensor
	last []float64
}

func (e *echo) Forward(x *tensor.Tensor) *tensor.Tensor {
	ar := e.stepArena()
	carry := 0.0
	if e.last != nil {
		carry = e.last[0] // the bug: released storage
	}
	out := ar.TakeLike(&e.out, x)
	for i, v := range x.Data() {
		out.Data()[i] = v + carry
	}
	e.last = out.Data()
	return out
}

func (e *echo) Backward(grad *tensor.Tensor) *tensor.Tensor { return grad }
func (e *echo) Params() []*Param                            { return nil }

// Under fedcheck a layer that reads its previous step's output sees the
// poison, whether the layer resets its own arena or a model resets the one
// it is bound to.
func TestReadingPreviousStepSeesPoison(t *testing.T) {
	x := tensor.Full(1, 2, 3)
	standalone := &echo{}
	bound := &echo{}
	var model tensor.Arena
	BindArena(&model, NewSequential(bound))
	for step := 0; step < 2; step++ {
		model.Reset()
		a, b := standalone.Forward(x).Data()[0], bound.Forward(x).Data()[0]
		if step == 1 && !(math.IsNaN(a) && math.IsNaN(b)) {
			t.Fatalf("step 2 read its released output as %v (own arena) / %v (model's), want the poison's NaN", a, b)
		}
	}
}
