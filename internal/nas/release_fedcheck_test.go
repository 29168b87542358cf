//go:build fedcheck

package nas

import (
	"math"
	"math/rand"
	"testing"

	"fedrlnas/internal/nn"
	"fedrlnas/internal/tensor"
)

// holder is a cell edge's op that takes step storage on its way back and
// keeps a slice of it past its lifetime. Its Backward first records whether
// the storage the previous holder kept reads as the poison.
type holder struct {
	ar           *tensor.Arena
	prev         *holder
	out, gx      tensor.Tensor
	kept         []float64
	prevPoisoned bool
}

func (h *holder) Forward(x *tensor.Tensor) *tensor.Tensor {
	out := h.ar.TakeLike(&h.out, x)
	out.CopyFrom(x)
	return out
}

func (h *holder) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if h.prev != nil {
		h.prevPoisoned = allNaN(h.prev.kept) && allNaN(h.prev.gx.Data())
	}
	h.kept = h.ar.Floats(grad.Size())
	for i := range h.kept {
		h.kept[i] = 1
	}
	gx := h.ar.TakeLike(&h.gx, grad)
	gx.CopyFrom(grad)
	return gx
}

func (h *holder) Params() []*nn.Param { return nil }

func allNaN(s []float64) bool {
	for _, v := range s {
		if !math.IsNaN(v) {
			return false
		}
	}
	return len(s) > 0
}

// Under fedcheck, what an edge took on its way back reads as the poison as
// soon as its input gradient has been added into a state's gradient: the
// scratch it kept and the gradient it returned. Node 0's edge from s1 adds
// into the gradient node 1's edge from s1 started, and node 0's edge from
// s0, walked next, looks at what the first one kept before taking anything.
// The gradients the cell keeps — each input's first contribution, and what
// pre0 and pre1 return from them — stay finite.
func TestCellReleasesAddedEdgeBackward(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var ar tensor.Arena
	cell := NewCell("c", rng, CellSpec{Nodes: 2, C: 4, CPrevPrev: 4, CPrev: 4}, []OpKind{OpIdentity})
	cell.ar = &ar
	nn.BindArena(&ar, cell.pre0, cell.pre1)
	for _, e := range cell.Edges {
		nn.BindArena(&ar, e.ops...)
	}
	added := &holder{ar: &ar}
	checker := &holder{ar: &ar, prev: added}
	cell.Edges[1].ops[0], cell.Edges[0].ops[0] = added, checker

	s0, s1 := tensor.Randn(rng, 1, 2, 4, 4, 4), tensor.Randn(rng, 1, 2, 4, 4, 4)
	for step := 0; step < 2; step++ {
		ar.Reset()
		out := cell.ForwardSampled(s0, s1, make([]int, len(cell.Edges)))
		gs0, gs1, _ := cell.Backward(tensor.Randn(rng, 1, out.Shape()...))
		if !checker.prevPoisoned {
			t.Fatalf("step %d: an added edge's backward storage still reads as data after the release", step)
		}
		for _, g := range []*tensor.Tensor{gs0, gs1} {
			for i, v := range g.Data() {
				if math.IsNaN(v) {
					t.Fatalf("step %d: a returned input gradient reads the poison at %d", step, i)
				}
			}
		}
	}
}
