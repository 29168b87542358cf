package nas

import (
	"math"
	"math/rand"
	"testing"

	"fedrlnas/internal/nn"
	"fedrlnas/internal/tensor"
)

// standaloneCell builds a cell outside any supernet, bound to its own arena
// (as Supernet.bindArena binds its cells).
func standaloneCell(seed int64, spec CellSpec) *Cell {
	c := NewCell("c", rand.New(rand.NewSource(seed)), spec, AllOps)
	c.ar = new(tensor.Arena)
	nn.BindArena(c.ar, c.pre0, c.pre1)
	for _, e := range c.Edges {
		nn.BindArena(c.ar, e.ops...)
	}
	return c
}

// oracleForward is the node sum the producer-side sums replaced: every edge
// runs, none included, and each node is its first edge's output with the
// others added by AddInPlace.
func oracleForward(c *Cell, s0, s1 *tensor.Tensor, gates []int) *tensor.Tensor {
	states := []*tensor.Tensor{c.pre0.Forward(s0), c.pre1.Forward(s1)}
	edge := 0
	for i := 0; i < c.Spec.Nodes; i++ {
		var node *tensor.Tensor
		for j := 0; j < 2+i; j++ {
			out := c.Edges[edge].ForwardSampled(states[j], gates[edge])
			if node == nil {
				node = out
			} else {
				node.AddInPlace(out)
			}
			edge++
		}
		states = append(states, node)
	}
	return c.concatStates(states[2:])
}

// oracleBackward is oracleForward's backward: every edge's input gradient is
// materialised and added with AddInPlace.
func oracleBackward(c *Cell, grad *tensor.Tensor) (gs0, gs1 *tensor.Tensor) {
	stateGrads := c.splitGrad(grad)
	stateGrads[0], stateGrads[1] = nil, nil
	edgeEnd := len(c.Edges)
	for i := c.Spec.Nodes - 1; i >= 0; i-- {
		edgeStart := edgeEnd - (2 + i)
		for j := 2 + i - 1; j >= 0; j-- {
			gin := c.Edges[edgeStart+j].BackwardSampled(stateGrads[2+i])
			if stateGrads[j] == nil {
				stateGrads[j] = gin
			} else {
				stateGrads[j].AddInPlace(gin)
			}
		}
		edgeEnd = edgeStart
	}
	return c.pre0.Backward(stateGrads[0]), c.pre1.Backward(stateGrads[1])
}

// requireEqualUpToZeroSign compares bits, except that +0 and -0 match: the
// only difference skipping a none edge may make.
func requireEqualUpToZeroSign(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(got[i] == 0 && want[i] == 0) {
			t.Fatalf("%s[%d] = %v, want %v", what, i, got[i], want[i])
		}
	}
}

// TestProducerNodeSumsMatchAddInPlace runs the same cell weights through
// ForwardSampled/Backward and through the AddInPlace oracle, forward and
// backward, and requires the same output, input gradients and parameter
// gradients. The gate sets cover a node whose first edge is none, one whose
// first edge is an identity, a node whose edges are all none, cell inputs
// whose every edge is none, and random sub-models, in a normal and a
// reduction cell.
func TestProducerNodeSumsMatchAddInPlace(t *testing.T) {
	const (
		zero  = 0
		ident = 1
		maxP  = 2
		avgP  = 3
		sep3  = 4
		sep5  = 5
		dil3  = 6
	)
	// Two nodes: edges (node0: s0, s1), (node1: s0, s1, n0).
	named := [][]int{
		{zero, sep3, ident, maxP, sep5},   // node 0 starts with none, node 1 with an identity
		{zero, zero, dil3, ident, avgP},   // node 0 is all none
		{zero, zero, zero, zero, ident},   // no edge leaves either cell input
		{ident, ident, avgP, zero, ident}, // identities first and last
		{sep3, zero, zero, maxP, zero},    // s1 reaches node 1 only
	}
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 12; i++ {
		g := make([]int, NumEdges(2))
		for e := range g {
			g[e] = rng.Intn(NumOps)
		}
		named = append(named, g)
	}
	for _, red := range []bool{false, true} {
		spec := CellSpec{Nodes: 2, C: 4, CPrevPrev: 4, CPrev: 4, Reduction: red}
		got, want := standaloneCell(7, spec), standaloneCell(7, spec)
		for _, gates := range named {
			s0 := tensor.Randn(rng, 1, 4, 4, 8, 8)
			s1 := tensor.Randn(rng, 1, 4, 4, 8, 8)
			for k, v := range s0.Data() {
				if k%5 == 0 {
					s0.Data()[k] = 0
				}
				if k%7 == 0 {
					s1.Data()[k] = math.Copysign(0, -1)
				} else if k%3 == 0 {
					s1.Data()[k] = -v
				}
			}
			got.ar.Reset()
			want.ar.Reset()
			nn.ZeroGrads(got.Params())
			nn.ZeroGrads(want.Params())
			out := got.ForwardSampled(s0, s1, gates)
			wantOut := oracleForward(want, s0, s1, gates)
			requireEqualUpToZeroSign(t, "cell output", out.Data(), wantOut.Data())

			grad := tensor.Randn(rng, 1, out.Shape()...)
			gs0, gs1, _ := got.Backward(grad)
			ws0, ws1 := oracleBackward(want, grad)
			requireEqualUpToZeroSign(t, "gradient of s0", gs0.Data(), ws0.Data())
			requireEqualUpToZeroSign(t, "gradient of s1", gs1.Data(), ws1.Data())
			gp, wp := got.Params(), want.Params()
			for k := range gp {
				requireEqualUpToZeroSign(t, gp[k].Name+" gradient", gp[k].Grad.Data(), wp[k].Grad.Data())
			}
		}
	}
}
