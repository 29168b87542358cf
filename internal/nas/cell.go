package nas

import (
	"fmt"
	"math/rand"

	"fedrlnas/internal/nn"
	"fedrlnas/internal/tensor"
)

// NumEdges returns the number of edges in a cell with b intermediate nodes:
// node i receives an edge from the 2 cell inputs and all earlier
// intermediates, so the total is 2b + b(b-1)/2.
func NumEdges(b int) int { return 2*b + b*(b-1)/2 }

// MixedOp is one cell edge holding every candidate operation. In sampled
// mode exactly one candidate runs (the paper's binary gate, Eq. 5–6); in
// mixed mode all candidates run and are blended by a probability vector
// (the DARTS relaxation, Eq. 3 — used by the DARTS/FedNAS baselines).
type MixedOp struct {
	Candidates []OpKind
	ops        []nn.Module
	params     []*nn.Param

	lastSampled int              // candidate index used in sampled mode
	lastOutputs []*tensor.Tensor // per-candidate outputs in mixed mode
	lastProbs   []float64        // blend weights in mixed mode
}

// newMixedOp materializes the candidates for an edge.
func newMixedOp(name string, rng *rand.Rand, candidates []OpKind, c, stride int) *MixedOp {
	m := &MixedOp{
		Candidates: append([]OpKind(nil), candidates...),
		ops:        make([]nn.Module, len(candidates)),
	}
	for i, k := range candidates {
		m.ops[i] = NewOp(k, fmt.Sprintf("%s.%s", name, k), rng, c, stride)
	}
	return m
}

// Op returns the materialized module for candidate i.
func (m *MixedOp) Op(i int) nn.Module { return m.ops[i] }

// Params returns the parameters of every candidate. The returned slice is
// cached (candidates are fixed at construction) and must not be mutated.
func (m *MixedOp) Params() []*nn.Param {
	if m.params == nil {
		for _, op := range m.ops {
			m.params = append(m.params, op.Params()...)
		}
	}
	return m.params
}

// ForwardSampled runs only candidate k.
func (m *MixedOp) ForwardSampled(x *tensor.Tensor, k int) *tensor.Tensor {
	m.lastSampled = k
	return m.ops[k].Forward(x)
}

// BackwardSampled back-propagates through the candidate used by the last
// ForwardSampled.
func (m *MixedOp) BackwardSampled(grad *tensor.Tensor) *tensor.Tensor {
	return m.ops[m.lastSampled].Backward(grad)
}

// forwardSampledAdd runs candidate k adding its output into dst
// (nn.ForwardAdd); false means it ran nothing.
func (m *MixedOp) forwardSampledAdd(x *tensor.Tensor, k int, dst *tensor.Tensor) bool {
	if !nn.ForwardAdd(m.ops[k], x, dst) {
		return false
	}
	m.lastSampled = k
	return true
}

// backwardSampledAdd is BackwardSampled adding dL/d(input) into dst
// (nn.BackwardAdd); false means it ran nothing.
func (m *MixedOp) backwardSampledAdd(grad, dst *tensor.Tensor) bool {
	return nn.BackwardAdd(m.ops[m.lastSampled], grad, dst)
}

// ForwardMixed runs every candidate and blends with probs (Eq. 3).
func (m *MixedOp) ForwardMixed(x *tensor.Tensor, probs []float64) *tensor.Tensor {
	if len(probs) != len(m.ops) {
		panic(fmt.Sprintf("nas: %d probs for %d candidates", len(probs), len(m.ops)))
	}
	m.lastOutputs = make([]*tensor.Tensor, len(m.ops))
	m.lastProbs = append([]float64(nil), probs...)
	var out *tensor.Tensor
	for i, op := range m.ops {
		o := op.Forward(x)
		m.lastOutputs[i] = o
		if out == nil {
			out = o.Scale(probs[i])
		} else {
			out.AXPY(probs[i], o)
		}
	}
	return out
}

// BackwardMixed back-propagates a mixed forward. It returns dL/d(input) and
// dL/d(probs), the per-candidate sensitivity Σ grad⊙opOutput that baselines
// chain through the softmax to get architecture gradients.
func (m *MixedOp) BackwardMixed(grad *tensor.Tensor) (*tensor.Tensor, []float64) {
	dProbs := make([]float64, len(m.ops))
	var gradX *tensor.Tensor
	for i, op := range m.ops {
		dProbs[i] = grad.Dot(m.lastOutputs[i])
		gx := op.Backward(grad.Scale(m.lastProbs[i]))
		if gradX == nil {
			gradX = gx
		} else {
			gradX.AddInPlace(gx)
		}
	}
	return gradX, dProbs
}

// CellSpec describes a cell's position-dependent wiring.
type CellSpec struct {
	Nodes         int  // intermediate nodes (b)
	C             int  // channels per node
	CPrevPrev     int  // channels of input s0
	CPrev         int  // channels of input s1
	Reduction     bool // this cell halves spatial resolution
	PrevReduction bool // the previous cell was a reduction cell
}

// Cell is one DARTS cell: two preprocessed inputs, b intermediate nodes
// connected by MixedOp edges, output = channel-concat of the intermediates.
type Cell struct {
	Spec   CellSpec
	pre0   *nn.Sequential
	pre1   *nn.Sequential
	Edges  []*MixedOp // ordered: node0's edges (from s0, s1), node1's (s0, s1, n0), …
	params []*nn.Param

	// forward caches
	lastStates    []*tensor.Tensor
	lastGates     []int
	lastMixed     bool
	lastEdgeProbs [][]float64

	// ar is the owning network's arena, which backs the concat output and
	// the per-node gradient slices (nn's buffer-ownership contract).
	ar         *tensor.Arena
	concatBuf  tensor.Tensor
	splitBufs  []tensor.Tensor
	stateGrads []*tensor.Tensor
	zeroGrads  [2]tensor.Tensor // an input's gradient when every edge from it is none
}

// NewCell materializes a cell. candidates is the per-edge candidate set
// (identical for all edges); pass a single-op set to build a derived
// (post-search) cell.
func NewCell(name string, rng *rand.Rand, spec CellSpec, candidates []OpKind) *Cell {
	if spec.Nodes < 1 {
		panic("nas: cell needs at least one intermediate node")
	}
	pre0Stride := 1
	if spec.PrevReduction {
		pre0Stride = 2 // s0 comes from two cells back; match s1's resolution
	}
	c := &Cell{
		Spec:       spec,
		pre0:       nn.NewReLUConvBN(name+".pre0", rng, spec.CPrevPrev, spec.C, pre0Stride),
		pre1:       nn.NewReLUConvBN(name+".pre1", rng, spec.CPrev, spec.C, 1),
		splitBufs:  make([]tensor.Tensor, spec.Nodes),
		stateGrads: make([]*tensor.Tensor, 2+spec.Nodes),
	}
	edge := 0
	for i := 0; i < spec.Nodes; i++ {
		for j := 0; j < 2+i; j++ {
			stride := 1
			if spec.Reduction && j < 2 {
				stride = 2 // only edges from the cell inputs reduce
			}
			c.Edges = append(c.Edges,
				newMixedOp(fmt.Sprintf("%s.e%d", name, edge), rng, candidates, spec.C, stride))
			edge++
		}
	}
	return c
}

// OutChannels returns the channel count of the cell output.
func (c *Cell) OutChannels() int { return c.Spec.Nodes * c.Spec.C }

// Params returns every parameter in the cell (all candidates). The returned
// slice is cached and must not be mutated.
func (c *Cell) Params() []*nn.Param {
	if c.params == nil {
		c.params = c.appendParams(nil)
	}
	return c.params
}

func (c *Cell) appendParams(ps []*nn.Param) []*nn.Param {
	ps = append(ps, c.pre0.Params()...)
	ps = append(ps, c.pre1.Params()...)
	for _, e := range c.Edges {
		ps = append(ps, e.Params()...)
	}
	return ps
}

// SampledParams returns the preprocessing parameters plus only the
// parameters of the gated candidate on each edge — the sub-model payload.
func (c *Cell) SampledParams(gates []int) []*nn.Param {
	return c.AppendSampledParams(nil, gates)
}

// AppendSampledParams appends the sampled sub-model's parameters to ps and
// returns it — the no-alloc form of SampledParams for callers that own a
// reusable buffer.
func (c *Cell) AppendSampledParams(ps []*nn.Param, gates []int) []*nn.Param {
	ps = append(ps, c.pre0.Params()...)
	ps = append(ps, c.pre1.Params()...)
	for e, g := range gates {
		ps = append(ps, c.Edges[e].Op(g).Params()...)
	}
	return ps
}

// BatchNorms returns the cell's batch-norm layers in structural order
// (pre0, pre1, then each edge's candidates in order).
func (c *Cell) BatchNorms() []*nn.BatchNorm2D {
	bns := nn.CollectBatchNorms(c.pre0, c.pre1)
	for _, e := range c.Edges {
		bns = append(bns, nn.CollectBatchNorms(e.ops...)...)
	}
	return bns
}

// SetTraining toggles train/eval mode on every contained module.
func (c *Cell) SetTraining(training bool) {
	c.pre0.SetTraining(training)
	c.pre1.SetTraining(training)
	for _, e := range c.Edges {
		nn.SetTraining(training, e.ops...)
	}
}

// ForwardSampled runs the cell with one-hot gates (one op per edge).
//
// A node is summed at its producers: the first edge that is not none
// returns the node's buffer, and every later one adds into it — an edge
// ending in batch norm adds straight from its normalisation, an identity adds
// its input, and any other op adds the output it returns. None edges are
// skipped, and a node whose every edge is none takes the first one's zeros.
// Each element receives its edges' terms in edge order, as a sum that
// started from the first edge's output with AddInPlace would; skipping a
// none edge can only change the sign of an exact zero, which every reader of
// a node state (a ReLU, a separable op's depthwise conv rectifying it, a
// pool, a sum started at +0) cannot tell apart. Later edges add into the
// first edge's output, so no op may end in a ReLU, whose Backward reads its
// mask off that output (see nn.ReLU); every op ends in batch norm or is a
// pool, an identity copy, a subsample or zeros. A finished state is never
// written again, so a separable op may read its ReLU mask off its input.
func (c *Cell) ForwardSampled(s0, s1 *tensor.Tensor, gates []int) *tensor.Tensor {
	if len(gates) != len(c.Edges) {
		panic(fmt.Sprintf("nas: %d gates for %d edges", len(gates), len(c.Edges)))
	}
	c.lastMixed = false
	c.lastGates = append(c.lastGates[:0], gates...)
	states := append(c.lastStates[:0], c.pre0.Forward(s0), c.pre1.Forward(s1))
	edge := 0
	for i := 0; i < c.Spec.Nodes; i++ {
		var node *tensor.Tensor
		for j := 0; j < 2+i; j++ {
			e, k := c.Edges[edge], gates[edge]
			switch {
			case e.Candidates[k] == OpZero:
			case node == nil:
				node = e.ForwardSampled(states[j], k)
			case !e.forwardSampledAdd(states[j], k, node):
				node.AddInPlace(e.ForwardSampled(states[j], k))
			}
			edge++
		}
		if node == nil {
			first := edge - (2 + i)
			node = c.Edges[first].ForwardSampled(states[0], gates[first])
		}
		states = append(states, node)
	}
	c.lastStates = states
	return c.concatStates(states[2:])
}

// ForwardMixed runs the cell with all candidates blended by edgeProbs
// (per-edge probability vectors).
func (c *Cell) ForwardMixed(s0, s1 *tensor.Tensor, edgeProbs [][]float64) *tensor.Tensor {
	if len(edgeProbs) != len(c.Edges) {
		panic(fmt.Sprintf("nas: %d prob rows for %d edges", len(edgeProbs), len(c.Edges)))
	}
	c.lastMixed = true
	c.lastEdgeProbs = edgeProbs
	states := append(c.lastStates[:0], c.pre0.Forward(s0), c.pre1.Forward(s1))
	edge := 0
	for i := 0; i < c.Spec.Nodes; i++ {
		var node *tensor.Tensor
		for j := 0; j < 2+i; j++ {
			out := c.Edges[edge].ForwardMixed(states[j], edgeProbs[edge])
			if node == nil {
				node = out
			} else {
				node.AddInPlace(out)
			}
			edge++
		}
		states = append(states, node)
	}
	c.lastStates = states
	return c.concatStates(states[2:])
}

// Backward back-propagates the cell. It returns gradients for (s0, s1) and,
// after a mixed forward, the per-edge dL/d(probs) rows (nil after sampled).
//
// Storage an edge takes on its way back dies once its input gradient has
// been added into a state's gradient, so the arena releases it there: the
// edge's internal gradients, scratch and, when it returned one, the input
// gradient it added. A gradient that is kept — an edge's first
// contribution to a state, which becomes that state's gradient, or what
// pre0 and pre1 return — is never released: the takes nest, and a release
// only rewinds to a mark set after everything kept.
func (c *Cell) Backward(grad *tensor.Tensor) (gs0, gs1 *tensor.Tensor, dProbs [][]float64) {
	// stateGrads[j] accumulates dL/d(states[j]); a node's entry starts as
	// its slice of grad.
	stateGrads := c.splitGrad(grad)
	stateGrads[0], stateGrads[1] = nil, nil
	if c.lastMixed {
		dProbs = make([][]float64, len(c.Edges))
	}
	// Walk nodes in reverse; edge indices for node i are contiguous.
	edgeEnd := len(c.Edges)
	for i := c.Spec.Nodes - 1; i >= 0; i-- {
		edgeStart := edgeEnd - (2 + i)
		ng := stateGrads[2+i]
		for j := 2 + i - 1; j >= 0; j-- {
			e := edgeStart + j
			if c.lastMixed {
				if stateGrads[j] == nil {
					stateGrads[j], dProbs[e] = c.Edges[e].BackwardMixed(ng)
					continue
				}
				m := c.ar.Mark()
				gin, dp := c.Edges[e].BackwardMixed(ng)
				dProbs[e] = dp
				stateGrads[j].AddInPlace(gin)
				c.ar.Release(m)
				continue
			}
			// Sampled: the mirror of ForwardSampled's sums. A none edge
			// contributes nothing; the first contribution to a state's
			// gradient is kept as is, and later ones add at their producer
			// when the op can (nn.BackwardAdd), then release what the edge
			// took.
			switch edge := c.Edges[e]; {
			case edge.Candidates[c.lastGates[e]] == OpZero:
			case stateGrads[j] == nil:
				stateGrads[j] = edge.BackwardSampled(ng)
			default:
				m := c.ar.Mark()
				if !edge.backwardSampledAdd(ng, stateGrads[j]) {
					stateGrads[j].AddInPlace(edge.BackwardSampled(ng))
				}
				c.ar.Release(m)
			}
		}
		edgeEnd = edgeStart
	}
	// A cell input whose every edge was none gets a zero gradient.
	for j := range c.zeroGrads {
		if stateGrads[j] == nil {
			stateGrads[j] = c.ar.TakeLike(&c.zeroGrads[j], c.lastStates[j])
			stateGrads[j].Zero()
		}
	}
	gs0 = c.pre0.Backward(stateGrads[0])
	gs1 = c.pre1.Backward(stateGrads[1])
	return gs0, gs1, dProbs
}

// concatStates concatenates the node outputs into step storage.
func (c *Cell) concatStates(ts []*tensor.Tensor) *tensor.Tensor {
	n, h, w := ts[0].Dim(0), ts[0].Dim(2), ts[0].Dim(3)
	out := c.ar.Take(&c.concatBuf, n, len(ts)*c.Spec.C, h, w)
	concatChannelsInto(out, ts)
	return out
}

// splitGrad splits the concat gradient into per-node slices of step storage
// and returns the cell's state-gradient list with them as its node entries.
func (c *Cell) splitGrad(grad *tensor.Tensor) []*tensor.Tensor {
	n, h, w := grad.Dim(0), grad.Dim(2), grad.Dim(3)
	parts := c.stateGrads[2:]
	for p := range parts {
		parts[p] = c.ar.Take(&c.splitBufs[p], n, c.Spec.C, h, w)
	}
	splitChannelsInto(parts, grad, c.Spec.Nodes, c.Spec.C)
	return c.stateGrads
}

// concatChannelsInto concatenates ts along the channel axis into out, which
// must already have the combined shape.
func concatChannelsInto(out *tensor.Tensor, ts []*tensor.Tensor) {
	n, h, w := ts[0].Dim(0), ts[0].Dim(2), ts[0].Dim(3)
	totalC := out.Dim(1)
	od := out.Data()
	cOff := 0
	for _, t := range ts {
		c := t.Dim(1)
		td := t.Data()
		for b := 0; b < n; b++ {
			srcBase := b * c * h * w
			dstBase := (b*totalC + cOff) * h * w
			copy(od[dstBase:dstBase+c*h*w], td[srcBase:srcBase+c*h*w])
		}
		cOff += c
	}
}

// splitChannelsInto splits t into the pre-shaped tensors in out.
func splitChannelsInto(out []*tensor.Tensor, t *tensor.Tensor, parts, c int) {
	n, totalC, h, w := t.Dim(0), t.Dim(1), t.Dim(2), t.Dim(3)
	if totalC != parts*c {
		panic(fmt.Sprintf("nas: cannot split %d channels into %d x %d", totalC, parts, c))
	}
	td := t.Data()
	for p := 0; p < parts; p++ {
		sd := out[p].Data()
		for b := 0; b < n; b++ {
			srcBase := (b*totalC + p*c) * h * w
			dstBase := b * c * h * w
			copy(sd[dstBase:dstBase+c*h*w], td[srcBase:srcBase+c*h*w])
		}
	}
}
