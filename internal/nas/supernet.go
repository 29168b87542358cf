package nas

import (
	"fmt"
	"math/rand"

	"fedrlnas/internal/nn"
	"fedrlnas/internal/tensor"
	"fedrlnas/internal/wire"
)

// Config sizes a supernet (or a derived model when Candidates is one op per
// edge position).
type Config struct {
	InChannels int // image channels
	NumClasses int
	C          int // initial cell channels
	Layers     int // number of stacked cells
	Nodes      int // intermediate nodes per cell (b)
	Candidates []OpKind
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.InChannels <= 0:
		return fmt.Errorf("nas: InChannels %d must be positive", c.InChannels)
	case c.NumClasses < 2:
		return fmt.Errorf("nas: NumClasses %d must be >= 2", c.NumClasses)
	case c.C <= 0:
		return fmt.Errorf("nas: C %d must be positive", c.C)
	case c.Layers <= 0:
		return fmt.Errorf("nas: Layers %d must be positive", c.Layers)
	case c.Nodes <= 0:
		return fmt.Errorf("nas: Nodes %d must be positive", c.Nodes)
	case len(c.Candidates) == 0:
		return fmt.Errorf("nas: empty candidate set")
	}
	return nil
}

// ReductionLayers returns the cell indices that reduce spatial resolution
// (the DARTS 1/3 and 2/3 positions; for very shallow stacks, the midpoint).
func (c Config) ReductionLayers() map[int]bool {
	red := make(map[int]bool)
	if c.Layers >= 3 {
		red[c.Layers/3] = true
		red[2*c.Layers/3] = true
	} else if c.Layers == 2 {
		red[1] = true
	}
	return red
}

// Gates is a complete one-hot architecture choice: one candidate index per
// edge for the normal-cell α and one for the reduction-cell α. All normal
// cells share Normal; all reduction cells share Reduce (as in DARTS).
type Gates struct {
	Normal []int
	Reduce []int
}

// CheckGates reports whether g is a complete architecture choice for cfg:
// one candidate index in [0, len(Candidates)) per edge of each cell. Gates
// that arrive from outside the process must pass it before they select
// anything.
func (c Config) CheckGates(g Gates) error {
	edges := NumEdges(c.Nodes)
	if len(g.Normal) != edges || len(g.Reduce) != edges {
		return fmt.Errorf("nas: gates have %d normal and %d reduce entries, want %d each",
			len(g.Normal), len(g.Reduce), edges)
	}
	for _, gs := range [][]int{g.Normal, g.Reduce} {
		for e, k := range gs {
			if k < 0 || k >= len(c.Candidates) {
				return fmt.Errorf("nas: gate %d of edge %d outside [0, %d)", k, e, len(c.Candidates))
			}
		}
	}
	return nil
}

// CloneGates deep-copies g.
func CloneGates(g Gates) Gates {
	return Gates{
		Normal: append([]int(nil), g.Normal...),
		Reduce: append([]int(nil), g.Reduce...),
	}
}

// Supernet is the full search network: a stem, stacked cells, global average
// pooling and a linear classifier.
type Supernet struct {
	Cfg   Config
	stem  *nn.Sequential
	cells []*Cell
	gap   *nn.GlobalAvgPool
	head  *nn.Linear

	reduction map[int]bool

	// Cached enumerations (the structure is fixed at construction) and
	// hot-path scratch. sizeScratch backs SubModelBytes; cellGradBufs /
	// stemGradBuf are the persistent inter-cell gradient accumulators of
	// backwardCells (see the buffer-ownership contract in package nn).
	params       []*nn.Param
	sharedParams []*nn.Param
	sizeScratch  []*nn.Param
	elemScratch  []int
	cellGrads    []*tensor.Tensor
	cellGradBufs []*tensor.Tensor
	stemGradBuf  *tensor.Tensor
}

// NewSupernet materializes the network described by cfg.
func NewSupernet(rng *rand.Rand, cfg Config) (*Supernet, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Supernet{Cfg: cfg, gap: nn.NewGlobalAvgPool(), reduction: cfg.ReductionLayers()}
	s.stem = nn.NewSequential(
		nn.NewConv2D("stem.conv", rng, cfg.InChannels, cfg.C, 3, nn.ConvOpts{Pad: 1}),
		nn.NewBatchNorm2D("stem.bn", cfg.C),
	)
	cPrevPrev, cPrev, cCur := cfg.C, cfg.C, cfg.C
	prevReduction := false
	for l := 0; l < cfg.Layers; l++ {
		reduction := s.reduction[l]
		if reduction {
			cCur *= 2
		}
		spec := CellSpec{
			Nodes:         cfg.Nodes,
			C:             cCur,
			CPrevPrev:     cPrevPrev,
			CPrev:         cPrev,
			Reduction:     reduction,
			PrevReduction: prevReduction,
		}
		cell := NewCell(fmt.Sprintf("cell%d", l), rng, spec, cfg.Candidates)
		s.cells = append(s.cells, cell)
		cPrevPrev, cPrev = cPrev, cell.OutChannels()
		prevReduction = reduction
	}
	s.head = nn.NewLinear("head", rng, cPrev, cfg.NumClasses)
	return s, nil
}

// ArchSpace returns (normal-cell edge count, reduction-cell edge count): the
// dimensions of the architecture parameter α.
func (s *Supernet) ArchSpace() (normalEdges, reduceEdges int) {
	n := NumEdges(s.Cfg.Nodes)
	return n, n
}

// NumCandidates returns the per-edge candidate count.
func (s *Supernet) NumCandidates() int { return len(s.Cfg.Candidates) }

// Cells returns the stacked cells in order.
func (s *Supernet) Cells() []*Cell { return s.cells }

// Params returns every learnable parameter (full supernet θ). The returned
// slice is cached (the structure is fixed at construction) and must not be
// mutated.
func (s *Supernet) Params() []*nn.Param {
	if s.params == nil {
		ps := append([]*nn.Param(nil), s.stem.Params()...)
		for _, c := range s.cells {
			ps = append(ps, c.Params()...)
		}
		s.params = append(ps, s.head.Params()...)
	}
	return s.params
}

// HeadParams returns the classifier head's parameters — the trailing
// entries of Params()'s canonical order. Personalized search swaps these
// per client (federated body, local head) and needs both the count and
// the guarantee that they sit at the tail.
func (s *Supernet) HeadParams() []*nn.Param { return s.head.Params() }

// SharedParams returns the parameters every sub-model carries regardless of
// gates: stem, cell preprocessing, classifier head. The returned slice is
// cached and must not be mutated.
func (s *Supernet) SharedParams() []*nn.Param {
	if s.sharedParams == nil {
		ps := append([]*nn.Param(nil), s.stem.Params()...)
		for _, c := range s.cells {
			ps = append(ps, c.pre0.Params()...)
			ps = append(ps, c.pre1.Params()...)
		}
		s.sharedParams = append(ps, s.head.Params()...)
	}
	return s.sharedParams
}

// SampledParams returns the parameter set of the sub-model selected by g:
// shared parameters plus the gated candidate on every edge of every cell.
func (s *Supernet) SampledParams(g Gates) []*nn.Param {
	return s.AppendSampledParams(nil, g)
}

// AppendSampledParams appends the sampled sub-model's parameters to ps and
// returns it — the no-alloc form of SampledParams for callers that own a
// reusable buffer.
func (s *Supernet) AppendSampledParams(ps []*nn.Param, g Gates) []*nn.Param {
	ps = append(ps, s.stem.Params()...)
	for _, c := range s.cells {
		gates := g.Normal
		if c.Spec.Reduction {
			gates = g.Reduce
		}
		ps = c.AppendSampledParams(ps, gates)
	}
	return append(ps, s.head.Params()...)
}

// SubModelBytes returns the float32 wire size of the sub-model selected by
// g — what the server would actually transmit to a participant.
func (s *Supernet) SubModelBytes(g Gates) int64 {
	s.sizeScratch = s.AppendSampledParams(s.sizeScratch[:0], g)
	return nn.ParamBytes(s.sizeScratch)
}

// SupernetBytes returns the float32 wire size of the entire supernet — what
// FedNAS-style methods transmit every round.
func (s *Supernet) SupernetBytes() int64 {
	return nn.ParamBytes(s.Params())
}

// SubModelWireBytes returns the measured encoded size of the sub-model
// selected by g under the given wire mode — the dense frame size the
// rpcfed codec would put on a TCP connection. This is the quantity
// transmission policies rank by.
func (s *Supernet) SubModelWireBytes(g Gates, m wire.Mode) int64 {
	s.sizeScratch = s.AppendSampledParams(s.sizeScratch[:0], g)
	s.elemScratch = s.elemScratch[:0]
	for _, p := range s.sizeScratch {
		s.elemScratch = append(s.elemScratch, p.Value.Size())
	}
	return wire.DenseGroupBytes(m, s.elemScratch)
}

// SupernetWireBytes returns the measured encoded size of the full
// supernet under the given wire mode (the FedNAS-style full-model
// transmission cost).
func (s *Supernet) SupernetWireBytes(m wire.Mode) int64 {
	params := s.Params()
	counts := make([]int, len(params))
	for i, p := range params {
		counts[i] = p.Value.Size()
	}
	return wire.DenseGroupBytes(m, counts)
}

// BatchNorms returns every batch-norm layer in deterministic structural
// order (stem, then each cell, head has none). Structurally identical
// supernets yield index-aligned lists, which the parallel round engine
// relies on to replay replica batch statistics onto the primary network.
func (s *Supernet) BatchNorms() []*nn.BatchNorm2D {
	bns := nn.CollectBatchNorms(s.stem)
	for _, c := range s.cells {
		bns = append(bns, c.BatchNorms()...)
	}
	return bns
}

// SetTraining toggles train/eval mode across the whole network.
func (s *Supernet) SetTraining(training bool) {
	s.stem.SetTraining(training)
	for _, c := range s.cells {
		c.SetTraining(training)
	}
}

// ForwardSampled runs the network pruned by gates g.
func (s *Supernet) ForwardSampled(x *tensor.Tensor, g Gates) *tensor.Tensor {
	h := s.stem.Forward(x)
	s0, s1 := h, h
	for _, c := range s.cells {
		gates := g.Normal
		if c.Spec.Reduction {
			gates = g.Reduce
		}
		out := c.ForwardSampled(s0, s1, gates)
		s0, s1 = s1, out
	}
	return s.head.Forward(s.gap.Forward(s1))
}

// BackwardSampled back-propagates a sampled forward, accumulating parameter
// gradients for the active sub-model.
func (s *Supernet) BackwardSampled(gradLogits *tensor.Tensor) {
	grad := s.gap.Backward(s.head.Backward(gradLogits))
	s.backwardCells(grad, nil)
}

// ForwardMixed runs the network with probability-blended edges (baselines).
// probsNormal/probsReduce are per-edge rows over candidates.
func (s *Supernet) ForwardMixed(x *tensor.Tensor, probsNormal, probsReduce [][]float64) *tensor.Tensor {
	h := s.stem.Forward(x)
	s0, s1 := h, h
	for _, c := range s.cells {
		probs := probsNormal
		if c.Spec.Reduction {
			probs = probsReduce
		}
		out := c.ForwardMixed(s0, s1, probs)
		s0, s1 = s1, out
	}
	return s.head.Forward(s.gap.Forward(s1))
}

// MixedGrads carries dL/d(probs) accumulated over cells sharing each α.
type MixedGrads struct {
	Normal [][]float64
	Reduce [][]float64
}

// BackwardMixed back-propagates a mixed forward, accumulating θ gradients
// and returning the per-edge probability sensitivities for α updates.
func (s *Supernet) BackwardMixed(gradLogits *tensor.Tensor) MixedGrads {
	grad := s.gap.Backward(s.head.Backward(gradLogits))
	mg := MixedGrads{}
	s.backwardCells(grad, &mg)
	return mg
}

// backwardCells walks the cell stack in reverse, handling the two-input
// skip wiring (cell l receives cell l-1 and cell l-2 outputs). Inter-cell
// gradient accumulation copies into per-slot persistent buffers instead of
// cloning: a cell's backward outputs (gs0/gs1) live in buffers the next
// cell's backward overwrites, so they must be captured, but the capture
// target only ever changes its batch dimension between passes (tensor.Reuse).
func (s *Supernet) backwardCells(grad *tensor.Tensor, mg *MixedGrads) {
	n := len(s.cells)
	if cap(s.cellGrads) < n {
		s.cellGrads = make([]*tensor.Tensor, n)
	}
	if s.cellGradBufs == nil {
		s.cellGradBufs = make([]*tensor.Tensor, n)
	}
	// gradOut[i] is dL/d(output of cell i); gs0 contributions flow to i-2.
	gradOut := s.cellGrads[:n]
	for i := range gradOut {
		gradOut[i] = nil
	}
	gradOut[n-1] = grad
	addCell := func(slot int, g *tensor.Tensor) {
		if gradOut[slot] != nil {
			gradOut[slot].AddInPlace(g)
			return
		}
		buf := tensor.Reuse(s.cellGradBufs[slot], g.Dim(0), g.Dim(1), g.Dim(2), g.Dim(3))
		s.cellGradBufs[slot] = buf
		buf.CopyFrom(g)
		gradOut[slot] = buf
	}
	var gradStem *tensor.Tensor
	addStem := func(g *tensor.Tensor) {
		if gradStem != nil {
			gradStem.AddInPlace(g)
			return
		}
		s.stemGradBuf = tensor.Reuse(s.stemGradBuf, g.Dim(0), g.Dim(1), g.Dim(2), g.Dim(3))
		s.stemGradBuf.CopyFrom(g)
		gradStem = s.stemGradBuf
	}
	for i := n - 1; i >= 0; i-- {
		if gradOut[i] == nil {
			// Cell output unused downstream (possible only for n==1 handled above).
			continue
		}
		gs0, gs1, dProbs := s.cells[i].Backward(gradOut[i])
		if mg != nil && dProbs != nil {
			if s.cells[i].Spec.Reduction {
				mg.Reduce = addProbRows(mg.Reduce, dProbs)
			} else {
				mg.Normal = addProbRows(mg.Normal, dProbs)
			}
		}
		// s1 input of cell i is output of cell i-1 (or the stem).
		if i-1 >= 0 {
			addCell(i-1, gs1)
		} else {
			addStem(gs1)
		}
		// s0 input of cell i is output of cell i-2 (or the stem).
		if i-2 >= 0 {
			addCell(i-2, gs0)
		} else {
			addStem(gs0)
		}
	}
	// Nothing upstream of the stem reads its input gradient.
	nn.BackwardParams(s.stem, gradStem)
}

func addProbRows(acc, rows [][]float64) [][]float64 {
	if acc == nil {
		acc = make([][]float64, len(rows))
		for i := range rows {
			acc[i] = append([]float64(nil), rows[i]...)
		}
		return acc
	}
	for i := range rows {
		for j := range rows[i] {
			acc[i][j] += rows[i][j]
		}
	}
	return acc
}
