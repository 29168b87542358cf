package nas

import (
	"math/rand"

	"fedrlnas/internal/nn"
	"fedrlnas/internal/tensor"
)

// FixedModel is a supernet frozen to one architecture: the discrete model a
// genotype induces. It is what phase P3 retrains from scratch and what the
// federated substrate's Model interface consumes.
//
// Only the gated candidate is materialized per edge, so the parameter count
// matches nas.DerivedParamCount exactly.
type FixedModel struct {
	Net      *Supernet
	G        Gates
	Genotype Genotype

	// ForwardBatch scratch: the packed input batch, staged in batchAr (reset
	// on every call, and replaced by a fresh arena when a batch needs more
	// than batchMax words, the largest take yet), and the per-slot logits
	// rows, reused across dispatches so steady-state serving allocates
	// nothing per batch whatever its fill (see forwardbatch.go).
	batchAr  tensor.Arena
	batchMax int
	batchIn  tensor.Tensor
	batchOut []*tensor.Tensor

	// The eval-mode fold (SetTraining): every conv→BN block of the model
	// and every batch norm, collected once, and the blocks' folded weights
	// and biases back to back in foldBuf. folded is set while the blocks run
	// folded; foldHash, kept on fedcheck builds only, fingerprints the
	// parameters and running statistics the fold was computed from.
	blocks   []*nn.Sequential
	bns      []*nn.BatchNorm2D
	foldBuf  []float64
	folded   bool
	foldHash [2]uint64
}

// NewFixedModel materializes a fresh (re-initialized) discrete model for a
// genotype under cfg. Internally it builds per-edge single-candidate cells.
func NewFixedModel(rng *rand.Rand, cfg Config, g Genotype) (*FixedModel, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if g.Nodes != cfg.Nodes {
		cfg.Nodes = g.Nodes
	}
	// Build a supernet whose candidate set per edge is exactly the genotype
	// op. NewSupernet takes one candidate list for all edges, so we
	// materialize with the full candidate set replaced by a one-op set per
	// edge via a custom constructor path: reuse NewCell directly.
	net, err := newSingleOpNet(rng, cfg, g)
	if err != nil {
		return nil, err
	}
	gates := Gates{
		Normal: make([]int, NumEdges(cfg.Nodes)),
		Reduce: make([]int, NumEdges(cfg.Nodes)),
	}
	return &FixedModel{Net: net, G: gates, Genotype: g}, nil
}

// Forward implements the federated Model contract. In eval mode it runs
// the folded model (SetTraining).
func (m *FixedModel) Forward(x *tensor.Tensor) *tensor.Tensor {
	if tensor.Fedcheck && m.folded && m.evalState() != m.foldHash {
		panic("nas: FixedModel parameters or batch-norm statistics changed in eval mode; call SetTraining(false) again to refold")
	}
	return m.Net.ForwardSampled(x, m.G)
}

// Backward implements the federated Model contract. It panics in eval mode:
// a folded forward leaves no batch-norm state to back-propagate through.
func (m *FixedModel) Backward(grad *tensor.Tensor) {
	if m.folded {
		panic("nas: FixedModel.Backward after an eval-mode (folded) forward; call SetTraining(true) first")
	}
	m.Net.BackwardSampled(grad)
}

// Params implements the federated Model contract.
func (m *FixedModel) Params() []*nn.Param { return m.Net.Params() }

// SetTraining implements the federated Model contract. Entering eval mode
// folds every batch norm into the conv it follows — the stem conv, each
// cell's pre0/pre1 1×1 conv and each sep/dil op's pointwise conv — as
// nn.Sequential.Fold describes: the eval forward then runs each conv with
// its folded weight and bias and no batch norm, within a relative 1e-12 of
// the unfolded eval forward. The fold is a snapshot of the parameters and
// running statistics: after changing either in eval mode, call
// SetTraining(false) again (fedcheck builds panic on a forward that would
// use a stale fold). SetTraining(true) drops the fold, so training runs the
// unfolded layers exactly as before.
func (m *FixedModel) SetTraining(training bool) {
	m.Net.SetTraining(training)
	m.folded = !training
	if training {
		return
	}
	if m.blocks == nil {
		m.collectBlocks()
	}
	buf := m.foldBuf
	for _, b := range m.blocks {
		wn, bn := b.FoldLen()
		b.Fold(buf[:wn], buf[wn:wn+bn])
		buf = buf[wn+bn:]
	}
	if tensor.Fedcheck {
		m.foldHash = m.evalState()
	}
}

// collectBlocks lists the model's conv→BN blocks — the stem, each cell's
// pre0 and pre1, and every sep/dil op (the only ops that are Sequentials) —
// and sizes foldBuf for their folds.
func (m *FixedModel) collectBlocks() {
	s, size := m.Net, 0
	m.blocks = []*nn.Sequential{s.stem}
	for _, c := range s.cells {
		m.blocks = append(m.blocks, c.pre0, c.pre1)
		for _, e := range c.Edges {
			if seq, ok := e.ops[0].(*nn.Sequential); ok {
				m.blocks = append(m.blocks, seq)
			}
		}
	}
	for _, b := range m.blocks {
		wn, bn := b.FoldLen()
		size += wn + bn
	}
	m.foldBuf, m.bns = make([]float64, size), m.BatchNorms()
}

// evalState fingerprints what a fold reads: the parameters and the
// batch-norm running statistics.
func (m *FixedModel) evalState() [2]uint64 {
	return [2]uint64{nn.ParamHash(m.Params()), nn.StatsHash(m.bns)}
}

// BatchNorms exposes the model's batch-norm layers in structural order,
// letting the parallel federated engine sync running statistics between
// replicas (see fed package).
func (m *FixedModel) BatchNorms() []*nn.BatchNorm2D { return m.Net.BatchNorms() }

// ParamCount returns the number of scalar parameters.
func (m *FixedModel) ParamCount() int { return nn.ParamCount(m.Net.Params()) }

// newSingleOpNet assembles a supernet whose per-edge candidate list holds only
// the genotype's op, preserving cell wiring and channel bookkeeping.
func newSingleOpNet(rng *rand.Rand, cfg Config, g Genotype) (*Supernet, error) {
	// Validate via a throwaway config carrying a non-empty candidate set.
	probe := cfg
	probe.Candidates = []OpKind{OpIdentity}
	if err := probe.Validate(); err != nil {
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
		ops := g.Normal
		if reduction {
			ops = g.Reduce
		}
		cell := newCellPerEdgeOps(l, rng, spec, ops)
		s.cells = append(s.cells, cell)
		cPrevPrev, cPrev = cPrev, cell.OutChannels()
		prevReduction = reduction
	}
	s.head = nn.NewLinear("head", rng, cPrev, cfg.NumClasses)
	s.bindArena()
	return s, nil
}

// newCellPerEdgeOps builds a cell with exactly one candidate per edge.
func newCellPerEdgeOps(layer int, rng *rand.Rand, spec CellSpec, ops []OpKind) *Cell {
	// Reuse NewCell with a dummy candidate then replace each edge's op set.
	c := NewCell(cellName(layer), rng, spec, []OpKind{OpIdentity})
	edge := 0
	for i := 0; i < spec.Nodes; i++ {
		for j := 0; j < 2+i; j++ {
			stride := 1
			if spec.Reduction && j < 2 {
				stride = 2
			}
			c.Edges[edge] = newMixedOp(
				cellName(layer)+edgeName(edge), rng, []OpKind{ops[edge]}, spec.C, stride)
			edge++
		}
	}
	return c
}

func cellName(layer int) string { return "cell" + itoa(layer) }

func edgeName(edge int) string { return ".e" + itoa(edge) }

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
