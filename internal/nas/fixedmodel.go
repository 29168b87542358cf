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
	batchBNs []*nn.BatchNorm2D // the eval-mode check's layer list, collected once
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

// Forward implements the federated Model contract.
func (m *FixedModel) Forward(x *tensor.Tensor) *tensor.Tensor {
	return m.Net.ForwardSampled(x, m.G)
}

// Backward implements the federated Model contract.
func (m *FixedModel) Backward(grad *tensor.Tensor) { m.Net.BackwardSampled(grad) }

// Params implements the federated Model contract.
func (m *FixedModel) Params() []*nn.Param { return m.Net.Params() }

// SetTraining implements the federated Model contract.
func (m *FixedModel) SetTraining(training bool) { m.Net.SetTraining(training) }

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
