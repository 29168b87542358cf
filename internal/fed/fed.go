// Package fed is the federated-learning substrate: participants with local
// data shards, a FedAvg trainer (model averaging, McMahan et al.), test-set
// evaluation, and virtual-time cost accounting for rounds. The RL search
// orchestrator in internal/search builds on these pieces; the baselines in
// internal/baselines reuse the same substrate so comparisons are fair.
package fed

import (
	"fmt"
	"math/rand"

	"fedrlnas/internal/data"
	"fedrlnas/internal/detrand"
	"fedrlnas/internal/nettrace"
	"fedrlnas/internal/nn"
	"fedrlnas/internal/tensor"
)

// Model is the minimal trainable-network contract the substrate needs.
// nas.FixedModel and fed.SequentialModel both satisfy it.
type Model interface {
	// Forward maps a [N,C,H,W] batch to [N,classes] logits.
	Forward(x *tensor.Tensor) *tensor.Tensor
	// Backward consumes dLoss/dLogits, accumulating parameter gradients.
	Backward(grad *tensor.Tensor)
	// Params returns the learnable parameters.
	Params() []*nn.Param
	// SetTraining toggles train/eval behaviour (batch norm).
	SetTraining(training bool)
}

// SequentialModel adapts an nn.Sequential to the Model interface.
type SequentialModel struct {
	Net *nn.Sequential
}

var _ Model = (*SequentialModel)(nil)

// Forward implements Model.
func (m *SequentialModel) Forward(x *tensor.Tensor) *tensor.Tensor { return m.Net.Forward(x) }

// Backward implements Model.
func (m *SequentialModel) Backward(grad *tensor.Tensor) { m.Net.Backward(grad) }

// Params implements Model.
func (m *SequentialModel) Params() []*nn.Param { return m.Net.Params() }

// SetTraining implements Model.
func (m *SequentialModel) SetTraining(training bool) { m.Net.SetTraining(training) }

// BatchNorms enumerates the network's batch-norm layers in structural
// order, enabling the parallel trainers' ordered stat replay.
func (m *SequentialModel) BatchNorms() []*nn.BatchNorm2D { return nn.CollectBatchNorms(m.Net) }

// Participant is one federated client: a data shard, its own RNG, a compute
// speed, and a bandwidth trace.
type Participant struct {
	ID      int
	Batcher *data.Batcher
	RNG     *rand.Rand
	// Src is the counting source behind RNG; checkpoints persist its
	// position so a resumed run replays the participant's private stream
	// from exactly where it stopped.
	Src *detrand.Source
	// SpeedFactor scales virtual compute time (1.0 = reference device;
	// larger = slower, e.g. a Jetson TX2 vs a 1080 Ti).
	SpeedFactor float64
	// Trace is the participant's bandwidth series (may be zero-valued when
	// latency is not being measured).
	Trace nettrace.Trace
	// ChurnProb is the per-round probability this device is offline (its
	// scenario profile's availability schedule). 0 defers to the run-wide
	// churn setting, preserving pre-scenario streams bit-exactly.
	ChurnProb float64
	// NumSamples is the shard size (FedAvg weighting).
	NumSamples int
}

// NewParticipant builds participant id over its shard. Every private random
// choice — batch shuffles, augmentation, churn and delay draws — comes from
// one stream seeded with seed; the counting source behind it is
// value-transparent, so the stream is identical to rand.NewSource(seed)'s.
func NewParticipant(id int, indices []int, seed int64) (*Participant, error) {
	rng, src := detrand.New(seed)
	b, err := data.NewBatcher(indices, rng)
	if err != nil {
		return nil, fmt.Errorf("participant %d: %w", id, err)
	}
	return &Participant{
		ID:          id,
		Batcher:     b,
		RNG:         rng,
		Src:         src,
		SpeedFactor: 1,
		NumSamples:  len(indices),
	}, nil
}

// BuildParticipants constructs K participants over a partition of ds. Every
// participant gets an independent deterministic RNG derived from seed. It
// is the eager façade over Population — callers that sample per-round
// cohorts should hold the Population instead and let it materialize only
// sampled clients.
func BuildParticipants(ds *data.Dataset, part data.Partition, seed int64) ([]*Participant, error) {
	return NewPopulation(part, seed).All()
}

// AttachTraces assigns bandwidth traces to participants (positionally).
func AttachTraces(ps []*Participant, traces []nettrace.Trace) error {
	if len(ps) != len(traces) {
		return fmt.Errorf("fed: %d traces for %d participants", len(traces), len(ps))
	}
	for i, p := range ps {
		p.Trace = traces[i]
	}
	return nil
}

// ComputeSeconds models the virtual time a participant spends on one local
// training step: proportional to parameter count × batch size, scaled by the
// device's SpeedFactor. The constant is calibrated so substrate-scale
// sub-models (hundreds to thousands of parameters at batch 8–32) sit in the
// same compute-dominated regime the paper's 0.27 MB sub-models occupy on a
// GTX 1080 Ti, preserving Table V's device-class ratios.
func (p *Participant) ComputeSeconds(paramCount, batchSize int) float64 {
	const secPerParamSample = 1e-5
	return p.SpeedFactor * secPerParamSample * float64(paramCount) * float64(batchSize)
}

// BandwidthAt returns the participant's bandwidth (Mbps) at a round,
// defaulting to a fast stable link when no trace is attached (latency not
// under study).
func (p *Participant) BandwidthAt(round int) float64 {
	if len(p.Trace.Mbps) == 0 {
		return 100
	}
	return p.Trace.At(round)
}

// Evaluate measures top-1 accuracy of model on the dataset's test split,
// processing in batches of at most batchSize. The model is switched to eval
// mode for the measurement and back to training mode afterwards.
func Evaluate(model Model, ds *data.Dataset, batchSize int) float64 {
	model.SetTraining(false)
	defer model.SetTraining(true)
	n := ds.NumTest()
	if n == 0 {
		return 0
	}
	correct := 0.0
	for start := 0; start < n; start += batchSize {
		end := start + batchSize
		if end > n {
			end = n
		}
		indices := make([]int, end-start)
		for i := range indices {
			indices[i] = start + i
		}
		x, y := ds.GatherTest(indices)
		logits := model.Forward(x)
		correct += nn.Accuracy(logits, y) * float64(len(y))
	}
	return correct / float64(n)
}
