package fed

import (
	"fmt"
	"math/rand"

	"fedrlnas/internal/data"
	"fedrlnas/internal/nas"
	"fedrlnas/internal/nn"
	"fedrlnas/internal/tensor"
)

// Replica is the supernet copy the participant side of Alg. 1 runs on — the
// one local step both transports drive (DESIGN.md §17). Its values are
// overwritten before every step (from a θ snapshot, or by the caller through
// Sampled), so only its structure matters; it never draws from a
// participant's stream.
type Replica struct {
	net    *nas.Supernet
	params []*nn.Param
	// index maps a parameter to its canonical (Params() order) position;
	// the head is the tail of that order, from headStart on.
	index     map[*nn.Param]int
	headStart int
	// bns run in stat-capture mode, index-aligned with every structurally
	// identical supernet's; sub backs the current step's Sampled list.
	bns []*nn.BatchNorm2D
	sub []*nn.Param
	// subTheta is Train's list of the θ entries the sub-model restores.
	subTheta []*tensor.Tensor
}

// NewReplica builds a replica of the supernet cfg describes from its own
// seeded source. Its buffers are one step's (nas.Supernet's arena), sized by
// the largest step it has run.
func NewReplica(seed int64, cfg nas.Config) (*Replica, error) {
	net, err := nas.NewSupernet(rand.New(rand.NewSource(seed)), cfg)
	if err != nil {
		return nil, fmt.Errorf("fed: replica: %w", err)
	}
	net.SetTraining(true)
	bns := net.BatchNorms()
	for _, bn := range bns {
		bn.SetStatCapture(true)
	}
	params := net.Params()
	index := make(map[*nn.Param]int, len(params))
	for j, p := range params {
		index[p] = j
	}
	return &Replica{
		net: net, params: params, index: index, bns: bns,
		headStart: len(params) - len(net.HeadParams()),
	}, nil
}

// Sampled returns the replica's parameters of the sub-model g selects, in
// SampledParams order — where a caller that ships only the sub-model loads
// its weights before Train. The slice is the replica's scratch: it holds
// until a Sampled or Train call for other gates rewrites it.
func (r *Replica) Sampled(g nas.Gates) []*nn.Param {
	r.sub = r.net.AppendSampledParams(r.sub[:0], g)
	return r.sub
}

// Step is one local update's inputs besides the participant's own stream.
type Step struct {
	Gates nas.Gates
	// Theta, when set, is a full canonical θ whose sub-model entries are
	// restored onto the replica first (the step reads no others); nil
	// trains on the weights the caller loaded through Sampled.
	Theta []*tensor.Tensor
	// Head, when set, is the participant's private classifier head: it
	// replaces the replica's for the step, its gradients stay on the device
	// (out of Slot.Grads), and it takes one plain SGD step at HeadLR — no
	// momentum or weight decay, so its state stays exactly "values".
	Head      []*tensor.Tensor
	HeadLR    float64
	BatchSize int
	Augment   data.AugmentConfig
}

// Slot is one caller position's storage, reused so a steady-state step
// allocates nothing: batch and loss-gradient buffers, one gradient buffer per
// canonical parameter (allocated when first sampled), and the outputs of the
// last step, valid until the slot's next Train.
type Slot struct {
	// Grads[i] is ∇θ for canonical parameter SubIdx[i]; BNStats[layer] the
	// batch statistics the forward pass captured.
	SubIdx  []int
	Grads   []*tensor.Tensor
	BNStats [][]nn.BNStats
	// Acc and Loss are measured on the local batch (Acc is Eq. 8's ACC).
	Acc, Loss float64
	// Size is the scalar parameter count of the trained sub-model.
	Size int

	grads []*tensor.Tensor
	batch Batch
}

// Train runs one participant update (Alg. 1 lines 37–42) on the replica: θ
// restore of the sub-model st.Gates selects and head swap, the
// participant's next batch gathered and augmented from its own stream,
// forward and backward through that sub-model, then the sampled gradients
// copied out by canonical index and the captured batch statistics drained
// into sl. Only the replica, sl, part's stream and st.Head are written.
func (r *Replica) Train(ds *data.Dataset, part *Participant, st Step, sl *Slot) error {
	sub := r.Sampled(st.Gates)
	if st.Theta != nil {
		// Only the sub-model's weights are read, as on an RPC participant,
		// which is sent nothing else.
		if len(st.Theta) != len(r.params) {
			return fmt.Errorf("restore: %d params vs %d snapshot tensors", len(r.params), len(st.Theta))
		}
		r.subTheta = r.subTheta[:0]
		for _, p := range sub {
			r.subTheta = append(r.subTheta, st.Theta[r.index[p]])
		}
		if err := nn.RestoreParamValues(sub, r.subTheta); err != nil {
			return err
		}
	}
	for i, h := range st.Head {
		r.params[r.headStart+i].Value.CopyFrom(h)
	}
	x := sl.batch.Next(ds, part.Batcher, part.RNG, st.BatchSize, st.Augment)
	nn.ZeroGrads(sub)
	loss, err := sl.batch.Loss(r.net.ForwardSampled(x, st.Gates))
	if err != nil {
		return err
	}
	r.net.BackwardSampled(loss.GradLogits)
	sl.Acc, sl.Loss, sl.Size = loss.Accuracy, loss.Loss, nn.ParamCount(sub)

	if len(sl.grads) != len(r.params) {
		sl.grads = make([]*tensor.Tensor, len(r.params))
	}
	sl.SubIdx, sl.Grads = sl.SubIdx[:0], sl.Grads[:0]
	for _, p := range sub {
		idx := r.index[p]
		if st.Head != nil && idx >= r.headStart {
			continue
		}
		buf := sl.grads[idx]
		if buf == nil {
			buf = tensor.New(p.Grad.Shape()...)
			sl.grads[idx] = buf
		}
		buf.CopyFrom(p.Grad)
		sl.SubIdx = append(sl.SubIdx, idx)
		sl.Grads = append(sl.Grads, buf)
	}
	for i, h := range st.Head {
		h.AXPY(-st.HeadLR, r.params[r.headStart+i].Grad)
	}

	sl.BNStats = drainStats(r.bns, sl.BNStats)
	return nil
}

// TrainMixed is FedNAS's whole-supernet local step (He et al.) on the
// replica: the full θ restored, the participant's next batch drawn through
// sl (no augmentation), forward and backward through every edge's blend of
// candidates at the given per-edge probabilities (Supernet.ForwardMixed),
// every parameter's gradient copied into sl by canonical index and the
// captured batch statistics drained into sl. It returns the probability
// sensitivities, fresh each call, for the caller to chain into α gradients.
// Only the replica, sl and part's stream are written.
func (r *Replica) TrainMixed(ds *data.Dataset, part *Participant, theta []*tensor.Tensor, probsNormal, probsReduce [][]float64, batchSize int, sl *Slot) (nas.MixedGrads, error) {
	if err := nn.RestoreParamValues(r.params, theta); err != nil {
		return nas.MixedGrads{}, err
	}
	x := sl.batch.Next(ds, part.Batcher, part.RNG, batchSize, data.AugmentConfig{})
	nn.ZeroGrads(r.params)
	loss, err := sl.batch.Loss(r.net.ForwardMixed(x, probsNormal, probsReduce))
	if err != nil {
		return nas.MixedGrads{}, err
	}
	mg := r.net.BackwardMixed(loss.GradLogits)
	sl.Acc, sl.Loss, sl.Size = loss.Accuracy, loss.Loss, nn.ParamCount(r.params)

	if len(sl.grads) != len(r.params) {
		sl.grads = make([]*tensor.Tensor, len(r.params))
	}
	sl.SubIdx, sl.Grads = sl.SubIdx[:0], sl.Grads[:0]
	for idx, p := range r.params {
		if sl.grads[idx] == nil {
			sl.grads[idx] = tensor.New(p.Grad.Shape()...)
		}
		sl.grads[idx].CopyFrom(p.Grad)
		sl.SubIdx = append(sl.SubIdx, idx)
	}
	sl.Grads = append(sl.Grads, sl.grads...)
	sl.BNStats = drainStats(r.bns, sl.BNStats)
	return mg, nil
}

// drainStats moves the batch statistics bns captured into recs, one record
// list per layer, reusing recs' storage. The records recs still holds were
// consumed after the step that captured them, so their storage goes back to
// the layers' freelists first (a layer has the same channel count on every
// replica).
func drainStats(bns []*nn.BatchNorm2D, recs [][]nn.BNStats) [][]nn.BNStats {
	if len(recs) != len(bns) {
		recs = make([][]nn.BNStats, len(bns))
	}
	for i, bn := range bns {
		bn.RecycleStats(recs[i])
		recs[i] = bn.DrainCapturedStatsInto(recs[i][:0])
	}
	return recs
}
