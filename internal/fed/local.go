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
}

// NewReplica builds a replica of the supernet cfg describes from its own
// seeded source, and pre-warms it for batches of batchSize images of ds.
func NewReplica(seed int64, cfg nas.Config, ds *data.Dataset, batchSize int) (*Replica, error) {
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
	r := &Replica{
		net: net, params: params, index: index, bns: bns,
		headStart: len(params) - len(net.HeadParams()),
	}
	r.prewarm(tensor.New(batchSize, ds.Spec.Channels, ds.Spec.Height, ds.Spec.Width))
	return r, nil
}

// prewarm runs one forward/backward pass per candidate so every lazily sized
// op buffer exists before the first step; otherwise an (edge, candidate)
// pair first allocates whenever gates first land on it, a coupon-collector
// tail of allocations far into a run. The passes leave nothing behind:
// values are overwritten before every step, captured BN records go to the
// layers' freelists, and gradients are zeroed.
func (r *Replica) prewarm(x *tensor.Tensor) {
	n := nas.NumEdges(r.net.Cfg.Nodes) // per cell, normal and reduction alike
	g := nas.Gates{Normal: make([]int, n), Reduce: make([]int, n)}
	for c := 0; c < r.net.NumCandidates(); c++ {
		for e := 0; e < n; e++ {
			g.Normal[e], g.Reduce[e] = c, c
		}
		logits := r.net.ForwardSampled(x, g)
		r.net.BackwardSampled(tensor.New(logits.Shape()...))
	}
	for _, bn := range r.bns {
		bn.RecycleStats(bn.DrainCapturedStatsInto(nil))
	}
	nn.ZeroGrads(r.params)
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
	// Theta, when set, is a full canonical θ restored onto the replica
	// first; nil trains on the weights the caller loaded through Sampled.
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

	grads     []*tensor.Tensor
	x, aug    *tensor.Tensor
	labels    []int
	gradLogit *tensor.Tensor
}

// Train runs one participant update (Alg. 1 lines 37–42) on the replica: θ
// restore and head swap, the participant's next batch gathered and
// augmented from its own stream, forward and backward through the sub-model
// st.Gates selects, then the sampled gradients copied out by canonical index
// and the captured batch statistics drained into sl. Only the replica, sl,
// part's stream and st.Head are written.
func (r *Replica) Train(ds *data.Dataset, part *Participant, st Step, sl *Slot) error {
	if st.Theta != nil {
		if err := nn.RestoreParamValues(r.params, st.Theta); err != nil {
			return err
		}
	}
	for i, h := range st.Head {
		r.params[r.headStart+i].Value.CopyFrom(h)
	}
	batch := part.Batcher.Next(st.BatchSize)
	x, y := ds.GatherInto(sl.x, sl.labels, batch)
	sl.x, sl.labels = x, y
	x = st.Augment.ApplyInto(sl.aug, x, part.RNG)
	sl.aug = x
	sub := r.Sampled(st.Gates)
	nn.ZeroGrads(sub)
	loss, err := nn.CrossEntropyInto(sl.gradLogit, r.net.ForwardSampled(x, st.Gates), y)
	if err != nil {
		return err
	}
	sl.gradLogit = loss.GradLogits
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

	// The records sl still holds were consumed after its previous step, so
	// their storage goes back to the layers' freelists (a layer has the same
	// channel count on every replica).
	if len(sl.BNStats) != len(r.bns) {
		sl.BNStats = make([][]nn.BNStats, len(r.bns))
	}
	for i, bn := range r.bns {
		bn.RecycleStats(sl.BNStats[i])
		sl.BNStats[i] = bn.DrainCapturedStatsInto(sl.BNStats[i][:0])
	}
	return nil
}
