package baselines

import (
	"fmt"
	"math/rand"

	"fedrlnas/internal/controller"
	"fedrlnas/internal/data"
	"fedrlnas/internal/fed"
	"fedrlnas/internal/nas"
	"fedrlnas/internal/nettrace"
	"fedrlnas/internal/nn"
	"fedrlnas/internal/parallel"
	"fedrlnas/internal/tensor"
)

// FedNASConfig configures the FedNAS baseline (He et al.): federated
// gradient-based NAS where every round each participant downloads the
// ENTIRE supernet, computes first-order DARTS gradients for θ and α on its
// local batch, and the server averages both.
type FedNASConfig struct {
	Net       nas.Config
	Rounds    int
	BatchSize int

	ThetaLR       float64
	ThetaMomentum float64
	ThetaWD       float64
	ThetaClip     float64

	AlphaLR float64
	AlphaWD float64

	// Workers caps how many participants' local steps run concurrently;
	// 0 selects runtime.NumCPU(). Results are bit-identical at every
	// worker count.
	Workers int

	Seed int64
}

// DefaultFedNASConfig returns substrate-scale FedNAS settings.
func DefaultFedNASConfig(net nas.Config) FedNASConfig {
	return FedNASConfig{
		Net: net, Rounds: 60, BatchSize: 16,
		ThetaLR: 0.025, ThetaMomentum: 0.9, ThetaWD: 3e-4, ThetaClip: 5,
		AlphaLR: 0.3, AlphaWD: 1e-4,
		Seed: 1,
	}
}

// FedNAS runs the federated gradient-NAS baseline over participants built
// from the given partition of ds. The returned NASResult's
// PayloadBytesPerRound is the full supernet size — the communication cost
// the paper's efficiency comparison targets (Table V).
func FedNAS(ds *data.Dataset, part data.Partition, cfg FedNASConfig) (NASResult, error) {
	if cfg.Rounds <= 0 || cfg.BatchSize <= 0 {
		return NASResult{}, fmt.Errorf("baselines: invalid FedNAS config %+v", cfg)
	}
	parts, err := fed.BuildParticipants(ds, part, cfg.Seed+11)
	if err != nil {
		return NASResult{}, err
	}
	net, err := nas.NewSupernet(rand.New(rand.NewSource(cfg.Seed+1)), cfg.Net)
	if err != nil {
		return NASResult{}, err
	}
	run, err := newFedRun(net, parts, cfg.Workers, cfg.Seed+1, cfg.Net)
	if err != nil {
		return NASResult{}, err
	}
	nE, rE := net.ArchSpace()
	numCand := net.NumCandidates()
	alphaN := zeroRows(nE, numCand)
	alphaR := zeroRows(rE, numCand)
	opt := nn.NewSGD(cfg.ThetaLR, cfg.ThetaMomentum, cfg.ThetaWD, cfg.ThetaClip)
	payload := net.SupernetBytes()
	res := NASResult{Method: "fednas", PayloadBytesPerRound: payload}
	// Every participant pays for the whole supernet: download + full
	// mixed-compute + upload.
	comm := 2 * nettrace.TransferSeconds(payload, 100)
	// gN[k], gR[k] are participant k's α gradients, merged in index order.
	gN := make([][][]float64, len(parts))
	gR := make([][][]float64, len(parts))

	inv := 1.0 / float64(len(parts))
	for round := 0; round < cfg.Rounds; round++ {
		pn := controller.SoftmaxRows(alphaN)
		pr := controller.SoftmaxRows(alphaR)
		err := run.train(func(rep *fed.Replica, k int, sl *fed.Slot) error {
			mg, err := rep.TrainMixed(ds, parts[k], run.theta, pn, pr, cfg.BatchSize, sl)
			if err != nil {
				return err
			}
			gN[k] = controller.ChainSoftmax(mg.Normal, pn)
			gR[k] = controller.ChainSoftmax(mg.Reduce, pr)
			return nil
		})
		if err != nil {
			return res, fmt.Errorf("round %d: %w", round, err)
		}
		aggN := zeroRows(nE, numCand)
		aggR := zeroRows(rE, numCand)
		roundAcc, roundSeconds := 0.0, 0.0
		for k, p := range parts {
			sl := run.merge(k)
			axpyRows(aggN, 1, gN[k])
			axpyRows(aggR, 1, gR[k])
			roundAcc += sl.Acc
			roundSeconds = max(roundSeconds, comm+p.ComputeSeconds(sl.Size, cfg.BatchSize))
		}
		run.step(opt, inv)
		scaleRows(aggN, inv)
		scaleRows(aggR, inv)
		applyAlphaStep(alphaN, aggN, cfg.AlphaLR, cfg.AlphaWD)
		applyAlphaStep(alphaR, aggR, cfg.AlphaLR, cfg.AlphaWD)

		res.Curve.Add(round, roundAcc*inv)
		res.SearchSeconds += roundSeconds
	}
	res.Genotype = nas.DeriveGenotype(
		controller.SoftmaxRows(alphaN), controller.SoftmaxRows(alphaR),
		cfg.Net.Candidates, cfg.Net.Nodes)
	return res, nil
}

func scaleRows(rows [][]float64, a float64) {
	for i := range rows {
		for j := range rows[i] {
			rows[i][j] *= a
		}
	}
}

// fedRun is the round state both federated baselines keep for a run: their
// participants, min(workers, participants) replicas that run the local
// steps (fed.Replica, as the search engine's), one fed.Slot per participant,
// the round's θ snapshot every step restores, and the gradient aggregate.
// Every order-sensitive fold — gradients, batch-norm statistics, the
// caller's scalars — happens in merge, in participant order, so a run is
// bit-identical at every worker count.
type fedRun struct {
	pool   *parallel.Pool
	parts  []*fed.Participant
	reps   []*fed.Replica
	slots  []fed.Slot
	params []*nn.Param
	bns    []*nn.BatchNorm2D
	theta  []*tensor.Tensor
	agg    []*tensor.Tensor
}

// newFedRun prepares net, the primary, for a run over parts. Only a
// replica's structure matters — every step restores θ onto it — so seed may
// be the primary's.
func newFedRun(net *nas.Supernet, parts []*fed.Participant, workers int, seed int64, cfg nas.Config) (*fedRun, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("baselines: no participants")
	}
	net.SetTraining(true)
	r := &fedRun{
		pool: parallel.New(workers), parts: parts, slots: make([]fed.Slot, len(parts)),
		params: net.Params(), bns: net.BatchNorms(),
	}
	r.reps = make([]*fed.Replica, min(r.pool.Workers(), len(parts)))
	for i := range r.reps {
		rep, err := fed.NewReplica(seed, cfg)
		if err != nil {
			return nil, fmt.Errorf("baselines: worker replica %d: %w", i, err)
		}
		r.reps[i] = rep
	}
	r.agg = make([]*tensor.Tensor, len(r.params))
	for i, p := range r.params {
		r.agg[i] = tensor.New(p.Grad.Shape()...)
	}
	return r, nil
}

// train snapshots θ and runs task — participant k's local step on rep into
// sl — for every participant across the worker pool.
func (r *fedRun) train(task func(rep *fed.Replica, k int, sl *fed.Slot) error) error {
	r.theta = nn.SnapshotParamValues(r.theta, r.params)
	return r.pool.Run(len(r.parts), func(worker, k int) error {
		if err := task(r.reps[worker], k, &r.slots[k]); err != nil {
			return fmt.Errorf("participant %d: %w", r.parts[k].ID, err)
		}
		return nil
	})
}

// merge folds participant k's gradients into the aggregate and its batch
// statistics into the primary's, and returns its slot for the caller's own
// folds.
func (r *fedRun) merge(k int) *fed.Slot {
	sl := &r.slots[k]
	for j, idx := range sl.SubIdx {
		r.agg[idx].AddInPlace(sl.Grads[j])
	}
	nn.ReplayStats(r.bns, sl.BNStats)
	return sl
}

// step sets the primary's gradients to inv × the aggregate, takes opt's step
// and zeroes the aggregate for the next round.
func (r *fedRun) step(opt *nn.SGD, inv float64) {
	for i, p := range r.params {
		p.Grad.Zero()
		p.Grad.AXPY(inv, r.agg[i])
		r.agg[i].Zero()
	}
	opt.Step(r.params)
}
