package fed

import (
	"fmt"

	"fedrlnas/internal/cohort"
	"fedrlnas/internal/data"
	"fedrlnas/internal/metrics"
	"fedrlnas/internal/nettrace"
	"fedrlnas/internal/nn"
	"fedrlnas/internal/tensor"
)

// FedAvgConfig configures the FedAvg trainer.
type FedAvgConfig struct {
	Rounds     int
	LocalSteps int
	BatchSize  int

	// Optimizer hyperparameters per participant (paper Table I, "P3, FL":
	// lr 0.1, momentum 0.5, weight decay 0.005).
	LR          float64
	Momentum    float64
	WeightDecay float64
	GradClip    float64

	// EvalEvery controls how often (in rounds) test accuracy is measured;
	// 0 means only at the end.
	EvalEvery int

	// ClientFraction is the share of participants selected each round
	// (McMahan et al.'s C parameter; the paper's "select n participants
	// out of K according to a pre-defined proportion"). 0 or 1 selects
	// everyone.
	ClientFraction float64

	Augment data.AugmentConfig

	// Workers caps how many participants' local updates run concurrently;
	// 0 selects runtime.NumCPU(). Training is bit-identical at every
	// worker count (see DESIGN.md §Concurrency).
	Workers int
	// NewReplica builds a model structurally identical to the one being
	// trained, one per worker slot when more than one runs. nil trains the
	// model itself as the only slot.
	NewReplica func() Model
}

// Validate checks the configuration.
func (c FedAvgConfig) Validate() error {
	switch {
	case c.Rounds <= 0:
		return fmt.Errorf("fed: Rounds %d must be positive", c.Rounds)
	case c.LocalSteps <= 0:
		return fmt.Errorf("fed: LocalSteps %d must be positive", c.LocalSteps)
	case c.BatchSize <= 0:
		return fmt.Errorf("fed: BatchSize %d must be positive", c.BatchSize)
	case c.LR <= 0:
		return fmt.Errorf("fed: LR %v must be positive", c.LR)
	case c.ClientFraction < 0 || c.ClientFraction > 1:
		return fmt.Errorf("fed: ClientFraction %v outside [0,1]", c.ClientFraction)
	case c.Workers < 0:
		return fmt.Errorf("fed: Workers %d must be >= 0", c.Workers)
	}
	return nil
}

// DefaultFedAvgConfig returns the paper's federated P3 settings scaled to
// this substrate.
func DefaultFedAvgConfig() FedAvgConfig {
	return FedAvgConfig{
		Rounds: 30, LocalSteps: 2, BatchSize: 16,
		LR: 0.1, Momentum: 0.5, WeightDecay: 0.005, GradClip: 5,
		EvalEvery: 1,
	}
}

// FedAvgResult records a training run.
type FedAvgResult struct {
	// TrainAcc is the participant-averaged local training accuracy per
	// round (the paper's Fig. 9–11 "training accuracy").
	TrainAcc metrics.Curve
	// ValAcc is the global test accuracy per evaluated round.
	ValAcc metrics.Curve
	// FinalAcc is the test accuracy after the last round.
	FinalAcc float64
	// RoundSeconds is the virtual wall-clock of each round (max over
	// participants of compute + communication time).
	RoundSeconds []float64
	// TotalSeconds sums RoundSeconds.
	TotalSeconds float64
}

// FedAvg trains model with federated averaging (model averaging variant):
// each round every participant starts from the global weights, takes
// LocalSteps SGD steps on its shard, and the server averages the resulting
// weight deltas weighted by shard size.
func FedAvg(model Model, ds *data.Dataset, parts []*Participant, cfg FedAvgConfig) (FedAvgResult, error) {
	if err := cfg.Validate(); err != nil {
		return FedAvgResult{}, err
	}
	if len(parts) == 0 {
		return FedAvgResult{}, fmt.Errorf("fed: no participants")
	}
	res := FedAvgResult{}
	params := model.Params()
	paramCount := nn.ParamCount(params)
	payloadBytes := nn.ParamBytes(params)
	model.SetTraining(true)
	// Client selection goes through the shared per-round seeded sampler
	// (the same machinery the search engine and RPC server use for cohort
	// draws), so the schedule is a pure function of the population size and
	// round index, independent of everything else that consumes randomness.
	sampler, err := cohort.New(int64(len(parts))*7907+13, len(parts),
		cohort.FractionSize(len(parts), cfg.ClientFraction))
	if err != nil {
		return res, err
	}
	run, err := newRunner(model, cfg.Workers, len(parts), cfg.NewReplica)
	if err != nil {
		return res, err
	}
	defer run.release()

	// Everything a round writes is kept across rounds: each worker slot's
	// parameters, batch and optimizer (its velocity zeroed per local update),
	// the global snapshot, the weighted aggregate and each cohort position's
	// contribution, merged in selection order.
	type slot struct {
		params []*nn.Param
		batch  Batch
		opt    *nn.SGD
	}
	slots := make([]slot, len(run.reps))
	for w, rep := range run.reps {
		slots[w] = slot{params: rep.Params(), opt: nn.NewSGD(cfg.LR, cfg.Momentum, cfg.WeightDecay, cfg.GradClip)}
	}
	type avgOut struct {
		lastAcc float64
		delta   []*tensor.Tensor
		seconds float64
		bn      [][]nn.BNStats
	}
	var outs []avgOut
	var global []*tensor.Tensor
	weightedDelta := make([]*tensor.Tensor, len(params))
	for i, p := range params {
		weightedDelta[i] = tensor.New(p.Value.Shape()...)
	}

	for round := 0; round < cfg.Rounds; round++ {
		selected := selectCohort(parts, sampler, round)
		totalSamples := 0
		for _, p := range selected {
			totalSamples += p.NumSamples
		}
		global = nn.SnapshotParamValues(global, params)
		for _, d := range weightedDelta {
			d.Zero()
		}
		for len(outs) < len(selected) {
			outs = append(outs, avgOut{})
		}
		// Fan the selected participants' local updates out across the worker
		// slots; each task writes only its own outs entry.
		err := run.pool.Run(len(selected), func(worker, j int) error {
			part, sl, out := selected[j], &slots[worker], &outs[j]
			if err := nn.RestoreParamValues(sl.params, global); err != nil {
				return fmt.Errorf("participant %d: %w", part.ID, err)
			}
			sl.opt.Reset()
			rep := run.reps[worker]
			for step := 0; step < cfg.LocalSteps; step++ {
				x := sl.batch.Next(ds, part.Batcher, part.RNG, cfg.BatchSize, cfg.Augment)
				nn.ZeroGrads(sl.params)
				loss, err := sl.batch.Loss(rep.Forward(x))
				if err != nil {
					return fmt.Errorf("participant %d: %w", part.ID, err)
				}
				rep.Backward(loss.GradLogits)
				sl.opt.Step(sl.params)
				out.lastAcc = loss.Accuracy
			}
			if out.delta == nil {
				out.delta = make([]*tensor.Tensor, len(sl.params))
				for i, p := range sl.params {
					out.delta[i] = tensor.New(p.Value.Shape()...)
				}
			}
			for i, p := range sl.params {
				p.Value.SubInto(out.delta[i], global[i])
			}
			// Virtual time: download + local compute + upload.
			comm := 2 * nettrace.TransferSeconds(payloadBytes, part.BandwidthAt(round))
			comp := float64(cfg.LocalSteps) * part.ComputeSeconds(paramCount, cfg.BatchSize)
			out.seconds = comm + comp
			out.bn = run.drainBN(worker, out.bn)
			return nil
		})
		if err != nil {
			return res, fmt.Errorf("round %d: %w", round, err)
		}
		roundTrainAcc, roundSeconds := 0.0, 0.0
		for j, part := range selected {
			out := &outs[j]
			roundTrainAcc += out.lastAcc
			w := float64(part.NumSamples) / float64(totalSamples)
			for i := range params {
				weightedDelta[i].AXPY(w, out.delta[i])
			}
			nn.ReplayStats(run.primaryBNs, out.bn)
			roundSeconds = max(roundSeconds, out.seconds)
		}
		// The primary may have trained as a slot; the aggregate applies to
		// the round's starting weights.
		if err := nn.RestoreParamValues(params, global); err != nil {
			return res, fmt.Errorf("round %d: %w", round, err)
		}
		for i, p := range params {
			p.Value.AddInPlace(weightedDelta[i])
		}
		res.TrainAcc.Add(round, roundTrainAcc/float64(len(selected)))
		res.RoundSeconds = append(res.RoundSeconds, roundSeconds)
		res.TotalSeconds += roundSeconds
		if cfg.EvalEvery > 0 && (round%cfg.EvalEvery == 0 || round == cfg.Rounds-1) {
			acc, err := run.evaluate(ds, 32)
			if err != nil {
				return res, fmt.Errorf("round %d: %w", round, err)
			}
			res.ValAcc.Add(round, acc)
		}
	}
	final, err := run.evaluate(ds, 32)
	if err != nil {
		return res, err
	}
	res.FinalAcc = final
	return res, nil
}

// selectCohort returns round's participant subset per the shared sampler:
// everyone when the sampler is full, otherwise the round's seeded cohort
// in ascending ID order (the canonical merge order).
func selectCohort(parts []*Participant, sampler *cohort.Sampler, round int) []*Participant {
	if sampler.Full() {
		return parts
	}
	ids := sampler.Cohort(round)
	out := make([]*Participant, len(ids))
	for i, id := range ids {
		out[i] = parts[id]
	}
	return out
}
