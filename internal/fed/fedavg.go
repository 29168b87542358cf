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
	// trained, one per worker slot. nil keeps the sequential path.
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

	// avgOut is one participant's contribution, merged in selection order.
	type avgOut struct {
		lastAcc float64
		delta   []*tensor.Tensor
		seconds float64
		bn      [][]nn.BNStats
	}

	for round := 0; round < cfg.Rounds; round++ {
		selected := selectCohort(parts, sampler, round)
		totalSamples := 0
		for _, p := range selected {
			totalSamples += p.NumSamples
		}
		global := nn.CloneParamValues(params)
		weightedDelta := make([]*tensor.Tensor, len(params))
		for i, p := range params {
			weightedDelta[i] = tensor.New(p.Value.Shape()...)
		}
		roundTrainAcc := 0.0
		roundSeconds := 0.0

		if run.parallelPath() {
			// Fan the selected participants' local updates out across the
			// worker replicas; each task writes only its own outs slot, and
			// the merge below folds them back in selection order, so the
			// result is bit-identical to the sequential branch.
			outs := make([]avgOut, len(selected))
			err := run.pool.Run(len(selected), func(worker, j int) error {
				part := selected[j]
				rep := run.reps[worker]
				rparams := rep.Params()
				if err := nn.RestoreParamValues(rparams, global); err != nil {
					return fmt.Errorf("participant %d: %w", part.ID, err)
				}
				opt := nn.NewSGD(cfg.LR, cfg.Momentum, cfg.WeightDecay, cfg.GradClip)
				lastAcc := 0.0
				for step := 0; step < cfg.LocalSteps; step++ {
					var err error
					if lastAcc, err = localGradient(rep, rparams, ds, part, cfg.BatchSize, cfg.Augment); err != nil {
						return fmt.Errorf("participant %d: %w", part.ID, err)
					}
					opt.Step(rparams)
				}
				delta := make([]*tensor.Tensor, len(rparams))
				for i, p := range rparams {
					delta[i] = p.Value.Sub(global[i])
				}
				comm := 2 * nettrace.TransferSeconds(payloadBytes, part.BandwidthAt(round))
				comp := float64(cfg.LocalSteps) * part.ComputeSeconds(paramCount, cfg.BatchSize)
				outs[j] = avgOut{
					lastAcc: lastAcc, delta: delta,
					seconds: comm + comp, bn: run.drainBN(worker),
				}
				return nil
			})
			if err != nil {
				return res, fmt.Errorf("round %d: %w", round, err)
			}
			for j, part := range selected {
				out := &outs[j]
				roundTrainAcc += out.lastAcc
				w := float64(part.NumSamples) / float64(totalSamples)
				for i := range params {
					weightedDelta[i].AXPY(w, out.delta[i])
				}
				run.replayBN(out.bn)
				if out.seconds > roundSeconds {
					roundSeconds = out.seconds
				}
			}
			// The primary's weights were never touched during the parallel
			// phase, so they still equal global; no restore needed before
			// applying the aggregate delta.
		} else {
			for _, part := range selected {
				if err := nn.RestoreParamValues(params, global); err != nil {
					return res, fmt.Errorf("round %d participant %d: %w", round, part.ID, err)
				}
				opt := nn.NewSGD(cfg.LR, cfg.Momentum, cfg.WeightDecay, cfg.GradClip)
				lastAcc := 0.0
				for step := 0; step < cfg.LocalSteps; step++ {
					if lastAcc, err = localGradient(model, params, ds, part, cfg.BatchSize, cfg.Augment); err != nil {
						return res, fmt.Errorf("round %d participant %d: %w", round, part.ID, err)
					}
					opt.Step(params)
				}
				roundTrainAcc += lastAcc
				for i, p := range params {
					delta := p.Value.Sub(global[i])
					weightedDelta[i].AXPY(float64(part.NumSamples)/float64(totalSamples), delta)
				}
				// Virtual time: download + local compute + upload.
				comm := 2 * nettrace.TransferSeconds(payloadBytes, part.BandwidthAt(round))
				comp := float64(cfg.LocalSteps) * part.ComputeSeconds(paramCount, cfg.BatchSize)
				if t := comm + comp; t > roundSeconds {
					roundSeconds = t
				}
			}

			if err := nn.RestoreParamValues(params, global); err != nil {
				return res, fmt.Errorf("round %d: %w", round, err)
			}
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

// localGradient is the fixed-model trainers' local step: part's next batch,
// gathered and augmented from its own stream, forward and backward through
// model, leaving ∇ in params' gradients. It returns the batch accuracy.
func localGradient(model Model, params []*nn.Param, ds *data.Dataset, part *Participant, batchSize int, aug data.AugmentConfig) (float64, error) {
	x, y := ds.Gather(part.Batcher.Next(batchSize))
	x = aug.Apply(x, part.RNG)
	nn.ZeroGrads(params)
	loss, err := nn.CrossEntropy(model.Forward(x), y)
	if err != nil {
		return 0, err
	}
	model.Backward(loss.GradLogits)
	return loss.Accuracy, nil
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
