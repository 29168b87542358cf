package fed

import (
	"fmt"

	"fedrlnas/internal/data"
	"fedrlnas/internal/metrics"
	"fedrlnas/internal/nn"
	"fedrlnas/internal/tensor"
)

// FedSGD is the paper's second FedAvg variant (Sec. III-A): each round every
// participant computes ONE gradient on its local batch at the current global
// weights and uploads it; the server averages the gradients and takes a
// single SGD step: θ ← θ − η·(1/n)Σ g_k. This is the update rule the search
// phase applies to supernet weights; here it is exposed for fixed models.
type FedSGDConfig struct {
	Rounds    int
	BatchSize int

	LR          float64
	Momentum    float64
	WeightDecay float64
	GradClip    float64

	Augment data.AugmentConfig

	// Workers caps how many participants' gradients are computed
	// concurrently; 0 selects runtime.NumCPU(). Training is bit-identical
	// at every worker count (see DESIGN.md §Concurrency).
	Workers int
	// NewReplica builds a model structurally identical to the one being
	// trained, one per worker slot. nil keeps the sequential path.
	NewReplica func() Model
}

// DefaultFedSGDConfig returns substrate-scale defaults.
func DefaultFedSGDConfig() FedSGDConfig {
	return FedSGDConfig{
		Rounds: 60, BatchSize: 16,
		LR: 0.2, Momentum: 0.9, WeightDecay: 3e-4, GradClip: 5,
	}
}

// Validate checks the configuration.
func (c FedSGDConfig) Validate() error {
	if c.Rounds <= 0 || c.BatchSize <= 0 || c.LR <= 0 || c.Workers < 0 {
		return fmt.Errorf("fed: invalid FedSGD config %+v", c)
	}
	return nil
}

// FedSGD trains model with gradient averaging and returns the per-round
// mean local training accuracy.
func FedSGD(model Model, ds *data.Dataset, parts []*Participant, cfg FedSGDConfig) (metrics.Curve, error) {
	var curve metrics.Curve
	if err := cfg.Validate(); err != nil {
		return curve, err
	}
	if len(parts) == 0 {
		return curve, fmt.Errorf("fed: no participants")
	}
	params := model.Params()
	opt := nn.NewSGD(cfg.LR, cfg.Momentum, cfg.WeightDecay, cfg.GradClip)
	model.SetTraining(true)
	run, err := newRunner(model, cfg.Workers, len(parts), cfg.NewReplica)
	if err != nil {
		return curve, err
	}

	// sgdOut is one participant's gradient, merged in participant order.
	type sgdOut struct {
		grads []*tensor.Tensor
		acc   float64
		bn    [][]nn.BNStats
	}

	for round := 0; round < cfg.Rounds; round++ {
		agg := make([]*tensor.Tensor, len(params))
		for i, p := range params {
			agg[i] = tensor.New(p.Value.Shape()...)
		}
		acc := 0.0
		if run.parallelPath() {
			// The global weights are constant within a round (the single
			// SGD step happens after aggregation), so every replica is
			// restored to the same snapshot and gradients are exact.
			global := nn.CloneParamValues(params)
			outs := make([]sgdOut, len(parts))
			err := run.pool.Run(len(parts), func(worker, k int) error {
				part := parts[k]
				rep := run.reps[worker]
				rparams := rep.Params()
				if err := nn.RestoreParamValues(rparams, global); err != nil {
					return fmt.Errorf("participant %d: %w", part.ID, err)
				}
				acc, err := localGradient(rep, rparams, ds, part, cfg.BatchSize, cfg.Augment)
				if err != nil {
					return fmt.Errorf("participant %d: %w", part.ID, err)
				}
				outs[k] = sgdOut{grads: nn.CloneParamGrads(rparams), acc: acc, bn: run.drainBN(worker)}
				return nil
			})
			if err != nil {
				return curve, fmt.Errorf("round %d: %w", round, err)
			}
			for k := range outs {
				for i := range params {
					agg[i].AddInPlace(outs[k].grads[i])
				}
				run.replayBN(outs[k].bn)
				acc += outs[k].acc
			}
		} else {
			for _, part := range parts {
				a, err := localGradient(model, params, ds, part, cfg.BatchSize, cfg.Augment)
				if err != nil {
					return curve, fmt.Errorf("round %d participant %d: %w", round, part.ID, err)
				}
				for i, p := range params {
					agg[i].AddInPlace(p.Grad)
				}
				acc += a
			}
		}
		inv := 1.0 / float64(len(parts))
		for i, p := range params {
			p.Grad.Zero()
			p.Grad.AXPY(inv, agg[i])
		}
		opt.Step(params)
		curve.Add(round, acc*inv)
	}
	return curve, nil
}
