package search

import (
	"fmt"
	"math/rand"

	"fedrlnas/internal/data"
	"fedrlnas/internal/fed"
	"fedrlnas/internal/metrics"
	"fedrlnas/internal/nas"
	"fedrlnas/internal/nn"
)

// RetrainConfig configures phase P3 centralized retraining (Table I:
// lr 0.025, momentum 0.9, weight decay 3e-4, clip 5).
type RetrainConfig struct {
	Steps     int
	BatchSize int

	LR          float64
	Momentum    float64
	WeightDecay float64
	GradClip    float64

	// CosineAnneal enables cosine learning-rate annealing from LR down to
	// MinLR over Steps (the paper's P3 training schedule).
	CosineAnneal bool
	MinLR        float64

	Augment data.AugmentConfig
}

// DefaultRetrainConfig returns the paper's centralized P3 settings.
func DefaultRetrainConfig() RetrainConfig {
	return RetrainConfig{
		Steps: 120, BatchSize: 32,
		LR: 0.025, Momentum: 0.9, WeightDecay: 3e-4, GradClip: 5,
		Augment: data.DefaultAugment(),
	}
}

// Validate checks the configuration.
func (c RetrainConfig) Validate() error {
	if c.Steps <= 0 || c.BatchSize <= 0 || c.LR <= 0 {
		return fmt.Errorf("search: invalid retrain config %+v", c)
	}
	return nil
}

// RetrainResult is the outcome of a P3+P4 retrain/evaluate pass.
type RetrainResult struct {
	Model      *nas.FixedModel
	TrainCurve metrics.Curve
	// TestAcc is the P4 test accuracy; TestErr is 1−TestAcc (the paper's
	// "Error(%)" column divided by 100).
	TestAcc float64
	TestErr float64
	// ParamCount is the discrete model's size; ParamMB its float32 MB
	// (the paper's "Param(M)" analog on this substrate).
	ParamCount int
	ParamMB    float64
}

// RetrainCentralized re-initializes the genotype's discrete model and trains
// it centrally on ds's full training split (phase P3 "centralized"), then
// evaluates on the test split (P4).
func RetrainCentralized(ds *data.Dataset, netCfg nas.Config, geno nas.Genotype, cfg RetrainConfig, seed int64) (RetrainResult, error) {
	if err := cfg.Validate(); err != nil {
		return RetrainResult{}, err
	}
	rng := rand.New(rand.NewSource(seed))
	model, err := nas.NewFixedModel(rng, netCfg, geno)
	if err != nil {
		return RetrainResult{}, fmt.Errorf("retrain: %w", err)
	}
	pool := make([]int, ds.NumTrain())
	for i := range pool {
		pool[i] = i
	}
	batcher, err := data.NewBatcher(pool, rng)
	if err != nil {
		return RetrainResult{}, err
	}
	opt := nn.NewSGD(cfg.LR, cfg.Momentum, cfg.WeightDecay, cfg.GradClip)
	var sched nn.LRSchedule = nn.ConstantLR{Rate: cfg.LR}
	if cfg.CosineAnneal {
		cos, err := nn.NewCosineLR(cfg.LR, cfg.MinLR, cfg.Steps)
		if err != nil {
			return RetrainResult{}, err
		}
		sched = cos
	}
	model.SetTraining(true)
	res := RetrainResult{Model: model}
	params := model.Params()
	var batch fed.Batch
	for step := 0; step < cfg.Steps; step++ {
		x := batch.Next(ds, batcher, rng, cfg.BatchSize, cfg.Augment)
		nn.ZeroGrads(params)
		lossRes, err := batch.Loss(model.Forward(x))
		if err != nil {
			return res, err
		}
		model.Backward(lossRes.GradLogits)
		opt.StepWith(sched, step, params)
		res.TrainCurve.Add(step, lossRes.Accuracy)
	}
	res.TestAcc = fed.Evaluate(model, ds, 32)
	res.TestErr = 1 - res.TestAcc
	res.ParamCount = model.ParamCount()
	res.ParamMB = nas.ParamMB(res.ParamCount)
	return res, nil
}

// RetrainFederated re-initializes the genotype's discrete model and trains
// it with FedAvg over a fresh participant population (phase P3 "FL"), then
// evaluates on the test split (P4).
func RetrainFederated(ds *data.Dataset, netCfg nas.Config, geno nas.Genotype,
	kind PartitionKind, alpha float64, k int,
	cfg fed.FedAvgConfig, seed int64) (RetrainResult, fed.FedAvgResult, error) {

	rng := rand.New(rand.NewSource(seed))
	var part data.Partition
	var err error
	switch kind {
	case IID:
		part, err = data.IIDPartition(ds.NumTrain(), k, rng)
	case Dirichlet:
		part, err = data.DirichletPartition(ds.TrainLabels, k, alpha, rng)
	default:
		return RetrainResult{}, fed.FedAvgResult{}, fmt.Errorf("retrain: unknown partition %d", int(kind))
	}
	if err != nil {
		return RetrainResult{}, fed.FedAvgResult{}, err
	}
	parts, err := fed.BuildParticipants(ds, part, seed+11)
	if err != nil {
		return RetrainResult{}, fed.FedAvgResult{}, err
	}
	model, err := nas.NewFixedModel(rng, netCfg, geno)
	if err != nil {
		return RetrainResult{}, fed.FedAvgResult{}, err
	}
	if cfg.NewReplica == nil {
		// Worker replicas only need the model's structure; their weights are
		// restored from the global snapshot before every local update.
		cfg.NewReplica = func() fed.Model {
			m, err := nas.NewFixedModel(rand.New(rand.NewSource(seed)), netCfg, geno)
			if err != nil {
				return nil // the model trains alone
			}
			return m
		}
	}
	fedRes, err := fed.FedAvg(model, ds, parts, cfg)
	if err != nil {
		return RetrainResult{}, fed.FedAvgResult{}, err
	}
	res := RetrainResult{
		Model:      model,
		TrainCurve: fedRes.TrainAcc,
		TestAcc:    fedRes.FinalAcc,
		TestErr:    1 - fedRes.FinalAcc,
		ParamCount: model.ParamCount(),
	}
	res.ParamMB = nas.ParamMB(res.ParamCount)
	return res, fedRes, nil
}
