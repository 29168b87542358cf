package search

import (
	"context"
	"fmt"

	"fedrlnas/internal/fed"
	"fedrlnas/internal/metrics"
	"fedrlnas/internal/nas"
	"fedrlnas/internal/scenario"
	"fedrlnas/internal/telemetry"
	"fedrlnas/internal/wire"
)

// PipelineResult bundles the full P1→P4 run.
type PipelineResult struct {
	Genotype nas.Genotype

	WarmupCurve  metrics.Curve
	SearchCurve  metrics.Curve
	EntropyCurve metrics.Curve

	// SearchSeconds is the virtual time of P1+P2 (Table V's search time).
	SearchSeconds float64
	// MeanSubModelMB and SupernetMB reproduce Table V's size columns.
	MeanSubModelMB float64
	SupernetMB     float64

	Centralized RetrainResult
	Federated   RetrainResult
	FedCurves   fed.FedAvgResult
}

// PipelineOptions selects which P3 variants to run and how the live
// search phases are observed.
type PipelineOptions struct {
	// Centralized runs P3 centrally with this config (nil skips it).
	Centralized *RetrainConfig
	// Federated runs P3 with FedAvg (nil skips it).
	Federated *fed.FedAvgConfig
	// Tracer receives per-round span events from P1/P2 (nil disables
	// tracing at zero cost).
	Tracer *telemetry.Tracer
	// Registry backs the live search counters and gauges, e.g. for a
	// debug HTTP /metrics endpoint (nil keeps a private registry).
	Registry *telemetry.Registry
	// Resume loads this checkpoint into the freshly built search before
	// any round runs, so P1/P2 continue from the saved round with the
	// saved optimizer and RNG streams (bit-exact under hard sync).
	Resume string
	// CheckpointPath streams crash-safe checkpoints to this file during
	// P1/P2 and writes a final one when the schedule completes (""
	// disables). CheckpointEvery is the cadence in completed rounds
	// (<= 0: final checkpoint only).
	CheckpointPath  string
	CheckpointEvery int
}

// RunPipeline executes warm-up, search, derivation and the requested P3/P4
// variants end to end.
func RunPipeline(cfg Config, opts PipelineOptions) (PipelineResult, error) {
	s, err := New(cfg)
	if err != nil {
		return PipelineResult{}, err
	}
	s.SetTelemetry(opts.Tracer, opts.Registry)
	if opts.Resume != "" {
		if err := s.LoadCheckpoint(opts.Resume); err != nil {
			return PipelineResult{}, err
		}
	}
	// RunContext steps the whole remaining P1+P2 schedule; on a fresh
	// search it is bit-identical to the legacy Warmup()+Run() sequence
	// (pinned by TestStepRoundMatchesWarmupRun).
	if err := s.RunContext(context.Background(), opts.CheckpointPath, opts.CheckpointEvery); err != nil {
		return PipelineResult{}, err
	}
	res := PipelineResult{
		Genotype:       s.Derive(),
		WarmupCurve:    s.WarmupCurve,
		SearchCurve:    s.SearchCurve,
		EntropyCurve:   s.EntropyCurve,
		SearchSeconds:  s.TotalSeconds(),
		MeanSubModelMB: float64(s.MeanSubModelBytes()) / (1024 * 1024),
		SupernetMB:     float64(s.Supernet().SupernetWireBytes(wire.FP64)) / (1024 * 1024),
	}
	if opts.Centralized != nil {
		res.Centralized, err = RetrainCentralized(s.Dataset(), cfg.Net, res.Genotype, *opts.Centralized, cfg.Seed+33)
		if err != nil {
			return res, fmt.Errorf("pipeline centralized retrain: %w", err)
		}
	}
	if opts.Federated != nil {
		kind, alpha := retrainSplit(cfg)
		var fedRes fed.FedAvgResult
		res.Federated, fedRes, err = RetrainFederated(
			s.Dataset(), cfg.Net, res.Genotype,
			kind, alpha, cfg.K, *opts.Federated, cfg.Seed+44)
		if err != nil {
			return res, fmt.Errorf("pipeline federated retrain: %w", err)
		}
		res.FedCurves = fedRes
	}
	return res, nil
}

// retrainSplit picks the federated P3 split: the scenario's population-wide
// skew when one is set (the split P1/P2 searched on), else the
// Partition/DirichletAlpha pair.
func retrainSplit(cfg Config) (PartitionKind, float64) {
	if cfg.Scenario == nil || cfg.Scenario.Skew == nil {
		return cfg.Partition, cfg.DirichletAlpha
	}
	if cfg.Scenario.Skew.Kind == scenario.SkewDirichlet {
		return Dirichlet, cfg.Scenario.Skew.Alpha
	}
	return IID, cfg.DirichletAlpha
}
