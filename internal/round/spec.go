package round

import (
	"fmt"

	"fedrlnas/internal/controller"
	"fedrlnas/internal/nas"
	"fedrlnas/internal/staleness"
)

// Spec is the part of a run's configuration that belongs to Alg. 1 itself
// rather than to either transport: the supernet's shape, the controller, the
// participant batch size, the θ optimizer, the soft-sync knobs and the seed.
// search.Config and rpcfed.ServerConfig embed it, so each knob is declared,
// defaulted and validated once; its fields are promoted (cfg.BatchSize,
// cfg.Quorum), and as an untagged embedded struct it flattens into their
// JSON. New builds the controller, the θ optimizer and the cohort sampler
// from it.
type Spec struct {
	// Net sizes the supernet.
	Net nas.Config
	// Alpha configures the RL controller (Table I α block).
	Alpha controller.Config
	// BatchSize is the participant batch size per round.
	BatchSize int

	// θ optimizer (Table I: lr 0.025, momentum 0.9, wd 3e-4, clip 5; the
	// default LR is rescaled like the α LR — see DefaultSpec).
	ThetaLR       float64
	ThetaMomentum float64
	ThetaWD       float64
	ThetaClip     float64

	// SyncConfig carries the soft-synchronization knobs (Quorum,
	// StalenessThreshold, Lambda, Strategy, CohortSize, Shards).
	staleness.SyncConfig

	// Seed drives every stochastic component; the cohort schedule is drawn
	// from Seed+303.
	Seed int64
}

// DefaultSpec returns Table I at this substrate's scale under hard sync: a
// CIFAR10S-shaped supernet, batch 16, and the paper's optimizer settings
// with both learning rates rescaled. The paper searches for 6000–10000
// steps at α lr 0.003 and θ lr 0.025, while laptop-scale runs take a few
// hundred rounds, so each per-round step is proportionally larger to cover
// the same distance.
func DefaultSpec() Spec {
	alpha := controller.DefaultConfig()
	alpha.LR = 0.3
	return Spec{
		Net: nas.Config{
			InChannels: 3, NumClasses: 10, C: 4, Layers: 3, Nodes: 2,
			Candidates: nas.AllOps,
		},
		Alpha:         alpha,
		BatchSize:     16,
		ThetaLR:       0.2,
		ThetaMomentum: 0.9,
		ThetaWD:       3e-4,
		ThetaClip:     5,
		SyncConfig: staleness.SyncConfig{
			Quorum: 1, StalenessThreshold: 0, Lambda: 1, Strategy: staleness.Hard,
		},
		Seed: 1,
	}
}

// Validate checks the shared knobs. The errors carry no package prefix;
// each embedding config adds its own.
func (s Spec) Validate() error {
	if err := s.Net.Validate(); err != nil {
		return fmt.Errorf("net: %w", err)
	}
	if err := s.SyncConfig.Validate(); err != nil {
		return err
	}
	switch {
	case s.BatchSize <= 0:
		return fmt.Errorf("BatchSize %d must be positive", s.BatchSize)
	case s.ThetaLR <= 0:
		return fmt.Errorf("ThetaLR %v must be positive", s.ThetaLR)
	}
	return nil
}
