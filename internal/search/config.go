// Package search is the paper's primary contribution: reinforcement-
// learning-based federated model search (Sec. IV) with adaptive sub-model
// transmission and delay-compensated soft synchronization (Sec. V, Alg. 1).
//
// The pipeline has four phases (Sec. VI-A):
//
//	P1 warm-up   — train supernet weights θ with α frozen (uniform sampling)
//	P2 search    — Alg. 1: jointly optimize θ (FedAvg-on-gradients) and α
//	               (REINFORCE with baseline) over the federated participants
//	P3 retrain   — re-initialize the derived architecture and train from
//	               scratch, centralized or federated
//	P4 evaluate  — test-set accuracy of the retrained model
package search

import (
	"fmt"

	"fedrlnas/internal/data"
	"fedrlnas/internal/round"
	"fedrlnas/internal/scenario"
	"fedrlnas/internal/staleness"
	"fedrlnas/internal/transmission"
)

// PartitionKind selects how training data is split across participants.
type PartitionKind int

// Partition kinds.
const (
	// IID deals samples uniformly at random.
	IID PartitionKind = iota + 1
	// Dirichlet splits per-class mass by Dir(alpha) draws (non-i.i.d.).
	Dirichlet
)

// String implements fmt.Stringer.
func (p PartitionKind) String() string {
	switch p {
	case IID:
		return "iid"
	case Dirichlet:
		return "dirichlet"
	default:
		return fmt.Sprintf("partition(%d)", int(p))
	}
}

// Config assembles every knob of the search pipeline. Defaults mirror the
// paper's Table I, rescaled to this substrate (see DESIGN.md §2).
type Config struct {
	// Spec is Alg. 1's configuration shared with the RPC server: Net, Alpha,
	// BatchSize, the θ optimizer, the soft-sync knobs and Seed. Its fields
	// are promoted, so cfg.BatchSize, cfg.Strategy etc. read directly. The
	// in-process engine derives delays from Staleness rather than real
	// arrival times, so Quorum only participates in validation here, and
	// the retention pools are sized by the larger of StalenessThreshold and
	// the schedule's maximum delay.
	round.Spec

	// Dataset is the synthetic dataset specification.
	Dataset data.Spec
	// Partition selects IID or Dirichlet; DirichletAlpha is the paper's 0.5.
	Partition      PartitionKind
	DirichletAlpha float64
	// K is the number of participants (paper default 10).
	K int

	// WarmupSteps and SearchSteps are communication-round counts for P1/P2.
	WarmupSteps int
	SearchSteps int

	// Staleness is the delay distribution driving simulated reply delays.
	Staleness staleness.Schedule

	// Transmission selects the sub-model assignment policy.
	Transmission transmission.Policy

	// AlphaOnly freezes θ during search (the Fig. 5 ablation).
	AlphaOnly bool

	// ChurnProb is the per-round probability that a participant is
	// offline entirely (connection loss, the failure mode motivating
	// Sec. V); its sub-model is skipped for that round. 0 disables churn.
	ChurnProb float64

	// Scenario, when set, describes the device population: profile mix
	// (speed, network regime, churn, per-profile skew), an optional
	// population-wide skew override, and the personalization mode. A
	// non-nil Scenario's population supersedes Partition/DirichletAlpha
	// and the churn/speed/trace defaults; a nil (or zero) Scenario leaves
	// every stream bit-identical to pre-scenario builds. Scenario is
	// deliberately excluded from checkpoint state: like the rest of
	// Config, the resuming process must supply it.
	Scenario *scenario.Spec `json:"Scenario,omitempty"`

	// Augment is the participant-side augmentation.
	Augment data.AugmentConfig

	// Workers caps the number of participants whose local steps run
	// concurrently within a round; 0 selects runtime.NumCPU(). Results are
	// bit-identical at every worker count (see DESIGN.md §Concurrency).
	Workers int
}

// DefaultConfig returns a laptop-scale configuration faithful to Table I.
func DefaultConfig() Config {
	return Config{
		Spec:           round.DefaultSpec(),
		Dataset:        data.CIFAR10S(),
		Partition:      IID,
		DirichletAlpha: 0.5,
		K:              10,
		WarmupSteps:    30,
		SearchSteps:    60,
		Staleness:      staleness.NoStaleness(),
		Transmission:   transmission.Adaptive,
		Augment:        data.DefaultAugment(),
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Dataset.Validate(); err != nil {
		return fmt.Errorf("search: dataset: %w", err)
	}
	if err := c.Spec.Validate(); err != nil {
		return fmt.Errorf("search: %w", err)
	}
	if err := c.Staleness.Validate(); err != nil {
		return fmt.Errorf("search: staleness: %w", err)
	}
	if err := c.Scenario.Validate(); err != nil {
		return fmt.Errorf("search: scenario: %w", err)
	}
	switch {
	case c.K <= 0:
		return fmt.Errorf("search: K %d must be positive", c.K)
	case c.WarmupSteps < 0 || c.SearchSteps < 0:
		return fmt.Errorf("search: negative phase length")
	case c.Partition != IID && c.Partition != Dirichlet:
		return fmt.Errorf("search: unknown partition %d", int(c.Partition))
	case c.Partition == Dirichlet && c.DirichletAlpha <= 0:
		return fmt.Errorf("search: DirichletAlpha %v must be positive", c.DirichletAlpha)
	case c.ChurnProb < 0 || c.ChurnProb >= 1:
		return fmt.Errorf("search: ChurnProb %v outside [0,1)", c.ChurnProb)
	case c.Workers < 0:
		return fmt.Errorf("search: Workers %d must be >= 0", c.Workers)
	case c.Net.NumClasses != c.Dataset.NumClasses:
		return fmt.Errorf("search: net classes %d != dataset classes %d",
			c.Net.NumClasses, c.Dataset.NumClasses)
	case c.Net.InChannels != c.Dataset.Channels:
		return fmt.Errorf("search: net channels %d != dataset channels %d",
			c.Net.InChannels, c.Dataset.Channels)
	}
	return nil
}
