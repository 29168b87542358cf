package staleness

import (
	"errors"
	"fmt"
)

// SyncConfig is the soft-synchronization knob set shared by every Alg. 1
// round loop. round.Spec embeds it, and the in-process engine
// (search.Config) and the RPC server (rpcfed.ServerConfig) embed round.Spec,
// so the quorum/staleness/compensation semantics are declared and validated
// exactly once.
type SyncConfig struct {
	// Quorum is the fraction of participants whose replies close a round
	// (the paper's "wait for most participants"); 1.0 is hard sync. The
	// RPC server recomputes the absolute quorum each round over the
	// participants currently believed live, so the fraction keeps meaning
	// "most of whoever is left" as nodes die and come back. The in-process
	// engine drives staleness from a schedule instead of real arrival
	// times, so there it only participates in validation.
	Quorum float64
	// StalenessThreshold is Δ: replies older than this many rounds are
	// dropped (Alg. 1 line 23). The in-process engine additionally bounds
	// Δ by its staleness schedule's maximum delay; the RPC server uses it
	// directly to size the θ/α/gates retention pools.
	StalenessThreshold int
	// Lambda is the delay-compensation strength (Eq. 13/15).
	Lambda float64
	// Strategy selects how late replies are treated (Hard, Use, Throw,
	// or DC).
	Strategy Strategy
	// CohortSize is the number of participants sampled into each round's
	// cohort from the enrolled population (production FL's
	// clients-per-round). 0 (or >= the population) runs everyone every
	// round — the pre-population behavior. The cohort schedule is a pure
	// function of the run seed and round index, independent of the fault
	// schedule.
	CohortSize int
	// Shards is the number of parameter-range shards the θ merge is split
	// into. Sharding is by destination parameter index, not by
	// participant, so every accumulator still sums replies in canonical
	// ascending order and the result is bit-identical at every shard
	// count. 0 or 1 keeps a single root merge.
	Shards int
}

// Validate checks the shared soft-sync knobs, reporting every problem
// found — a hand-edited config fixes all its mistakes in one pass.
func (c SyncConfig) Validate() error {
	var errs []error
	if c.Quorum <= 0 || c.Quorum > 1 {
		errs = append(errs, fmt.Errorf("staleness: Quorum %v outside (0,1]", c.Quorum))
	}
	if c.StalenessThreshold < 0 {
		errs = append(errs, fmt.Errorf("staleness: StalenessThreshold %d must be >= 0", c.StalenessThreshold))
	}
	if c.Lambda < 0 {
		errs = append(errs, fmt.Errorf("staleness: Lambda %v must be >= 0", c.Lambda))
	}
	if c.CohortSize < 0 {
		errs = append(errs, fmt.Errorf("staleness: CohortSize %d must be >= 0", c.CohortSize))
	}
	if c.Shards < 0 {
		errs = append(errs, fmt.Errorf("staleness: Shards %d must be >= 0", c.Shards))
	}
	switch c.Strategy {
	case Hard, Use, Throw, DC:
	default:
		errs = append(errs, fmt.Errorf("staleness: unknown strategy %d", int(c.Strategy)))
	}
	return errors.Join(errs...)
}
