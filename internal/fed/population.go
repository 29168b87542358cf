package fed

import (
	"fmt"

	"fedrlnas/internal/data"
	"fedrlnas/internal/nettrace"
)

// Population is a lazy participant registry: it enrolls every shard of a
// partition up front but materializes a Participant (its RNG, its copied
// and shuffled batch pool) only when that participant is first requested.
// With per-round cohort sampling, an enrolled-but-never-sampled client
// costs one nil pointer — the registry holds 10,000 enrollments as cheaply
// as 10 — while a sampled client's state persists once built, so its
// batcher epoch position and RNG stream advance across the rounds it
// participates in exactly as an eagerly built participant's would.
//
// Determinism: participant k's RNG is seeded by seed + k·7919 regardless
// of when (or whether) k is materialized, and the batcher shuffle draws
// only from that private RNG, so lazily built populations are
// participant-for-participant identical to eager ones. BuildParticipants
// is now a thin wrapper that materializes everything immediately.
type Population struct {
	partition data.Partition
	seed      int64
	parts     []*Participant
	built     int

	speedFn func(k int) float64
	traceFn func(k int) nettrace.Trace
	churnFn func(k int) float64
}

// NewPopulation enrolls one participant per partition shard without
// materializing any of them.
func NewPopulation(partition data.Partition, seed int64) *Population {
	return &Population{
		partition: partition,
		seed:      seed,
		parts:     make([]*Participant, partition.NumParticipants()),
	}
}

// Len returns the enrolled population size K.
func (p *Population) Len() int { return len(p.parts) }

// Materialized returns how many participants have been built so far (a
// memory-model observable: it must track cohort coverage, not K).
func (p *Population) Materialized() int { return p.built }

// Get returns participant k, building it on first access.
func (p *Population) Get(k int) (*Participant, error) {
	if k < 0 || k >= len(p.parts) {
		return nil, fmt.Errorf("fed: participant %d outside population of %d", k, len(p.parts))
	}
	if p.parts[k] != nil {
		return p.parts[k], nil
	}
	part, err := NewParticipant(k, p.partition.Indices[k], p.seed+int64(k)*7919)
	if err != nil {
		return nil, err
	}
	if p.speedFn != nil {
		part.SpeedFactor = p.speedFn(k)
	}
	if p.traceFn != nil {
		part.Trace = p.traceFn(k)
	}
	if p.churnFn != nil {
		part.ChurnProb = p.churnFn(k)
	}
	p.parts[k] = part
	p.built++
	return part, nil
}

// All materializes and returns the full population in ID order (the
// legacy eager path; callers that can iterate a cohort instead should).
func (p *Population) All() ([]*Participant, error) {
	for k := range p.parts {
		if _, err := p.Get(k); err != nil {
			return nil, err
		}
	}
	return p.parts, nil
}

// SetSpeedFn installs a per-participant compute speed factor, applied to
// every already-materialized participant and to all future ones. A nil fn
// restores the default factor of 1 for future builds only.
func (p *Population) SetSpeedFn(fn func(k int) float64) {
	p.speedFn = fn
	if fn == nil {
		return
	}
	for k, part := range p.parts {
		if part != nil {
			part.SpeedFactor = fn(k)
		}
	}
}

// SetTraceFn installs a per-participant bandwidth trace source, applied
// like SetSpeedFn.
func (p *Population) SetTraceFn(fn func(k int) nettrace.Trace) {
	p.traceFn = fn
	if fn == nil {
		return
	}
	for k, part := range p.parts {
		if part != nil {
			part.Trace = fn(k)
		}
	}
}

// SetChurnFn installs a per-participant availability schedule (the
// scenario profile's churn probability), applied like SetSpeedFn.
func (p *Population) SetChurnFn(fn func(k int) float64) {
	p.churnFn = fn
	if fn == nil {
		return
	}
	for k, part := range p.parts {
		if part != nil {
			part.ChurnProb = fn(k)
		}
	}
}

// ParticipantState is the resumable stream state of one materialized
// participant — everything beyond (seed, id) a checkpoint must carry: the
// private RNG position, and the batcher's current shuffle order and epoch
// cursor (the shuffle VALUES matter, not just the RNG position, because
// the pool order is the residue of draws already consumed).
type ParticipantState struct {
	ID     int
	RNGPos uint64
	Pool   []int
	Pos    int
}

// States captures the state of every materialized participant in ID order.
// Never-sampled enrollees need nothing: they materialize deterministically
// from (seed, id) whenever first drawn.
func (p *Population) States() []ParticipantState {
	var out []ParticipantState
	for k, part := range p.parts {
		if part == nil {
			continue
		}
		pool, pos := part.Batcher.State()
		out = append(out, ParticipantState{ID: k, RNGPos: part.Src.Pos(), Pool: pool, Pos: pos})
	}
	return out
}

// RestoreStates materializes each listed participant and rewinds its RNG
// stream and batcher to the captured position, making the population
// stream-for-stream identical to the one that produced the states.
func (p *Population) RestoreStates(states []ParticipantState) error {
	for _, st := range states {
		part, err := p.Get(st.ID)
		if err != nil {
			return err
		}
		part.Src.Restore(st.RNGPos)
		if err := part.Batcher.RestoreState(st.Pool, st.Pos); err != nil {
			return fmt.Errorf("participant %d: %w", st.ID, err)
		}
	}
	return nil
}
