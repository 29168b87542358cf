// Package staleness implements the paper's soft-synchronization machinery
// (Sec. V, Alg. 1): staleness schedules that model late-arriving participant
// updates, bounded memory pools for stale θ/α/g snapshots, and the
// second-order Taylor delay compensation of Eq. 13–15.
package staleness

import (
	"fmt"
	"math/rand"
	"sort"

	"fedrlnas/internal/tensor"
)

// Strategy selects how the server handles stale updates (Fig. 8's
// comparisons).
type Strategy int

// Strategies.
const (
	// Hard is full synchronization: the server waits for everyone, so no
	// update is ever stale (0% staleness).
	Hard Strategy = iota + 1
	// Use applies stale gradients as if they were fresh.
	Use
	// Throw discards stale updates entirely.
	Throw
	// DC applies the delay-compensated correction (the paper's method).
	DC
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case Hard:
		return "hard-sync"
	case Use:
		return "use-stale"
	case Throw:
		return "throw-stale"
	case DC:
		return "delay-compensated"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// Schedule is the distribution of update delays: Probs[d] is the chance an
// update arrives d rounds late. Leftover probability mass models updates
// beyond the staleness threshold, which the server drops (Alg. 1 line 23).
type Schedule struct {
	Probs []float64
}

// NoStaleness returns the hard-synchronization schedule (all fresh).
func NoStaleness() Schedule { return Schedule{Probs: []float64{1}} }

// Severe returns the paper's severe distribution: 30% fresh, 40% one round
// late, 20% two rounds late, 10% beyond the threshold.
func Severe() Schedule { return Schedule{Probs: []float64{0.3, 0.4, 0.2}} }

// Slight returns the paper's slight distribution: 90% fresh, 9% one round
// late, 0.9% two rounds late, the rest beyond the threshold.
func Slight() Schedule { return Schedule{Probs: []float64{0.9, 0.09, 0.009}} }

// Validate checks that the schedule is a (sub-)distribution.
func (s Schedule) Validate() error {
	if len(s.Probs) == 0 {
		return fmt.Errorf("staleness: empty schedule")
	}
	total := 0.0
	for d, p := range s.Probs {
		if p < 0 {
			return fmt.Errorf("staleness: negative probability at delay %d", d)
		}
		total += p
	}
	if total > 1+1e-9 {
		return fmt.Errorf("staleness: probabilities sum to %v > 1", total)
	}
	return nil
}

// MaxDelay returns the largest representable delay (the staleness threshold
// Δ implied by the schedule).
func (s Schedule) MaxDelay() int { return len(s.Probs) - 1 }

// Sample draws a delay; dropped reports the update exceeded the threshold.
func (s Schedule) Sample(rng *rand.Rand) (delay int, dropped bool) {
	r := rng.Float64()
	acc := 0.0
	for d, p := range s.Probs {
		acc += p
		if r < acc {
			return d, false
		}
	}
	return 0, true
}

// Pool is a bounded per-round snapshot store (the Θ/𝔸/𝔾 memories of
// Alg. 1). Round r lives in slot r mod the pool's size, so a snapshot keeps
// its address until evicted and its storage is refilled in place for a
// later round: once built, a pool allocates nothing. Entries older than the
// staleness threshold are evicted.
type Pool[T any] struct {
	threshold int
	rounds    []int // round held by each slot, -1 when empty
	slots     []T
	// OnEvict, when set, sees each snapshot as Evict drops it.
	OnEvict func(*T)
}

// NewPool builds a pool that retains snapshots for `threshold` rounds in
// threshold+2 slots: the threshold+1 rounds a reply may answer and one
// evicted spare, so a slot is refilled at least a full round after its
// eviction.
func NewPool[T any](threshold int) *Pool[T] {
	threshold = max(threshold, 0)
	return newPool[T](threshold, threshold+2)
}

// NewLivePool builds a one-slot pool with NewPool's eviction rule, for when
// no stale snapshot is ever read: each round takes over the previous one's
// slot.
func NewLivePool[T any](threshold int) *Pool[T] {
	return newPool[T](max(threshold, 0), 1)
}

func newPool[T any](threshold, size int) *Pool[T] {
	p := &Pool[T]{threshold: threshold, rounds: make([]int, size), slots: make([]T, size)}
	for i := range p.rounds {
		p.rounds[i] = -1
	}
	return p
}

// Slots returns the pool's storage, one entry per slot, for a caller to
// allocate what it will refill in place.
func (p *Pool[T]) Slots() []T { return p.slots }

// Slot claims round's slot, dropping whatever round it held, and returns
// it with its previous contents for the caller to refill (Alg. 1 line 4/7).
func (p *Pool[T]) Slot(round int) *T {
	i := round % len(p.slots)
	p.rounds[i] = round
	return &p.slots[i]
}

// Put stores the snapshot for a round.
func (p *Pool[T]) Put(round int, snap T) { *p.Slot(round) = snap }

// At returns the snapshot stored for a round in place, or nil.
func (p *Pool[T]) At(round int) *T {
	if round < 0 {
		return nil
	}
	i := round % len(p.slots)
	if p.rounds[i] != round {
		return nil
	}
	return &p.slots[i]
}

// Get retrieves the snapshot stored for a round.
func (p *Pool[T]) Get(round int) (T, bool) {
	if s := p.At(round); s != nil {
		return *s, true
	}
	var zero T
	return zero, false
}

// Evict removes snapshots older than current−threshold (Alg. 1 lines 34–35).
func (p *Pool[T]) Evict(current int) {
	for i, r := range p.rounds {
		if r >= 0 && r < current-p.threshold {
			p.rounds[i] = -1
			if p.OnEvict != nil {
				p.OnEvict(&p.slots[i])
			}
		}
	}
}

// Len returns the number of retained snapshots.
func (p *Pool[T]) Len() int {
	n := 0
	for _, r := range p.rounds {
		if r >= 0 {
			n++
		}
	}
	return n
}

// Rounds returns the retained round numbers in ascending order.
func (p *Pool[T]) Rounds() []int {
	var out []int
	for _, r := range p.rounds {
		if r >= 0 {
			out = append(out, r)
		}
	}
	sort.Ints(out)
	return out
}

// CompensateTheta applies Eq. 13 to a stale weight gradient:
//
//	g_dc = g + λ · g ⊙ g ⊙ (θ_fresh − θ_stale)
//
// where g is the gradient the straggler computed at θ_stale and θ_fresh is
// the server's current copy of the same (sub-model) parameters. The inputs
// are parallel tensor lists; the result is freshly allocated.
func CompensateTheta(grads, fresh, stale []*tensor.Tensor, lambda float64) ([]*tensor.Tensor, error) {
	out := make([]*tensor.Tensor, len(grads))
	for i, g := range grads {
		out[i] = g.Clone()
	}
	if err := CompensateThetaInPlace(out, fresh, stale, lambda); err != nil {
		return nil, err
	}
	return out, nil
}

// CompensateThetaInPlace is CompensateTheta writing g_dc over grads. Every
// shape is checked before anything is written, so an error leaves grads as
// they were.
func CompensateThetaInPlace(grads, fresh, stale []*tensor.Tensor, lambda float64) error {
	if len(grads) != len(fresh) || len(grads) != len(stale) {
		return fmt.Errorf("staleness: mismatched lengths g=%d fresh=%d stale=%d",
			len(grads), len(fresh), len(stale))
	}
	for i, g := range grads {
		if !g.SameShape(fresh[i]) || !g.SameShape(stale[i]) {
			return fmt.Errorf("staleness: shape mismatch at tensor %d", i)
		}
	}
	for i, g := range grads {
		gd, fd, sd := g.Data(), fresh[i].Data(), stale[i].Data()
		for j := range gd {
			gd[j] += lambda * gd[j] * gd[j] * (fd[j] - sd[j])
		}
	}
	return nil
}
