// Package cohort implements deterministic per-round participant sampling
// for population-scale federated rounds. Production FL does not run every
// enrolled client every round: a small cohort is drawn per round from a
// large (possibly churning) population, and only cohort members pay any
// per-round cost. This package is the single sampler shared by the
// in-process engine (internal/search), the FedAvg trainer (internal/fed,
// where it absorbs the ClientFraction path), and the RPC server
// (internal/rpcfed), so CLI and distributed deployments draw identical
// schedules from the same seed.
//
// Determinism contract: round r's cohort is a pure function of
// (seed, enrolled, size, r). The sampler carries no RNG state from one
// round to the next — every round reseeds its one stream from a SplitMix64
// mix of the seed and the round index — so the schedule is independent of
// call order, of how many times a round is queried, of every other RNG
// stream in the system, and (the invariant inherited from the lifecycle
// layer) of any fault or chaos schedule. Two runs with the same seed sample
// the same cohorts even if one of them loses half its connections.
package cohort

import (
	"fmt"
	"math/rand"
	"sort"
)

// Sampler draws a fixed-size per-round cohort from an enrolled population.
// The zero value is not usable; construct with New. A Sampler is immutable
// after construction except for the scratch AppendCohort reuses (a swap map
// and the reseeded stream), so callers that share one across goroutines
// must serialize AppendCohort calls (the round loops that own samplers are
// single-threaded). Cohort and Contains draw on private scratch.
type Sampler struct {
	seed     int64
	enrolled int
	size     int

	// swaps is the sparse Fisher–Yates scratch reused across rounds so a
	// steady-state draw is O(size), not O(enrolled), in both time and
	// fresh allocations.
	swaps map[int]int
	// rng is reseeded at every draw; Seed makes it draw exactly what a
	// fresh rand.New(rand.NewSource(seed)) would, without allocating the
	// source's ~5 KB state each round.
	rng *rand.Rand
}

// New returns a sampler over an enrolled population of k participants that
// draws size-member cohorts. size <= 0 or size >= k selects everyone (the
// pre-population behavior: every round runs the full population).
func New(seed int64, enrolled, size int) (*Sampler, error) {
	if enrolled <= 0 {
		return nil, fmt.Errorf("cohort: enrolled %d must be positive", enrolled)
	}
	if size < 0 {
		return nil, fmt.Errorf("cohort: size %d must be >= 0", size)
	}
	if size == 0 || size > enrolled {
		size = enrolled
	}
	return &Sampler{
		seed:     seed,
		enrolled: enrolled,
		size:     size,
		swaps:    make(map[int]int, size),
		rng:      rand.New(rand.NewSource(0)),
	}, nil
}

// Enrolled returns the population size K.
func (s *Sampler) Enrolled() int { return s.enrolled }

// Size returns the effective cohort size (equal to Enrolled when the
// sampler selects everyone).
func (s *Sampler) Size() int { return s.size }

// Full reports whether every enrolled participant is in every cohort, i.e.
// the sampler is a no-op and callers may keep their full-population paths.
func (s *Sampler) Full() bool { return s.size == s.enrolled }

// Cohort returns round's cohort as a fresh sorted slice of participant
// indices in [0, Enrolled), without duplicates. It draws on private scratch,
// so it may run beside the round loop's AppendCohort (a debug endpoint
// reading the current cohort does).
func (s *Sampler) Cohort(round int) []int {
	if s.Full() {
		return s.AppendCohort(nil, round)
	}
	rng := rand.New(rand.NewSource(roundSeed(s.seed, round)))
	return s.draw(nil, rng, make(map[int]int, s.size))
}

// AppendCohort appends round's cohort to buf (pass buf[:0] to reuse
// storage across rounds) and returns the extended slice, sorted ascending.
// The ascending order is load-bearing: every merge downstream runs in
// cohort order, so sorting here is what keeps aggregation order canonical
// no matter what order the draw produced. It reuses the sampler's scratch,
// so a steady-state draw allocates nothing.
func (s *Sampler) AppendCohort(buf []int, round int) []int {
	if s.Full() {
		for i := 0; i < s.enrolled; i++ {
			buf = append(buf, i)
		}
		return buf
	}
	s.rng.Seed(roundSeed(s.seed, round))
	clear(s.swaps)
	return s.draw(buf, s.rng, s.swaps)
}

// draw appends the cohort rng, freshly seeded for the round, picks: a
// partial Fisher–Yates over [0, enrolled) with sparse swap tracking in the
// empty swaps. Draw i swaps a uniform j ∈ [i, enrolled) into position i.
// Only positions actually touched live in the map, so a 10-member cohort
// from a 10,000-member population touches ~20 map entries.
func (s *Sampler) draw(buf []int, rng *rand.Rand, swaps map[int]int) []int {
	start := len(buf)
	for i := 0; i < s.size; i++ {
		j := i + rng.Intn(s.enrolled-i)
		vj, ok := swaps[j]
		if !ok {
			vj = j
		}
		vi, ok := swaps[i]
		if !ok {
			vi = i
		}
		buf = append(buf, vj)
		swaps[j] = vi
	}
	sort.Ints(buf[start:])
	return buf
}

// Contains reports whether participant k is in round's cohort. It draws
// the cohort, so it is O(Size log Size); callers on a hot path should keep
// the round's sorted cohort and binary-search it with Position instead.
func (s *Sampler) Contains(round, k int) bool {
	if s.Full() {
		return k >= 0 && k < s.enrolled
	}
	_, ok := Position(s.Cohort(round), k)
	return ok
}

// Position binary-searches a sorted cohort for participant k, returning
// its cohort position (the index all per-round state is keyed by).
func Position(sortedCohort []int, k int) (int, bool) {
	i := sort.SearchInts(sortedCohort, k)
	if i < len(sortedCohort) && sortedCohort[i] == k {
		return i, true
	}
	return 0, false
}

// FractionSize converts McMahan-style client-fraction C into an absolute
// cohort size over k participants: max(1, round(C·k)), with C <= 0 or
// C >= 1 meaning everyone. This is the single place the FedAvg
// ClientFraction semantics live now that fed and rpcfed share one sampler.
func FractionSize(k int, fraction float64) int {
	if fraction <= 0 || fraction >= 1 {
		return k
	}
	n := int(fraction*float64(k) + 0.5)
	if n < 1 {
		n = 1
	}
	if n > k {
		n = k
	}
	return n
}

// roundSeed mixes the run seed with the round index through SplitMix64 so
// consecutive rounds land on decorrelated RNG streams (adjacent raw seeds
// of Go's LFSR source produce visibly correlated first draws).
func roundSeed(seed int64, round int) int64 {
	z := uint64(seed) + (uint64(round)+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}
