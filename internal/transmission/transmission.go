// Package transmission implements the paper's adaptive sub-model assignment
// (Sec. IV "Adaptive transmission", Alg. 1 lines 10–11): sort sub-models by
// size and participants by bandwidth, then ship larger models over faster
// links to cut the round's maximum latency. Baseline assignment policies
// (random, uniform-size) reproduce Fig. 7's comparisons.
package transmission

import (
	"fmt"
	"math/rand"
	"slices"

	"fedrlnas/internal/nettrace"
)

// Policy selects how sub-models are matched to participants.
type Policy int

// Assignment policies.
const (
	// Adaptive sorts models by size and participants by bandwidth
	// (the paper's method).
	Adaptive Policy = iota + 1
	// Random shuffles models across participants.
	Random
	// Uniform sends every participant an average-sized payload (what
	// fixed-sub-model methods like FedNAS/EvoFedNAS effectively do).
	Uniform
	// Greedy is longest-processing-time list scheduling: models are
	// assigned largest-first to the participant with the smallest
	// projected finish time. With per-participant compute costs it can
	// beat rank pairing; on pure communication it matches it closely.
	Greedy
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case Adaptive:
		return "adaptive"
	case Random:
		return "random"
	case Uniform:
		return "uniform"
	case Greedy:
		return "greedy"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Assignment maps sub-model index -> participant index.
type Assignment struct {
	// ModelFor[k] is the index (into the round's model list) of the
	// sub-model shipped to participant k.
	ModelFor []int
	// LatencySeconds[k] is the download latency participant k pays.
	LatencySeconds []float64
}

// Max returns the worst per-participant latency (the round's critical path).
func (a Assignment) Max() float64 {
	m := 0.0
	for _, v := range a.LatencySeconds {
		if v > m {
			m = v
		}
	}
	return m
}

// Mean returns the average per-participant latency.
func (a Assignment) Mean() float64 {
	if len(a.LatencySeconds) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range a.LatencySeconds {
		s += v
	}
	return s / float64(len(a.LatencySeconds))
}

// Assign matches len(modelBytes) sub-models to len(bandwidthsMbps)
// participants (the counts must match) under the given policy. rng is used
// only by the Random policy.
//
// modelBytes is whatever the caller would actually transmit: the search
// engine and the RPC server feed *measured* wire-frame sizes under the
// active encoding (nas.SubModelWireBytes / wire.GroupBytes), not raw
// parameter counts, so the ranking tracks real transfer cost.
func Assign(policy Policy, modelBytes []int64, bandwidthsMbps []float64, rng *rand.Rand) (Assignment, error) {
	k := len(bandwidthsMbps)
	if len(modelBytes) != k {
		return Assignment{}, fmt.Errorf("transmission: %d models for %d participants", len(modelBytes), k)
	}
	if k == 0 {
		return Assignment{}, fmt.Errorf("transmission: no participants")
	}
	modelFor := make([]int, k)
	switch policy {
	case Adaptive:
		// Sort models ascending by size and participants ascending by
		// bandwidth; pair rank-for-rank so the largest model rides the
		// fastest link.
		modelOrder := argsort(modelBytes)
		partOrder := argsort(bandwidthsMbps)
		for r := 0; r < k; r++ {
			modelFor[partOrder[r]] = modelOrder[r]
		}
	case Random:
		if rng == nil {
			return Assignment{}, fmt.Errorf("transmission: random policy needs an rng")
		}
		perm := rng.Perm(k)
		for p, m := range perm {
			modelFor[p] = m
		}
	case Greedy:
		// Largest model first, each to the participant whose projected
		// latency for it is smallest among the still-free participants.
		modelOrder := argsort(modelBytes)
		free := make([]bool, k)
		for i := range free {
			free[i] = true
		}
		for i := k - 1; i >= 0; i-- { // descending size
			m := modelOrder[i]
			best, bestLat := -1, 0.0
			for p := 0; p < k; p++ {
				if !free[p] {
					continue
				}
				lat := nettrace.TransferSeconds(modelBytes[m], bandwidthsMbps[p])
				if best < 0 || lat < bestLat {
					best, bestLat = p, lat
				}
			}
			modelFor[best] = m
			free[best] = false
		}
	case Uniform:
		// Everyone receives the average payload; model identity is
		// positional (participant k trains model k).
		var total int64
		for _, b := range modelBytes {
			total += b
		}
		avg := total / int64(k)
		lat := make([]float64, k)
		for p := 0; p < k; p++ {
			modelFor[p] = p
			lat[p] = nettrace.TransferSeconds(avg, bandwidthsMbps[p])
		}
		return Assignment{ModelFor: modelFor, LatencySeconds: lat}, nil
	default:
		return Assignment{}, fmt.Errorf("transmission: unknown policy %d", int(policy))
	}
	lat := make([]float64, k)
	for p := 0; p < k; p++ {
		lat[p] = nettrace.TransferSeconds(modelBytes[modelFor[p]], bandwidthsMbps[p])
	}
	return Assignment{ModelFor: modelFor, LatencySeconds: lat}, nil
}

// argsort returns the indices of vals in ascending order, ties in index
// order. A stable sort's result is unique, so the sort algorithm cannot move
// an assignment; slices' generic sort allocates nothing beyond idx.
func argsort[T int64 | float64](vals []T) []int {
	idx := make([]int, len(vals))
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(a, b int) int {
		switch {
		case vals[a] < vals[b]:
			return -1
		case vals[b] < vals[a]:
			return 1
		}
		return 0
	})
	return idx
}
