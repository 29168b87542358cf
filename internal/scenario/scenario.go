// Package scenario is the engine behind "as many scenarios as you can
// imagine": a typed, composable description of WHO participates in a
// federated run and under WHAT conditions. A Spec bundles a device-profile
// population mix (compute speed, time-varying network regime, availability/
// churn, data skew — each profile a named catalog entry or an inline
// definition), an optional population-wide skew override, and the
// personalization mode (shared supernet body, per-client classifier head).
//
// Specs are the one description of a device population: they parse from a
// compact grammar or JSON (see Parse), marshal back to JSON losslessly,
// validate with every problem reported at once, and lower deterministically
// onto the existing substrate — profile assignment is a pure function of
// (spec, K, seed), so a population is carved up identically on every
// process, at every worker count, on both sides of an RPC deployment. An
// empty Spec lowers to nothing at all: runs stay bit-identical to builds
// without the scenario layer.
package scenario

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sort"

	"fedrlnas/internal/chaos"
	"fedrlnas/internal/data"
	"fedrlnas/internal/nettrace"
)

// Skew kinds.
const (
	SkewIID       = "iid"
	SkewDirichlet = "dirichlet"
)

// Skew selects how training data is split across a set of participants.
type Skew struct {
	// Kind is "iid" or "dirichlet".
	Kind string `json:"kind"`
	// Alpha is the Dirichlet concentration (smaller = more skew); ignored
	// for iid.
	Alpha float64 `json:"alpha,omitempty"`
}

func (s Skew) validate() error {
	switch s.Kind {
	case SkewIID:
		return nil
	case SkewDirichlet:
		if s.Alpha <= 0 {
			return fmt.Errorf("dirichlet skew alpha %v must be positive", s.Alpha)
		}
		return nil
	default:
		return fmt.Errorf("unknown skew kind %q (valid: %s, %s)", s.Kind, SkewIID, SkewDirichlet)
	}
}

// Phase is one segment of a profile's time-varying network: Rounds rounds
// of the named nettrace regime. Rounds 0 on the final phase means "the
// rest of the run".
type Phase struct {
	Regime string `json:"regime"`
	Rounds int    `json:"rounds,omitempty"`
}

// Profile describes one device class. The zero value of every field is a
// benign default (reference speed, flat default bandwidth, no churn, IID
// data), so inline profiles only state what makes the class special.
type Profile struct {
	Name string `json:"name"`
	// Speed multiplies virtual compute time (1 = reference device; 4 = a
	// 4x-slower microcontroller; 0 is treated as 1).
	Speed float64 `json:"speed,omitempty"`
	// Network is the device's bandwidth regime sequence; regime shifts
	// mid-run model environment changes (commuter boards a train). Empty
	// plus FixedMbps 0 leaves the default bandwidth in place.
	Network []Phase `json:"network,omitempty"`
	// FixedMbps pins a constant bandwidth instead of a mobility regime (a
	// wired edge node). Mutually exclusive with Network.
	FixedMbps float64 `json:"fixed_mbps,omitempty"`
	// Churn is the per-round probability the device is offline entirely —
	// the availability schedule feeding the engine's churn draw and, over
	// RPC, the lifecycle state machine via injected faults.
	Churn float64 `json:"churn,omitempty"`
	// SkewAlpha is the Dirichlet concentration of the profile's data shard
	// group (0 = IID within the group). A Spec-level Skew overrides it.
	SkewAlpha float64 `json:"skew_alpha,omitempty"`
	// Chaos is an optional chaos.ParseSpec fragment applied to the
	// device's transport in RPC deployments (latency, jitter, kills).
	Chaos string `json:"chaos,omitempty"`
}

func (p Profile) validate() error {
	var errs []error
	fail := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf("profile %q: "+format, append([]any{p.Name}, args...)...))
	}
	if p.Name == "" {
		errs = append(errs, errors.New("profile has no name"))
	}
	if p.Speed < 0 {
		fail("speed %v must be >= 0", p.Speed)
	}
	if p.FixedMbps < 0 {
		fail("fixed_mbps %v must be >= 0", p.FixedMbps)
	}
	if p.FixedMbps > 0 && len(p.Network) > 0 {
		fail("fixed_mbps and network phases are mutually exclusive")
	}
	if p.Churn < 0 || p.Churn >= 1 {
		fail("churn %v outside [0,1)", p.Churn)
	}
	if p.SkewAlpha < 0 {
		fail("skew_alpha %v must be >= 0", p.SkewAlpha)
	}
	for i, ph := range p.Network {
		if _, err := nettrace.ParseRegime(ph.Regime); err != nil {
			fail("network phase %d: %v", i, err)
		}
		if ph.Rounds < 0 {
			fail("network phase %d: rounds %d must be >= 0", i, ph.Rounds)
		} else if ph.Rounds == 0 && i != len(p.Network)-1 {
			fail("network phase %d: rounds 0 (rest of run) is only valid on the final phase", i)
		}
	}
	if p.Chaos != "" {
		if _, err := chaos.ParseSpec(p.Chaos); err != nil {
			fail("%v", err)
		}
	}
	return errors.Join(errs...)
}

// Share is one slice of a population mix: a fraction of the enrolled
// participants running as the named catalog profile or an inline Custom
// definition.
type Share struct {
	// Profile names a catalog entry; ignored when Custom is set.
	Profile string `json:"profile,omitempty"`
	// Fraction of the population in this share. All-zero fractions split
	// the population evenly.
	Fraction float64 `json:"fraction,omitempty"`
	// Custom inlines a profile definition instead of a catalog name.
	Custom *Profile `json:"custom,omitempty"`
}

// Spec is the unified scenario description — the one typed object every
// entry point (fedsearch, fedrpc, fedserve jobs) consumes.
type Spec struct {
	// Name labels the scenario in reports; optional.
	Name string `json:"name,omitempty"`
	// Population is the device-profile mix. Empty means "no profiles":
	// every participant keeps the substrate defaults.
	Population []Share `json:"population,omitempty"`
	// Skew, when set, overrides every profile's SkewAlpha with one
	// population-wide partition spec.
	Skew *Skew `json:"skew,omitempty"`
	// Personalize switches the search to federated-body/local-head mode:
	// the supernet body is shared and aggregated as usual while each
	// client trains a private classifier head that never leaves the device.
	Personalize bool `json:"personalize,omitempty"`
	// HeadLR is the local head's SGD learning rate (0 = the run's ThetaLR).
	HeadLR float64 `json:"head_lr,omitempty"`
}

// IsZero reports whether the spec requests nothing beyond the defaults (a
// zero Spec must lower to a no-op).
func (s *Spec) IsZero() bool {
	return s == nil || (len(s.Population) == 0 && s.Skew == nil && !s.Personalize && s.HeadLR == 0)
}

// Validate checks the whole spec and reports every problem found — not
// just the first — joined into one error, so a hand-written scenario file
// is fixable in a single pass.
func (s *Spec) Validate() error {
	if s == nil {
		return nil
	}
	var errs []error
	sum := 0.0
	zeros := 0
	for i, sh := range s.Population {
		switch {
		case sh.Custom != nil:
			if err := sh.Custom.validate(); err != nil {
				errs = append(errs, fmt.Errorf("population[%d]: %w", i, err))
			}
		case sh.Profile == "":
			errs = append(errs, fmt.Errorf("population[%d]: no profile name and no custom definition", i))
		default:
			if _, err := Lookup(sh.Profile); err != nil {
				errs = append(errs, fmt.Errorf("population[%d]: %w", i, err))
			}
		}
		if sh.Fraction < 0 {
			errs = append(errs, fmt.Errorf("population[%d]: fraction %v must be >= 0", i, sh.Fraction))
		}
		if sh.Fraction == 0 {
			zeros++
		}
		sum += sh.Fraction
	}
	if len(s.Population) > 0 && sum == 0 && zeros != len(s.Population) {
		// unreachable with non-negative fractions, but keep the invariant obvious
		errs = append(errs, errors.New("population fractions sum to zero"))
	}
	if len(s.Population) > 0 && zeros > 0 && zeros != len(s.Population) {
		errs = append(errs, fmt.Errorf("population mixes zero and non-zero fractions (%d of %d are zero): state every fraction or none", zeros, len(s.Population)))
	}
	if s.Skew != nil {
		if err := s.Skew.validate(); err != nil {
			errs = append(errs, err)
		}
	}
	if s.HeadLR < 0 {
		errs = append(errs, fmt.Errorf("head_lr %v must be >= 0", s.HeadLR))
	}
	if s.HeadLR > 0 && !s.Personalize {
		errs = append(errs, errors.New("head_lr set without personalize"))
	}
	return errors.Join(errs...)
}

// Resolve materializes the population's concrete profiles and normalized
// fractions (catalog names looked up, even split applied when no fractions
// were stated). The spec must have validated.
func (s *Spec) Resolve() ([]Profile, []float64, error) {
	if s == nil || len(s.Population) == 0 {
		return nil, nil, nil
	}
	profiles := make([]Profile, len(s.Population))
	fracs := make([]float64, len(s.Population))
	sum := 0.0
	for i, sh := range s.Population {
		if sh.Custom != nil {
			profiles[i] = *sh.Custom
		} else {
			p, err := Lookup(sh.Profile)
			if err != nil {
				return nil, nil, err
			}
			profiles[i] = p
		}
		fracs[i] = sh.Fraction
		sum += sh.Fraction
	}
	if sum == 0 {
		for i := range fracs {
			fracs[i] = 1
		}
		sum = float64(len(fracs))
	}
	if math.IsInf(sum, 1) {
		// Finite fractions near the float64 limit overflow their sum, and
		// would all normalize to 0. Scaling each by one power of two below
		// 1/len keeps their ratios and brings the sum back into range.
		shift := -bits.Len(uint(len(fracs)))
		sum = 0
		for i := range fracs {
			fracs[i] = math.Ldexp(fracs[i], shift)
			sum += fracs[i]
		}
	}
	for i := range fracs {
		fracs[i] /= sum
	}
	return profiles, fracs, nil
}

// splitmix64 is the same avalanche mixer the cohort sampler uses: every
// bit of the input affects every bit of the output, so adjacent seeds give
// unrelated assignments.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Assign deterministically maps each of k enrolled participants to a
// profile index. Counts come from largest-remainder rounding of the
// normalized fractions (so a 70/30 mix of 10 is exactly 7 and 3), and the
// placement is a seeded shuffle — a pure function of (fracs, k, seed),
// independent of materialization order, worker count, and process.
func Assign(fracs []float64, k int, seed int64) []int {
	if len(fracs) == 0 || k <= 0 {
		return nil
	}
	counts := countsFor(fracs, k)
	out := make([]int, 0, k)
	for p, c := range counts {
		for i := 0; i < c; i++ {
			out = append(out, p)
		}
	}
	rng := rand.New(rand.NewSource(int64(splitmix64(uint64(seed) ^ 0xa5ce11a71e5))))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// countsFor converts fractions into integer counts summing to k
// (largest-remainder rounding, ties to the lower profile index).
func countsFor(fracs []float64, k int) []int {
	counts := make([]int, len(fracs))
	type rem struct {
		idx  int
		frac float64
	}
	rems := make([]rem, len(fracs))
	total := 0
	for i, f := range fracs {
		exact := f * float64(k)
		counts[i] = int(exact)
		rems[i] = rem{idx: i, frac: exact - float64(counts[i])}
		total += counts[i]
	}
	sort.SliceStable(rems, func(i, j int) bool { return rems[i].frac > rems[j].frac })
	for i := 0; total < k; i++ {
		counts[rems[i%len(rems)].idx]++
		total++
	}
	return counts
}

// Trace samples the profile's bandwidth series for a run of the given
// length. Profiles with neither phases nor a fixed rate return a zero
// trace (the substrate's default bandwidth applies).
func (p Profile) Trace(rounds int, rng *rand.Rand) (nettrace.Trace, error) {
	if p.FixedMbps > 0 {
		return nettrace.Flat(p.FixedMbps, rounds), nil
	}
	if len(p.Network) == 0 {
		return nettrace.Trace{}, nil
	}
	phases := make([]nettrace.PhaseSpec, len(p.Network))
	for i, ph := range p.Network {
		r, err := nettrace.ParseRegime(ph.Regime)
		if err != nil {
			return nettrace.Trace{}, err
		}
		phases[i] = nettrace.PhaseSpec{Regime: r, Rounds: ph.Rounds}
	}
	return nettrace.GeneratePhases(phases, rounds, rng)
}

// ParticipantTrace samples participant pid's bandwidth series for a
// rounds-long run, seeded purely by (seed, pid) — never by materialization
// order — so a lazily built population draws the same trace as an eager
// one, on every process, at every worker count.
func (p Profile) ParticipantTrace(rounds int, seed int64, pid int) (nettrace.Trace, error) {
	mix := splitmix64(splitmix64(uint64(seed)) ^ uint64(pid)*0x9e3779b97f4a7c15)
	return p.Trace(rounds, rand.New(rand.NewSource(int64(mix))))
}

// Speed returns the effective compute multiplier (0 means the reference 1).
func (p Profile) SpeedFactor() float64 {
	if p.Speed <= 0 {
		return 1
	}
	return p.Speed
}

// ChaosConfig lowers the profile onto a fault-injection config for an RPC
// worker: the profile's chaos fragment (if any) plus a bandwidth trace
// from its network regime, all seeded from the deployment seed so every
// process derives the same schedule.
func (p Profile) ChaosConfig(seed int64) (chaos.Config, error) {
	cfg, err := chaos.ParseSpec(p.Chaos)
	if err != nil {
		return chaos.Config{}, err
	}
	if cfg.Seed == 0 {
		cfg.Seed = seed
	}
	if len(cfg.Trace.Mbps) == 0 {
		// An hour of 1s samples, like the chaos regime= key.
		tr, err := p.Trace(3600, rand.New(rand.NewSource(cfg.Seed+77)))
		if err != nil {
			return chaos.Config{}, err
		}
		if len(tr.Mbps) > 0 {
			cfg.Trace = tr
		}
	}
	return cfg, cfg.Validate()
}

// PartitionFor splits the training samples across k participants honoring
// the per-profile skew: each profile's member group receives a
// proportional, IID slice of the data and then partitions it internally
// with the profile's Dirichlet alpha (0 = IID within the group). override
// (the Spec-level Skew) replaces every profile's alpha. The result is a
// deterministic function of the rng stream; with no profiles the caller
// should use the plain data partitioners instead.
func PartitionFor(labels []int, k int, assignment []int, profiles []Profile, override *Skew, rng *rand.Rand) (data.Partition, error) {
	if len(assignment) != k {
		return data.Partition{}, fmt.Errorf("scenario: %d assignments for %d participants", len(assignment), k)
	}
	if len(labels) < k {
		return data.Partition{}, fmt.Errorf("scenario: cannot split %d samples across %d participants", len(labels), k)
	}
	// Group members by profile, ascending id within each group.
	members := make([][]int, len(profiles))
	for pid, g := range assignment {
		if g < 0 || g >= len(profiles) {
			return data.Partition{}, fmt.Errorf("scenario: assignment[%d]=%d outside %d profiles", pid, g, len(profiles))
		}
		members[g] = append(members[g], pid)
	}
	// Deal every training index to a group, proportionally by member
	// count, from one global shuffle.
	perm := rng.Perm(len(labels))
	counts := make([]float64, len(profiles))
	for g := range profiles {
		counts[g] = float64(len(members[g])) / float64(k)
	}
	groupSizes := countsFor(counts, len(labels))
	out := make([][]int, k)
	start := 0
	for g := range profiles {
		idxs := perm[start : start+groupSizes[g]]
		start += groupSizes[g]
		if len(members[g]) == 0 {
			continue
		}
		alpha := profiles[g].SkewAlpha
		if override != nil {
			if override.Kind == SkewIID {
				alpha = 0
			} else {
				alpha = override.Alpha
			}
		}
		if len(idxs) < len(members[g]) {
			return data.Partition{}, fmt.Errorf("scenario: profile %q group has %d samples for %d participants",
				profiles[g].Name, len(idxs), len(members[g]))
		}
		if alpha <= 0 {
			// IID within the group: deal the (already shuffled) slice.
			for i, idx := range idxs {
				pid := members[g][i%len(members[g])]
				out[pid] = append(out[pid], idx)
			}
			continue
		}
		groupLabels := make([]int, len(idxs))
		for i, idx := range idxs {
			groupLabels[i] = labels[idx]
		}
		sub, err := data.DirichletPartition(groupLabels, len(members[g]), alpha, rng)
		if err != nil {
			return data.Partition{}, fmt.Errorf("scenario: profile %q: %w", profiles[g].Name, err)
		}
		for j, local := range sub.Indices {
			pid := members[g][j]
			for _, li := range local {
				out[pid] = append(out[pid], idxs[li])
			}
		}
	}
	return data.Partition{Indices: out}, nil
}

// PersonalTestIndices builds a per-client test set matching the client's
// label distribution: for each class, the first ceil(dist[c]*n) test
// indices of that class, in dataset order — deterministic, no RNG. This is
// the evaluation a personalized head is for: accuracy on the distribution
// the device actually sees.
func PersonalTestIndices(dist []float64, testLabels []int, n int) []int {
	byClass := make([][]int, len(dist))
	for i, y := range testLabels {
		if y >= 0 && y < len(byClass) {
			byClass[y] = append(byClass[y], i)
		}
	}
	var out []int
	for c, frac := range dist {
		if frac <= 0 {
			continue
		}
		want := int(frac*float64(n) + 0.999999)
		if want > len(byClass[c]) {
			want = len(byClass[c])
		}
		out = append(out, byClass[c][:want]...)
	}
	sort.Ints(out)
	return out
}
