package nas

import (
	"math/rand"
	"runtime"
	"testing"

	"fedrlnas/internal/tensor"
)

// rpcNet is the rpc benchmark workload's network; it trains on 3×8×8 images
// at batch 8.
func rpcNet() Config {
	return Config{InChannels: 3, NumClasses: 10, C: 6, Layers: 2, Nodes: 2, Candidates: AllOps}
}

// stepper runs forward and backward steps of sub-models of s on one batch.
func stepper(s *Supernet, rng *rand.Rand) func(Gates) {
	x := tensor.Randn(rng, 1, 8, 3, 8, 8)
	grad := tensor.Randn(rng, 0.1, 8, s.Cfg.NumClasses)
	return func(g Gates) {
		s.ForwardSampled(x, g)
		s.BackwardSampled(grad)
	}
}

func randomSubModel(s *Supernet, rng *rand.Rand) Gates {
	g := uniformGates(s, 0)
	for e := range g.Normal {
		g.Normal[e], g.Reduce[e] = rng.Intn(NumOps), rng.Intn(NumOps)
	}
	return g
}

// The largest sub-model, dil_conv_5x5 on every edge, sizes the arena for all
// others: after one step of it, steps on gates the network has never run
// allocate nothing. Storage belongs to the step, not to an (edge, op) pair,
// so no buffer appears the first time the controller samples a pair.
func TestLargestStepSizesEveryStep(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops Puts at random, defeating scratch reuse")
	}
	rng := rand.New(rand.NewSource(1))
	s, err := NewSupernet(rng, rpcNet())
	if err != nil {
		t.Fatal(err)
	}
	step := stepper(s, rng)
	step(uniformGates(s, 7))
	unseen := make([]Gates, 21)
	for i := range unseen {
		unseen[i] = randomSubModel(s, rng)
	}
	i := 0
	allocs := testing.AllocsPerRun(len(unseen)-1, func() {
		step(unseen[i])
		i++
	})
	if allocs != 0 {
		t.Fatalf("a step on new gates allocates %.0f objects after the largest step", allocs)
	}
}

// The arena's capacity on the rpc benchmark network at batch 8 is pinned to
// the word: the peak of the largest sub-model's step plus the eighth the
// arena keeps spare, and no other step grows it. It is a replica's resident
// step memory. The probe needs no accessor: a Reset and a take of n words
// allocate no slab exactly when n fits. Before ops released what dies
// inside a step (a cell edge's backward once added into a state gradient,
// per-call lane plans and planes, the stem's column matrix), and before the
// separable ops' ReLU was folded into their depthwise conv, it was 460,478.
func TestArenaHighWaterPinned(t *testing.T) {
	const largest = 282208 // words, 2.3 MB, on every build
	rng := rand.New(rand.NewSource(2))
	s, err := NewSupernet(rng, rpcNet())
	if err != nil {
		t.Fatal(err)
	}
	step := stepper(s, rng)
	step(uniformGates(s, 7))
	for range 200 {
		step(randomSubModel(s, rng))
	}
	if want := largest + largest/8; !arenaFits(&s.ar, want) || arenaFits(&s.ar, want+1) {
		t.Errorf("arena capacity moved from %d words", want)
	}
}

// arenaFits reports whether a Reset of ar and then a take of n words fit
// its slabs. A take that does not fit allocates a slab of at least n words,
// so the probe compares the bytes allocated with the take: the runtime's
// own small allocations meanwhile, which a count of objects would read as
// a miss, stay far below it.
func arenaFits(ar *tensor.Arena, n int) bool {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ar.Reset()
	ar.Floats(n)
	runtime.ReadMemStats(&after)
	return after.TotalAlloc-before.TotalAlloc < uint64(8*n)
}
