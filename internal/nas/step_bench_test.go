package nas

import (
	"math/rand"
	"testing"

	"fedrlnas/internal/tensor"
)

// BenchmarkSampledStep times one participant step's forward and backward on
// the pipeline workload's network (C=4, three cells, 3×8×8 images, batch 16),
// a fresh random sub-model per step.
func BenchmarkSampledStep(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	s, err := NewSupernet(rng, Config{InChannels: 3, NumClasses: 10, C: 4, Layers: 3, Nodes: 2, Candidates: AllOps})
	if err != nil {
		b.Fatal(err)
	}
	x := tensor.Randn(rng, 1, 16, 3, 8, 8)
	grad := tensor.Randn(rng, 0.1, 16, 10)
	gates := make([]Gates, 64)
	for i := range gates {
		gates[i] = randomSubModel(s, rng)
	}
	s.ForwardSampled(x, uniformGates(s, 7))
	s.BackwardSampled(grad)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ForwardSampled(x, gates[i%len(gates)])
		s.BackwardSampled(grad)
	}
}
