package nas

import (
	"fmt"
	"math/rand"
	"testing"

	"fedrlnas/internal/tensor"
)

// BenchmarkSampledStep times one participant step's forward and backward, a
// fresh random sub-model per step, on the pipeline workload's network (C=4,
// three cells, 3×8×8 images, batch 16) and on the rpc workload's (two cells,
// batch 8) at its C=6 and at C=4 and C=8 beside it, so that a channel count
// that is not a multiple of 4 can be compared with its neighbours.
func BenchmarkSampledStep(b *testing.B) {
	b.Run("pipeline", func(b *testing.B) {
		benchSampledStep(b, Config{InChannels: 3, NumClasses: 10, C: 4, Layers: 3, Nodes: 2, Candidates: AllOps}, 16)
	})
	for _, c := range []int{4, 6, 8} {
		b.Run(fmt.Sprintf("rpc/C=%d", c), func(b *testing.B) {
			cfg := rpcNet()
			cfg.C = c
			benchSampledStep(b, cfg, 8)
		})
	}
}

func benchSampledStep(b *testing.B, cfg Config, batch int) {
	rng := rand.New(rand.NewSource(1))
	s, err := NewSupernet(rng, cfg)
	if err != nil {
		b.Fatal(err)
	}
	x := tensor.Randn(rng, 1, batch, cfg.InChannels, 8, 8)
	grad := tensor.Randn(rng, 0.1, batch, cfg.NumClasses)
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
