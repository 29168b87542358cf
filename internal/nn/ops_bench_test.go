package nn

import (
	"fmt"
	"math/rand"
	"testing"

	"fedrlnas/internal/tensor"
)

// Per-op benchmarks at the shapes a sampled sub-model of the default
// supernet actually runs (N=16; C×H×W = 4×8×8, 8×4×4, 16×2×2, and the two
// stride-2 inputs of the reduction cells). One iteration is a training
// forward plus backward, which is what a participant pays per op per round.
// Build the parent commit and the change with `go test -c` and alternate
// the binaries for a paired comparison while working on a kernel.

var opBenchShapes = []struct {
	name            string
	c, h, w, stride int
}{
	{"4x8x8", 4, 8, 8, 1},
	{"8x4x4", 8, 4, 4, 1},
	{"16x2x2", 16, 2, 2, 1},
	{"8x8x8s2", 8, 8, 8, 2},
	{"16x4x4s2", 16, 4, 4, 2},
}

func benchOp(b *testing.B, build func(rng *rand.Rand, c, stride int) Module) {
	for _, s := range opBenchShapes {
		b.Run(s.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			op := build(rng, s.c, s.stride)
			x := tensor.Randn(rng, 1, 16, s.c, s.h, s.w)
			grad := tensor.Randn(rng, 1, op.Forward(x).Shape()...)
			op.Backward(grad)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op.Forward(x)
				op.Backward(grad)
			}
		})
	}
}

func BenchmarkOpSepConv3(b *testing.B) {
	benchOp(b, func(rng *rand.Rand, c, s int) Module { return NewSepConv("op", rng, c, 3, s) })
}

func BenchmarkOpSepConv5(b *testing.B) {
	benchOp(b, func(rng *rand.Rand, c, s int) Module { return NewSepConv("op", rng, c, 5, s) })
}

func BenchmarkOpDilConv3(b *testing.B) {
	benchOp(b, func(rng *rand.Rand, c, s int) Module { return NewDilConv("op", rng, c, 3, s) })
}

func BenchmarkOpDilConv5(b *testing.B) {
	benchOp(b, func(rng *rand.Rand, c, s int) Module { return NewDilConv("op", rng, c, 5, s) })
}

func BenchmarkOpMaxPool(b *testing.B) {
	benchOp(b, func(_ *rand.Rand, _, s int) Module { return NewMaxPool2D(3, s, 1) })
}

func BenchmarkOpAvgPool(b *testing.B) {
	benchOp(b, func(_ *rand.Rand, _, s int) Module { return NewAvgPool2D(3, s, 1) })
}

// BN and ReLU have no stride; the stride-2 rows repeat the larger inputs.
func BenchmarkOpBN(b *testing.B) {
	benchOp(b, func(_ *rand.Rand, c, _ int) Module { return NewBatchNorm2D("op", c) })
}

func BenchmarkOpReLU(b *testing.B) {
	benchOp(b, func(_ *rand.Rand, _, _ int) Module { return NewReLU() })
}

// BenchmarkOpPreprocess is a cell's input preprocessing, ReLU → 1×1 conv →
// batch norm: stride 1 for pre1 and for pre0 after a normal cell, stride 2
// (the ReLU → SubSample → pointwise form) for pre0 after a reduction cell.
func BenchmarkOpPreprocess(b *testing.B) {
	benchOp(b, func(rng *rand.Rand, c, s int) Module { return NewReLUConvBN("op", rng, c, c, s) })
}

// BenchmarkOpStem is the network's stem, a 3×3 conv from the three image
// channels and its batch norm, on a batch of 16 8×8 images at the pipeline
// network's C=4 and the rpc network's C=6, with the backward a participant
// runs through it: parameter gradients only (BackwardParams).
func BenchmarkOpStem(b *testing.B) {
	for _, c := range []int{4, 6} {
		b.Run(fmt.Sprintf("C=%d", c), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			stem := NewSequential(
				NewConv2D("stem.conv", rng, 3, c, 3, ConvOpts{Pad: 1}),
				NewBatchNorm2D("stem.bn", c),
			)
			x := tensor.Randn(rng, 1, 16, 3, 8, 8)
			grad := tensor.Randn(rng, 1, stem.Forward(x).Shape()...)
			BackwardParams(stem, grad)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				stem.Forward(x)
				BackwardParams(stem, grad)
			}
		})
	}
}
