package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// ewVariants lists every element-wise kernel set compiled into this build.
func ewVariants() []*ewKernel {
	vs := []*ewKernel{&ewGo}
	if ewActive != &ewGo {
		vs = append(vs, ewActive)
	}
	return vs
}

// ewSpecials are the values whose bits a kernel could get wrong: both
// zeros, NaNs with payloads of both signs (quiet and signalling), both
// infinities, subnormals and the extremes of the finite range.
var ewSpecials = []float64{
	0, math.Copysign(0, -1),
	math.NaN(),
	math.Float64frombits(0xFFF8000000000001), // -qNaN with a payload
	math.Float64frombits(0x7FF0000000000DAD), // sNaN with a payload
	math.Float64frombits(0xFFF00000DEADBEEF), // -sNaN with a payload
	math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.Float64frombits(0x000FFFFFFFFFFFFF), -math.Float64frombits(0x000FFFFFFFFFFFFF), // largest subnormals
	math.MaxFloat64, -math.MaxFloat64,
	1, -1.5,
}

// ewSlice returns n values: the specials in a rotated order, then ordinary
// values, so that every special lands in both the vector body and the
// scalar tail across lengths.
func ewSlice(rng *rand.Rand, n, rot int) []float64 {
	s := make([]float64, n)
	for i := range s {
		if j := (i + rot) % (2 * len(ewSpecials)); j < len(ewSpecials) {
			s[i] = ewSpecials[j]
		} else {
			s[i] = rng.NormFloat64()
		}
	}
	return s
}

func requireBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v (%#x), want %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// requireAddBits is requireBits for dst += v. Where two NaNs meet, the
// normal build compiles addToGo with dst as the first operand, and the
// assembly keeps dst's payload to match; the race detector's build compiles
// it with v first, so only under it is either payload accepted there.
func requireAddBits(t *testing.T, what string, got, want, dst, v []float64) {
	t.Helper()
	if raceEnabled {
		want = append([]float64(nil), want...)
		for i, g := range got {
			if math.IsNaN(dst[i]) && math.IsNaN(v[i]) &&
				(math.Float64bits(g) == math.Float64bits(dst[i]+0) || math.Float64bits(g) == math.Float64bits(v[i]+0)) {
				want[i] = g
			}
		}
	}
	requireBits(t, what, got, want)
}

// TestReLUReferenceSemantics pins the reference's meaning on the specials:
// ReLU(x) = x where x > 0 and +0 elsewhere (NaN and -0 included), and its
// gradient mask, read off that output, is 1 exactly there.
func TestReLUReferenceSemantics(t *testing.T) {
	in := append([]float64(nil), ewSpecials...)
	out := make([]float64, len(in))
	reluGo(out, in)
	g := make([]float64, len(in))
	for i := range g {
		g[i] = float64(i + 1)
	}
	gx := make([]float64, len(in))
	reluGradGo(gx, g, out, false)
	for i, v := range in {
		want, wantG := 0.0, 0.0
		if v > 0 {
			want, wantG = v, g[i]
		}
		if math.Float64bits(out[i]) != math.Float64bits(want) || gx[i] != wantG {
			t.Fatalf("ReLU(%v) = %v grad %v, want %v grad %v", v, out[i], gx[i], want, wantG)
		}
	}
}

// TestElementwiseVariantsBitIdentical drives every compiled kernel set at
// every length 0–19, so each vector body and scalar tail runs, over the
// special values, and requires the reference's bits.
func TestElementwiseVariantsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, kv := range ewVariants() {
		for n := 0; n < 20; n++ {
			for rot := 0; rot < 3; rot++ {
				x := ewSlice(rng, n, rot*5)
				y := ewSlice(rng, n, rot*5+3)
				acc := ewSlice(rng, n, rot*5+7)
				c := ewSpecials[(n+rot)%len(ewSpecials)]

				got, want := make([]float64, n), make([]float64, n)
				kv.relu(got, x)
				reluGo(want, x)
				requireBits(t, kv.name+" relu", got, want)

				for _, add := range []bool{false, true} {
					copy(got, acc)
					copy(want, acc)
					kv.reluGrad(got, y, x, add)
					reluGradGo(want, y, x, add)
					requireBits(t, kv.name+" reluGrad", got, want)
				}

				copy(got, acc)
				copy(want, acc)
				kv.addTo(got, x)
				addToGo(want, x)
				requireBits(t, kv.name+" addTo", got, want)

				// The adds again with the accumulator's NaN block 1–3
				// places from the added operand's, so NaNs of different
				// sign and kind meet, and an all-pass mask: where two NaNs
				// meet the payload follows the operand order.
				ones := make([]float64, n)
				for i := range ones {
					ones[i] = 1
				}
				copy(got, ewSlice(rng, n, rot*5+3+rot+1))
				copy(want, got)
				kv.reluGrad(got, y, ones, true)
				reluGradGo(want, y, ones, true)
				requireBits(t, kv.name+" reluGrad (NaNs meet)", got, want)
				accX := ewSlice(rng, n, rot*5+rot+1)
				copy(got, accX)
				copy(want, accX)
				kv.addTo(got, x)
				addToGo(want, x)
				requireAddBits(t, kv.name+" addTo (NaNs meet)", got, want, accX, x)

				kv.scaleTo(got, x, c)
				scaleToGo(want, x, c)
				requireBits(t, kv.name+" scaleTo", got, want)
			}
		}
	}
}

// TestBatchNormKernelsBitIdentical covers the plane-strided kernels: plane
// lengths 0–19, one to three planes, packed and gapped strides, ordinary and
// special per-channel constants.
func TestBatchNormKernelsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	consts := [][4]float64{
		{0.25, 1.7, 0.9, -0.1},
		{-3, 1e300, -2, math.Copysign(0, -1)},
		{math.NaN(), 1, 1, 0},
		{0, math.Inf(1), math.SmallestNonzeroFloat64, math.MaxFloat64},
	}
	for _, kv := range ewVariants() {
		for hw := 0; hw < 20; hw++ {
			for planes := 1; planes <= 3; planes++ {
				for _, gap := range []int{0, 3} {
					stride := hw + gap
					size := (planes-1)*stride + hw
					for ci, k := range consts {
						x := ewSlice(rng, size, ci+hw)
						dy := ewSlice(rng, size, ci+hw+4)
						acc := ewSlice(rng, size, ci+hw+9)
						for _, add := range []bool{false, true} {
							gotOut, wantOut := append([]float64(nil), acc...), append([]float64(nil), acc...)
							gotXh, wantXh := make([]float64, size), make([]float64, size)
							kv.bnNormalize(gotOut, gotXh, x, planes, hw, stride, k[0], k[1], k[2], k[3], add)
							bnNormalizeGo(wantOut, wantXh, x, planes, hw, stride, k[0], k[1], k[2], k[3], add)
							requireBits(t, kv.name+" bnNormalize xh", gotXh, wantXh)
							requireBits(t, kv.name+" bnNormalize out", gotOut, wantOut)
						}
						got, want := append([]float64(nil), acc...), append([]float64(nil), acc...)
						kv.bnBackward(got, dy, x, planes, hw, stride, k[1], k[0], k[3])
						bnBackwardGo(want, dy, x, planes, hw, stride, k[1], k[0], k[3])
						requireBits(t, kv.name+" bnBackward", got, want)
					}
				}
			}
		}
	}
}

// The exported wrappers refuse operands that do not cover the layout they
// describe.
func TestElementwiseRejectsShortOperands(t *testing.T) {
	for name, f := range map[string]func(){
		"ReLU":        func() { ReLU(make([]float64, 3), make([]float64, 4)) },
		"ReLUGrad":    func() { ReLUGrad(make([]float64, 4), make([]float64, 4), make([]float64, 3)) },
		"AddTo":       func() { AddTo(make([]float64, 4), make([]float64, 5)) },
		"BNNormalize": func() { BNNormalize(make([]float64, 7), make([]float64, 8), make([]float64, 8), 2, 4, 4, 0, 1, 1, 0) },
		"BNBackward":  func() { BNBackward(make([]float64, 8), make([]float64, 8), make([]float64, 8), 2, 4, 3, 1, 0, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted short operands", name)
				}
			}()
			f()
		}()
	}
}
