package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// dwVariants lists every depthwise kernel pair compiled into this build.
func dwVariants() []*dwKernel {
	vs := []*dwKernel{&dwGo}
	if dwActive != &dwGo {
		vs = append(vs, dwActive)
	}
	return vs
}

// sparseSlice draws values the kernels meet after a ReLU: about half exact
// zeros, of both signs.
func sparseSlice(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		switch rng.Intn(4) {
		case 0:
			s[i] = 0
		case 1:
			s[i] = math.Copysign(0, -1)
		default:
			s[i] = rng.NormFloat64()
		}
	}
	return s
}

// TestDepthwiseVariantsBitIdentical drives every compiled depthwise kernel
// over random offset tables and requires the bits of the naive per-element
// sums: one accumulator from +0, terms in table order, multiply then add.
func TestDepthwiseVariantsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 60; trial++ {
		npix := 4 * (1 + rng.Intn(20))
		ntaps := 4 * (1 + rng.Intn(8))
		span := 64 + rng.Intn(512) // elements reachable from a pixel origin
		src := sparseSlice(rng, DWLanes*(2*span+1))
		g := sparseSlice(rng, DWLanes*npix)
		w := sparseSlice(rng, DWLanes*ntaps)
		pix, gpix := make([]int, npix), make([]int, npix)
		for p := range pix {
			// Origins in the middle third so that taps of either sign stay
			// inside src.
			pix[p] = DWLanes * (span/2 + rng.Intn(span))
			gpix[p] = DWLanes * rng.Intn(npix)
		}
		taps := make([]int, ntaps)
		for i := range taps {
			taps[i] = DWLanes * (rng.Intn(span) - span/2)
		}

		wantOut := make([]float64, DWLanes*npix)
		for p := range pix {
			for l := 0; l < DWLanes; l++ {
				acc := 0.0
				for i, off := range taps {
					acc += w[i*DWLanes+l] * src[pix[p]+off+l]
				}
				wantOut[p*DWLanes+l] = acc
			}
		}
		wantGW := make([]float64, DWLanes*ntaps)
		for i, off := range taps {
			for l := 0; l < DWLanes; l++ {
				acc := 0.0
				for p := range pix {
					acc += g[gpix[p]+l] * src[pix[p]+off+l]
				}
				wantGW[i*DWLanes+l] = acc
			}
		}
		for _, kv := range dwVariants() {
			out := make([]float64, len(wantOut))
			kv.taps(out, src, pix, taps, w)
			gw := make([]float64, len(wantGW))
			kv.gradW(gw, g, gpix, src, pix, taps)
			for i := range out {
				if math.Float64bits(out[i]) != math.Float64bits(wantOut[i]) {
					t.Fatalf("trial %d %s taps: out[%d] = %v, want %v", trial, kv.name, i, out[i], wantOut[i])
				}
			}
			for i := range gw {
				if math.Float64bits(gw[i]) != math.Float64bits(wantGW[i]) {
					t.Fatalf("trial %d %s gradW: gw[%d] = %v, want %v", trial, kv.name, i, gw[i], wantGW[i])
				}
			}
		}
	}
}

// TestDepthwiseInterleaveRoundTrip checks both copy kernels of every variant
// against the index formula, over widths that exercise whole blocks, tails
// and neither, and leaves untouched destination slots untouched.
func TestDepthwiseInterleaveRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, kv := range dwVariants() {
		for _, g := range []struct{ h, w, pad, step int }{
			{8, 8, 1, 1}, {4, 4, 4, 1}, {2, 2, 2, 1}, {4, 4, 2, 2}, {2, 2, 1, 2},
			{5, 7, 2, 1}, {3, 9, 1, 2}, {1, 1, 0, 1}, {6, 1, 2, 1}, {1, 13, 0, 3},
		} {
			rows, cols := (g.h-1)*g.step+1+2*g.pad, (g.w-1)*g.step+1+2*g.pad
			src := sparseSlice(rng, DWLanes*g.h*g.w)
			dst := make([]float64, rows*cols*DWLanes)
			for i := range dst {
				dst[i] = -7 // must survive outside the live slots
			}
			want := append([]float64(nil), dst...)
			org := g.pad*cols + g.pad
			for l := 0; l < DWLanes; l++ {
				for y := 0; y < g.h; y++ {
					for x := 0; x < g.w; x++ {
						want[(org+y*g.step*cols+x*g.step)*DWLanes+l] = src[(l*g.h+y)*g.w+x]
					}
				}
			}
			kv.interleave(dst, org, g.step*cols, g.step, src, g.h, g.w)
			for i := range dst {
				if math.Float64bits(dst[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s interleave %+v: dst[%d] = %v, want %v", kv.name, g, i, dst[i], want[i])
				}
			}

			n := g.h * g.w
			lanes := sparseSlice(rng, DWLanes*n)
			planes := make([]float64, DWLanes*n)
			kv.deinterleave(planes, lanes, n)
			for l := 0; l < DWLanes; l++ {
				for i := 0; i < n; i++ {
					if math.Float64bits(planes[l*n+i]) != math.Float64bits(lanes[i*DWLanes+l]) {
						t.Fatalf("%s deinterleave n=%d: plane %d[%d] = %v, want %v", kv.name, n, l, i, planes[l*n+i], lanes[i*DWLanes+l])
					}
				}
			}
		}
	}
}

func TestDepthwiseRejectsUnpaddedTables(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	buf := make([]float64, 64)
	mustPanic("pix not a multiple of 4", func() { DWTaps(buf, buf, make([]int, 3), make([]int, 4), buf) })
	mustPanic("taps not a multiple of 4", func() { DWGradW(buf, buf, make([]int, 4), buf, make([]int, 4), make([]int, 3)) })
	mustPanic("short out", func() { DWTaps(buf[:8], buf, make([]int, 4), make([]int, 4), buf) })
	mustPanic("interleave past dst", func() { DWInterleave(buf, 1, 4, 1, buf, 4, 4) })
	mustPanic("deinterleave past dst", func() { DWDeinterleave(buf[:8], buf, 4) })
}

func TestDepthwiseEmptyTablesZeroTheResult(t *testing.T) {
	out := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	DWTaps(out, nil, make([]int, 4), nil, nil)
	gw := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	DWGradW(gw, nil, nil, nil, nil, make([]int, 4))
	for i := range out {
		if out[i] != 0 || gw[i] != 0 {
			t.Fatalf("element %d not cleared: out %v gw %v", i, out[i], gw[i])
		}
	}
}
