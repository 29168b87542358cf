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
// against the index formula, the interleave also as a broadcast of one plane, over widths that exercise whole blocks, tails
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
			kv.interleave(dst, org, g.step*cols, g.step, src, g.h*g.w, g.h, g.w)
			for i := range dst {
				if math.Float64bits(dst[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s interleave %+v: dst[%d] = %v, want %v", kv.name, g, i, dst[i], want[i])
				}
			}
			// A zero plane step broadcasts plane 0 into every lane.
			for l := 0; l < DWLanes; l++ {
				for y := 0; y < g.h; y++ {
					for x := 0; x < g.w; x++ {
						want[(org+y*g.step*cols+x*g.step)*DWLanes+l] = src[y*g.w+x]
					}
				}
			}
			kv.interleave(dst, org, g.step*cols, g.step, src, 0, g.h, g.w)
			for i := range dst {
				if math.Float64bits(dst[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s broadcast %+v: dst[%d] = %v, want %v", kv.name, g, i, dst[i], want[i])
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
	// The Go kernels read unchecked once every window is known to fit.
	mustPanic("window past src", func() { dwTapsGo(buf, buf, []int{0, 0, 0, 61}, make([]int, 4), buf) })
	mustPanic("window before src", func() { dwTapsGo(buf, buf, make([]int, 4), []int{0, -4, 0, 0}, buf) })
	mustPanic("gradient past g", func() { dwGradWGo(buf, buf[:8], []int{0, 0, 0, 8}, buf, make([]int, 4), make([]int, 4)) })
	mustPanic("window past x", func() { dwGradWGo(buf, buf, make([]int, 4), buf, make([]int, 4), []int{0, 0, 0, 64}) })
	mustPanic("max window past src", func() {
		dwMaxTapsGo(buf, make([]int, 16), buf, []int{0, 0, 0, 61}, make([]int, 4), make([]int, 1), make([]int, 1), make([]int, 4))
	})
	mustPanic("interleave past dst", func() { DWInterleave(buf, 1, 4, 1, buf, 4, 4) })
	mustPanic("broadcast past dst", func() { DWBroadcast(buf, 1, 4, 1, buf, 4, 4) })
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

// TestDWMaxTapsVariantsBitIdentical drives every compiled max-tap kernel
// over random tables whose values are mostly ties, zeros of both signs,
// NaNs and infinities, and requires the one-lane scan's maxima and indices.
func TestDWMaxTapsVariantsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	pick := []float64{0, math.Copysign(0, -1), 1, 1, -1, math.NaN(), math.Inf(1), math.Inf(-1), math.Inf(-1), 2.5}
	for trial := 0; trial < 80; trial++ {
		npix := 4 * (1 + rng.Intn(12))
		ntaps := rng.Intn(12)
		span := 32 + rng.Intn(128)
		src := make([]float64, DWLanes*(2*span+1))
		for i := range src {
			if rng.Intn(3) == 0 {
				src[i] = rng.NormFloat64()
			} else {
				src[i] = pick[rng.Intn(len(pick))]
			}
		}
		pix, pixAt := make([]int, npix), make([]int, npix)
		for p := range pix {
			pix[p] = DWLanes * (span/2 + rng.Intn(span))
			pixAt[p] = rng.Intn(1000) - 500
		}
		taps, tapAt := make([]int, ntaps), make([]int, ntaps)
		for i := range taps {
			taps[i] = DWLanes * (rng.Intn(span) - span/2)
			tapAt[i] = rng.Intn(1000)
		}
		lane := []int{rng.Intn(100), 1000 + rng.Intn(100), 2000, 3000}
		wantOut, wantAt := maxTapsReference(src, pix, pixAt, taps, tapAt, lane)
		for _, kv := range dwVariants() {
			saved := dwActive
			dwActive = kv
			out, at := make([]float64, DWLanes*npix), make([]int, DWLanes*npix)
			DWMaxTaps(out, at, src, pix, pixAt, taps, tapAt, lane)
			dwActive = saved
			for i := range out {
				if math.Float64bits(out[i]) != math.Float64bits(wantOut[i]) || at[i] != wantAt[i] {
					t.Fatalf("trial %d %s: element %d = %v at %d, want %v at %d",
						trial, kv.name, i, out[i], at[i], wantOut[i], wantAt[i])
				}
			}
		}
	}
}

// maxTapsReference is DWMaxTaps one lane at a time: a scan of the taps in
// ascending order with a strict >.
func maxTapsReference(src []float64, pix, pixAt, taps, tapAt, lane []int) ([]float64, []int) {
	out, at := make([]float64, DWLanes*len(pix)), make([]int, DWLanes*len(pix))
	for p, base := range pix {
		for l := 0; l < DWLanes; l++ {
			best, bt := math.Inf(-1), -1
			for t, off := range taps {
				if v := src[base+off+l]; v > best {
					best, bt = v, t
				}
			}
			i := p*DWLanes + l
			if bt < 0 {
				out[i], at[i] = 0, -1
			} else {
				out[i], at[i] = best, lane[l]+pixAt[p]+tapAt[bt]
			}
		}
	}
	return out, at
}

// The max-tap semantics on one hand-built pixel per lane: the earliest of
// tied maxima wins, NaN and -Inf never win, and a window with nothing above
// -Inf yields +0 at -1.
func TestDWMaxTapsFirstMax(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	// Three taps; lane l of tap t at src[t*4+l].
	src := []float64{
		nan, 3, math.Inf(-1), math.Copysign(0, -1),
		nan, 3, math.Inf(-1), 0,
		-inf, 2, nan, -1,
	}
	pix := []int{0, 0, 0, 0}
	pixAt := []int{100, 100, 100, 100}
	taps, tapAt := []int{0, 4, 8}, []int{0, 1, 2}
	lane := []int{0, 10, 20, 30}
	for _, kv := range dwVariants() {
		saved := dwActive
		dwActive = kv
		out, at := make([]float64, 16), make([]int, 16)
		DWMaxTaps(out, at, src, pix, pixAt, taps, tapAt, lane)
		dwActive = saved
		wantOut := []float64{0, 3, 0, math.Copysign(0, -1)}
		wantAt := []int{-1, 110, -1, 130}
		for l := 0; l < DWLanes; l++ {
			if math.Float64bits(out[l]) != math.Float64bits(wantOut[l]) || at[l] != wantAt[l] {
				t.Fatalf("%s lane %d: %v at %d, want %v at %d", kv.name, l, out[l], at[l], wantOut[l], wantAt[l])
			}
		}
	}
}

// TestDWGemmAccMatchesGemm requires every compiled DWGemmAcc to give, from
// +0 and added into C, the bits of GemmRaw multiplying the same rows (each
// the concatenation of its per-image segments) by the transposed lanes, and
// to continue chains exactly across calls split at any image.
func TestDWGemmAccMatchesGemm(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 40; trial++ {
		n, nimg := 1+rng.Intn(20), 1+rng.Intn(6)
		aRow := n + rng.Intn(3)
		aImg := 4*aRow + rng.Intn(5)
		a := sparseSlice(rng, (nimg-1)*aImg+4*aRow)
		x := sparseSlice(rng, DWLanes*n*nimg)
		c0 := sparseSlice(rng, 4*DWLanes)

		// The GEMM form: A [4, n·nimg] gathered, B = lanes as [n·nimg, 4].
		k := n * nimg
		ag := make([]float64, 4*k)
		for o := 0; o < 4; o++ {
			for b := 0; b < nimg; b++ {
				copy(ag[o*k+b*n:o*k+(b+1)*n], a[b*aImg+o*aRow:b*aImg+o*aRow+n])
			}
		}
		want := append([]float64(nil), c0...)
		GemmRaw(false, false, 4, DWLanes, k, 1, ag, k, x, DWLanes, 1, want, DWLanes)

		for _, kv := range dwVariants() {
			saved := dwActive
			dwActive = kv
			acc := make([]float64, 4*DWLanes)
			split := rng.Intn(nimg + 1)
			DWGemmAcc(acc, a, aRow, aImg, x, n, split)
			if split < nimg {
				DWGemmAcc(acc, a[split*aImg:], aRow, aImg, x[split*n*DWLanes:], n, nimg-split)
			}
			dwActive = saved
			got := append([]float64(nil), c0...)
			for i := range got {
				got[i] += acc[i]
			}
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("trial %d %s: element %d = %v, want %v", trial, kv.name, i, got[i], want[i])
				}
			}
		}
	}
}
