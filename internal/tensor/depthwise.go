package tensor

import (
	"fmt"
	"math"
	"slices"
	"time"
	"unsafe"
)

// Depthwise convolution kernels: the second entry behind the kernel dispatch
// seam (gemm.go holds the first). A depthwise convolution has one filter per
// channel, so it never becomes a GEMM; its cost is taps × pixels multiply-adds
// per plane, and what makes naive loops slow is latency (the weight
// gradient is one dependent chain per tap) and loop overhead on planes of 64,
// 16 or 4 pixels — not arithmetic.
//
// The kernels here work on DWLanes = 4 channels at once, one channel per
// vector lane. The caller (nn.Conv2D and the pools) copies four planes into
// a zero-padded, lane-interleaved buffer (element (y,x) of lane l at index
// (y*W+x)*4+l) and describes the geometry with two small offset tables — one
// start offset per output pixel, one relative offset per kernel tap — so a
// single kernel serves every kernel size, stride, dilation and plane shape,
// including 1-wide and odd planes, with no edge cases in the vector code.
//
// Contract (the same as GEMM's): every result element is ONE accumulator that
// starts at +0 and adds its terms in ascending table order, each term a
// separate multiply then add (never fused). Lanes are independent channels
// and the unrolled accumulators are independent pixels (DWTaps) or
// independent taps (DWGradW), so the AVX2 kernels and the portable loops
// below produce the same bits.
//
// Padding positions hold +0 and contribute a ±0 term. An accumulator that
// starts at +0 can never become -0 (x + y is -0 only when both are), so adding
// ±0 never changes it: for finite weights and gradients the padded sums equal,
// bit for bit, loops that skip out-of-bounds taps. (A non-finite factor times
// a padding zero is NaN where skipping would give none; training has already
// diverged by then.)

// DWLanes is the number of channels a depthwise kernel call processes.
const DWLanes = 4

// dwKernel is one implementation of the pair.
type dwKernel struct {
	name    string
	taps    func(out, src []float64, pix, taps []int, w []float64)
	gradW   func(gw, g []float64, gpix []int, x []float64, xpix, taps []int)
	maxTaps func(out []float64, at []int, src []float64, pix, pixAt, taps, tapAt, lane []int)
	gemmAcc func(acc, a []float64, aRow, aImg int, x []float64, n, nimg int)

	interleave   func(dst []float64, org, rowStep, colStep int, src []float64, planeStep, h, w int)
	deinterleave func(dst, src []float64, n int)
}

// dwGo is the portable pair: what runs without a vector kernel (-tags noasm,
// arm64) and what the assembly is tested against.
var dwGo = dwKernel{
	name: "go-lanes4", taps: dwTapsGo, gradW: dwGradWGo, maxTaps: dwMaxTapsGo, gemmAcc: dwGemmAccGo,
	interleave: func(dst []float64, org, rowStep, colStep int, src []float64, planeStep, h, w int) {
		dwInterleaveCols(dst, org, rowStep, colStep, src, planeStep, h, w, 0)
	},
	deinterleave: func(dst, src []float64, n int) { dwDeinterleaveFrom(dst, src, n, 0) },
}

// dwActive is written once, by init (depthwise_amd64.go), like gemmActiveF64.
var dwActive = &dwGo

// DWTaps computes, for every pixel p and lane l,
//
//	out[p*4+l] = Σ_t w[t*4+l] · src[pix[p]+taps[t]+l]      (t ascending)
//
// pix[p] is the element offset of pixel p's window origin in the interleaved
// buffer src and taps[t] the element offset of tap t from that origin (it may
// be negative: the input-gradient pass walks the taps backwards). len(pix)
// must be a multiple of 4 — pad the table by repeating an entry — and out
// must hold 4·len(pix) elements. Offsets are the caller's to get right: the
// vector kernel does not bounds-check them (the Go kernel panics on one out
// of range).
func DWTaps(out, src []float64, pix, taps []int, w []float64) {
	if len(pix)%4 != 0 || len(out) < DWLanes*len(pix) || len(w) < DWLanes*len(taps) {
		panic(fmt.Sprintf("tensor: DWTaps pix %d out %d taps %d w %d", len(pix), len(out), len(taps), len(w)))
	}
	if len(pix) == 0 || len(taps) == 0 {
		for i := range out[:DWLanes*len(pix)] {
			out[i] = 0
		}
		return
	}
	dwActive.taps(out, src, pix, taps, w)
}

// DWGradW computes, for every tap t and lane l,
//
//	gw[t*4+l] = Σ_p g[gpix[p]+l] · x[xpix[p]+taps[t]+l]    (p ascending)
//
// the per-plane weight gradient: one chain per tap, four taps advanced
// together. len(taps) must be a multiple of 4 (pad by repeating a tap and
// ignore the extra results) and gw must hold 4·len(taps) elements.
func DWGradW(gw, g []float64, gpix []int, x []float64, xpix, taps []int) {
	if len(taps)%4 != 0 || len(gw) < DWLanes*len(taps) || len(gpix) != len(xpix) {
		panic(fmt.Sprintf("tensor: DWGradW taps %d gw %d pix %d/%d", len(taps), len(gw), len(gpix), len(xpix)))
	}
	if len(taps) == 0 || len(gpix) == 0 {
		for i := range gw[:DWLanes*len(taps)] {
			gw[i] = 0
		}
		return
	}
	dwActive.gradW(gw, g, gpix, x, xpix, taps)
}

// DWMaxTaps is DWTaps' max-pooling form: for every pixel p and lane l it
// scans src[pix[p]+taps[t]+l] in ascending t, replacing the running maximum
// (which starts at -Inf) only with a strictly greater value, so the earliest
// maximum wins and a NaN never does. It writes
//
//	out[p*4+l] = that maximum, or +0 when no tap exceeds -Inf
//	at[p*4+l]  = lane[l] + pixAt[p] + tapAt[t] for the winning tap t, or -1
//
// pixAt, tapAt and lane describe where a tap sits in the caller's own
// indexing (a max pool's flat input index); every tapAt entry must be ≥ 0,
// and lane holds 4 entries. len(pix) must be a multiple of 4 (pad the tables
// by repeating an entry).
func DWMaxTaps(out []float64, at []int, src []float64, pix, pixAt, taps, tapAt, lane []int) {
	if len(pix)%4 != 0 || len(pixAt) != len(pix) || len(tapAt) != len(taps) || len(lane) != DWLanes ||
		len(out) < DWLanes*len(pix) || len(at) < DWLanes*len(pix) {
		panic(fmt.Sprintf("tensor: DWMaxTaps pix %d/%d taps %d/%d out %d at %d",
			len(pix), len(pixAt), len(taps), len(tapAt), len(out), len(at)))
	}
	for _, v := range tapAt {
		if v < 0 {
			panic(fmt.Sprintf("tensor: DWMaxTaps tap index %d", v))
		}
	}
	if len(pix) == 0 {
		return
	}
	if len(taps) == 0 {
		for i := range out[:DWLanes*len(pix)] {
			out[i], at[i] = 0, -1
		}
		return
	}
	dwActive.maxTaps(out, at, src, pix, pixAt, taps, tapAt, lane)
}

// lanes4s returns a pointer to the start of buf, after checking that the
// four-lane reads at every base[i]+off[j] fit in it. The Go kernels then
// read through lanes4 unchecked: a bounds check per tap cost a third of
// dwTapsGo's time.
func lanes4s(buf []float64, base, off []int) unsafe.Pointer {
	lo, hi := slices.Min(base)+slices.Min(off), slices.Max(base)+slices.Max(off)+DWLanes
	if lo < 0 || hi > len(buf) {
		panic(fmt.Sprintf("tensor: depthwise kernel reads [%d, %d) of %d elements", lo, hi, len(buf)))
	}
	return unsafe.Pointer(unsafe.SliceData(buf))
}

// lanes4 is the four lanes at element i of the buffer that starts at p.
func lanes4(p unsafe.Pointer, i int) *[DWLanes]float64 {
	return (*[DWLanes]float64)(unsafe.Add(p, i*8))
}

// dwMaxTapsGo keeps one running maximum per lane, the four advanced
// together over the taps, as dwTapsGo keeps its four sums.
func dwMaxTapsGo(out []float64, at []int, src []float64, pix, pixAt, taps, tapAt, lane []int) {
	negInf := math.Inf(-1)
	sp := lanes4s(src, pix, taps)
	for p, base := range pix {
		b0, b1, b2, b3 := negInf, negInf, negInf, negInf
		t0, t1, t2, t3 := -1, -1, -1, -1
		for t, off := range taps {
			s := lanes4(sp, base+off)
			if s[0] > b0 {
				b0, t0 = s[0], t
			}
			if s[1] > b1 {
				b1, t1 = s[1], t
			}
			if s[2] > b2 {
				b2, t2 = s[2], t
			}
			if s[3] > b3 {
				b3, t3 = s[3], t
			}
		}
		o, a := out[p*4:p*4+4:p*4+4], at[p*4:p*4+4:p*4+4]
		o[0], a[0] = maxResult(b0, t0, lane[0]+pixAt[p], tapAt)
		o[1], a[1] = maxResult(b1, t1, lane[1]+pixAt[p], tapAt)
		o[2], a[2] = maxResult(b2, t2, lane[2]+pixAt[p], tapAt)
		o[3], a[3] = maxResult(b3, t3, lane[3]+pixAt[p], tapAt)
	}
}

// maxResult is one lane's DWMaxTaps result: the maximum and its index, or
// +0 and -1 when no tap won.
func maxResult(best float64, t, at0 int, tapAt []int) (float64, int) {
	if t < 0 {
		return 0, -1
	}
	return best, at0 + tapAt[t]
}

// DWGemmAcc continues, for four rows o and the four lanes l, the chains
//
//	acc[o*4+l] += a[b*aImg + o*aRow + j] · x[(b*n+j)*4 + l]
//
// over images b < nimg and positions j < n in that order, one multiply and
// one add per term: a GEMM whose B operand is lane-interleaved. With acc
// started at +0 it is the product of four rows of a, each the concatenation
// of its per-image segments, and four lane columns of x — the weight
// gradient of a 1×1 convolution, read straight from the NCHW output
// gradient, that GemmRaw would give from the lowered and transposed batch.
// Being that product, it counts into GemmFLOPs and GemmKernelNanos.
func DWGemmAcc(acc, a []float64, aRow, aImg int, x []float64, n, nimg int) {
	if n <= 0 || nimg <= 0 {
		return
	}
	if len(acc) < 4*DWLanes || len(a) < (nimg-1)*aImg+3*aRow+n || len(x) < DWLanes*n*nimg {
		panic(fmt.Sprintf("tensor: DWGemmAcc %d×%d images, rows %d apart, images %d apart, over a %d, x %d, acc %d",
			nimg, n, aRow, aImg, len(a), len(x), len(acc)))
	}
	start := time.Now()
	dwActive.gemmAcc(acc, a, aRow, aImg, x, n, nimg)
	gemmAddStats(2*4*DWLanes*int64(n*nimg), time.Since(start).Nanoseconds(), uintptr(unsafe.Pointer(&acc[0])))
}

func dwGemmAccGo(acc, a []float64, aRow, aImg int, x []float64, n, nimg int) {
	for o := 0; o < 4; o++ {
		c := acc[o*4 : o*4+4 : o*4+4]
		c0, c1, c2, c3 := c[0], c[1], c[2], c[3]
		for b := 0; b < nimg; b++ {
			row := a[b*aImg+o*aRow : b*aImg+o*aRow+n]
			xb := x[b*n*4 : (b+1)*n*4]
			for j, av := range row {
				xv := xb[j*4 : j*4+4 : j*4+4]
				c0 += av * xv[0]
				c1 += av * xv[1]
				c2 += av * xv[2]
				c3 += av * xv[3]
			}
		}
		c[0], c[1], c[2], c[3] = c0, c1, c2, c3
	}
}

func dwTapsGo(out, src []float64, pix, taps []int, w []float64) {
	sp, wp := lanes4s(src, pix, taps), unsafe.Pointer(unsafe.SliceData(w))
	for p, base := range pix {
		var a0, a1, a2, a3 float64
		for t, off := range taps {
			s, wt := lanes4(sp, base+off), lanes4(wp, t*DWLanes)
			a0 += wt[0] * s[0]
			a1 += wt[1] * s[1]
			a2 += wt[2] * s[2]
			a3 += wt[3] * s[3]
		}
		o := out[p*4 : p*4+4 : p*4+4]
		o[0], o[1], o[2], o[3] = a0, a1, a2, a3
	}
}

func dwGradWGo(gw, g []float64, gpix []int, x []float64, xpix, taps []int) {
	gp, xp := lanes4s(g, gpix, []int{0}), lanes4s(x, xpix, taps)
	for t, off := range taps {
		var a0, a1, a2, a3 float64
		for p, gb := range gpix {
			gv, xv := lanes4(gp, gb), lanes4(xp, xpix[p]+off)
			a0 += gv[0] * xv[0]
			a1 += gv[1] * xv[1]
			a2 += gv[2] * xv[2]
			a3 += gv[3] * xv[3]
		}
		o := gw[t*4 : t*4+4 : t*4+4]
		o[0], o[1], o[2], o[3] = a0, a1, a2, a3
	}
}

// DWInterleave copies four consecutive h×w planes of src into the lane slots
// of dst: element (y,x) of plane l lands at
// dst[(org + y*rowStep + x*colStep)*4 + l]. A colStep above 1 spreads the
// pixels apart (the zero-stuffed gradient of a strided convolution).
func DWInterleave(dst []float64, org, rowStep, colStep int, src []float64, h, w int) {
	if h <= 0 || w <= 0 {
		return
	}
	last := org + (h-1)*rowStep + (w-1)*colStep
	if org < 0 || rowStep < 0 || colStep < 1 || len(dst) < (last+1)*DWLanes || len(src) < DWLanes*h*w {
		panic(fmt.Sprintf("tensor: DWInterleave %dx%d at %d step %d/%d into %d from %d", h, w, org, rowStep, colStep, len(dst), len(src)))
	}
	dwActive.interleave(dst, org, rowStep, colStep, src, h*w, h, w)
}

// DWBroadcast is DWInterleave from a single h×w plane: element (y,x) of src
// lands in all four lane slots of dst[(org + y*rowStep + x*colStep)*4 :].
// A dense convolution of fewer than four input channels reads its input
// this way, one output channel per lane.
func DWBroadcast(dst []float64, org, rowStep, colStep int, src []float64, h, w int) {
	if h <= 0 || w <= 0 {
		return
	}
	last := org + (h-1)*rowStep + (w-1)*colStep
	if org < 0 || rowStep < 0 || colStep < 1 || len(dst) < (last+1)*DWLanes || len(src) < h*w {
		panic(fmt.Sprintf("tensor: DWBroadcast %dx%d at %d step %d/%d into %d from %d", h, w, org, rowStep, colStep, len(dst), len(src)))
	}
	dwActive.interleave(dst, org, rowStep, colStep, src, 0, h, w)
}

// DWDeinterleave is the way back for a contiguous result: dst's four
// consecutive n-element planes receive plane l = src[i*4+l].
func DWDeinterleave(dst, src []float64, n int) {
	if n <= 0 {
		return
	}
	if len(dst) < DWLanes*n || len(src) < DWLanes*n {
		panic(fmt.Sprintf("tensor: DWDeinterleave %d into %d from %d", n, len(dst), len(src)))
	}
	dwActive.deinterleave(dst, src, n)
}

// DWDeinterleaveInts is DWDeinterleave for the indices DWMaxTaps writes. On
// a 64-bit host the selected kernel moves them as float64 words, which only
// loads and stores them and so keeps every bit.
func DWDeinterleaveInts(dst, src []int, n int) {
	if n <= 0 {
		return
	}
	if len(dst) < DWLanes*n || len(src) < DWLanes*n {
		panic(fmt.Sprintf("tensor: DWDeinterleaveInts %d into %d from %d", n, len(dst), len(src)))
	}
	if unsafe.Sizeof(int(0)) == 8 {
		dwActive.deinterleave(intWords(dst), intWords(src), n)
		return
	}
	p0, p1, p2, p3 := dst[:n], dst[n:2*n], dst[2*n:3*n], dst[3*n:4*n]
	for i := 0; i < n; i++ {
		r := src[i*4 : i*4+4 : i*4+4]
		p0[i], p1[i], p2[i], p3[i] = r[0], r[1], r[2], r[3]
	}
}

// intWords views 64-bit ints as float64 words for a kernel that only moves
// them.
func intWords(s []int) []float64 {
	return unsafe.Slice((*float64)(unsafe.Pointer(unsafe.SliceData(s))), len(s))
}

// dwInterleaveCols is DWInterleave for columns [x0, w) of every row, the
// four planes planeStep apart (0 replicates one plane into every lane).
func dwInterleaveCols(dst []float64, org, rowStep, colStep int, src []float64, planeStep, h, w, x0 int) {
	hw := h * w
	p0, p1, p2, p3 := src[:hw], src[planeStep:planeStep+hw], src[2*planeStep:2*planeStep+hw], src[3*planeStep:3*planeStep+hw]
	for y := 0; y < h; y++ {
		at := (org + y*rowStep + x0*colStep) * DWLanes
		for i := y*w + x0; i < (y+1)*w; i++ {
			d := dst[at : at+4 : at+4]
			d[0], d[1], d[2], d[3] = p0[i], p1[i], p2[i], p3[i]
			at += colStep * DWLanes
		}
	}
}

// dwDeinterleaveFrom is DWDeinterleave for elements [i0, n).
func dwDeinterleaveFrom(dst, src []float64, n, i0 int) {
	p0, p1, p2, p3 := dst[:n], dst[n:2*n], dst[2*n:3*n], dst[3*n:4*n]
	for i := i0; i < n; i++ {
		r := src[i*4 : i*4+4 : i*4+4]
		p0[i], p1[i], p2[i], p3[i] = r[0], r[1], r[2], r[3]
	}
}
