//go:build amd64 && !noasm

package tensor

// dwAVX2 is selected by the package init in gemm_amd64.go when the CPU has
// AVX2, alongside the GEMM micro-kernels.
var dwAVX2 = dwKernel{
	name: "avx2-lanes4", taps: dwTapsAsm, gradW: dwGradWAsm, maxTaps: dwMaxTapsAsm, gemmAcc: dwGemmAccAsm,
	interleave: dwInterleaveAsm, deinterleave: dwDeinterleaveAsm,
}

func dwTapsAsm(out, src []float64, pix, taps []int, w []float64) {
	dwTapsAVX2(&out[0], &src[0], &pix[0], len(pix)/4, &taps[0], len(taps), &w[0])
}

func dwGradWAsm(gw, g []float64, gpix []int, x []float64, xpix, taps []int) {
	dwGradWAVX2(&gw[0], &g[0], &gpix[0], &x[0], &xpix[0], len(gpix), &taps[0], len(taps)/4)
}

func dwMaxTapsAsm(out []float64, at []int, src []float64, pix, pixAt, taps, tapAt, lane []int) {
	dwMaxTapsAVX2(&out[0], &at[0], &src[0], &pix[0], &pixAt[0], len(pix)/4, &taps[0], &tapAt[0], len(taps), &lane[0])
}

func dwGemmAccAsm(acc, a []float64, aRow, aImg int, x []float64, n, nimg int) {
	dwGemmAccAVX2(&acc[0], &a[0], aRow*8, aImg*8, &x[0], n, nimg)
}

// dwInterleaveAsm transposes whole blocks of four columns in registers and
// leaves a row's last w%4 columns to the portable loop.
func dwInterleaveAsm(dst []float64, org, rowStep, colStep int, src []float64, planeStep, h, w int) {
	if nblk := w / 4; nblk > 0 {
		dwInterleaveAVX2(&dst[org*DWLanes], rowStep*DWLanes*8, colStep*DWLanes*8,
			&src[0], planeStep*8, w*8, h, nblk)
	}
	if w%4 != 0 {
		dwInterleaveCols(dst, org, rowStep, colStep, src, planeStep, h, w, w&^3)
	}
}

func dwDeinterleaveAsm(dst, src []float64, n int) {
	if nblk := n / 4; nblk > 0 {
		dwDeinterleaveAVX2(&dst[0], n*8, &src[0], nblk)
	}
	if n%4 != 0 {
		dwDeinterleaveFrom(dst, src, n, n&^3)
	}
}

// Implemented in depthwise_amd64.s.

//go:noescape
func dwInterleaveAVX2(dst *float64, rowStep, colStep int, src *float64, planeStep, rowLen, rows, nblk int)

//go:noescape
func dwDeinterleaveAVX2(dst *float64, planeStep int, src *float64, nblk int)

//go:noescape
func dwTapsAVX2(out, src *float64, pix *int, nblk int, taps *int, ntaps int, w *float64)

//go:noescape
func dwGradWAVX2(gw, gr *float64, gpix *int, x *float64, xpix *int, npix int, taps *int, nblk int)

//go:noescape
func dwMaxTapsAVX2(out *float64, at *int, src *float64, pix, pixAt *int, nblk int, taps, tapAt *int, ntaps int, lane *int)

//go:noescape
func dwGemmAccAVX2(acc, a *float64, aRow, aImg int, x *float64, n, nimg int)
