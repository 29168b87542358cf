//go:build amd64 && !noasm

package tensor

// ewAVX2 is selected by the package init in gemm_amd64.go when the CPU has
// AVX2, alongside the GEMM and depthwise kernels.
var ewAVX2 = ewKernel{
	name: "avx2", relu: reluAsm, reluGrad: reluGradAsm, addTo: addToAsm, scaleTo: scaleToAsm,
	bnNormalize: bnNormalizeAsm, bnBackward: bnBackwardAsm,
}

func reluAsm(dst, src []float64) {
	if len(src) > 0 {
		reluAVX2(&dst[0], &src[0], len(src))
	}
}

func reluGradAsm(dst, g, out []float64, add bool) {
	if len(g) > 0 {
		reluGradAVX2(&dst[0], &g[0], &out[0], len(g), boolInt(add))
	}
}

func addToAsm(dst, src []float64) {
	if len(src) > 0 {
		addToAVX2(&dst[0], &src[0], len(src))
	}
}

func scaleToAsm(dst, src []float64, c float64) {
	if len(src) > 0 {
		scaleToAVX2(&dst[0], &src[0], len(src), c)
	}
}

func bnNormalizeAsm(out, xh, x []float64, planes, hw, stride int, mean, inv, gamma, beta float64, add bool) {
	if planes > 0 && hw > 0 {
		bnNormalizeAVX2(&out[0], &xh[0], &x[0], planes, hw, stride, mean, inv, gamma, beta, boolInt(add))
	}
}

func bnBackwardAsm(gx, dy, xh []float64, planes, hw, stride int, scale, meanDy, meanDyXHat float64) {
	if planes > 0 && hw > 0 {
		bnBackwardAVX2(&gx[0], &dy[0], &xh[0], planes, hw, stride, scale, meanDy, meanDyXHat)
	}
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Implemented in elementwise_amd64.s.

//go:noescape
func reluAVX2(dst, src *float64, n int)

//go:noescape
func reluGradAVX2(dst, gr, out *float64, n, add int)

//go:noescape
func addToAVX2(dst, src *float64, n int)

//go:noescape
func scaleToAVX2(dst, src *float64, n int, c float64)

//go:noescape
func bnNormalizeAVX2(out, xh, x *float64, planes, hw, stride int, mean, inv, gamma, beta float64, add int)

//go:noescape
func bnBackwardAVX2(gx, dy, xh *float64, planes, hw, stride int, scale, meanDy, meanDyXHat float64)
