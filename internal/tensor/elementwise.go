package tensor

import (
	"fmt"
	"math"
)

// Element-wise kernels: the third entry behind the kernel dispatch seam
// (gemm.go and depthwise.go hold the first two). They are the loops of a
// participant step that are neither a GEMM nor a depthwise convolution —
// ReLU, batch-norm normalisation and its backward apply, node sums — and at
// this repository's shapes (planes of 64, 16 or 4 pixels already in cache)
// they are bound by instructions, not memory, so a vector form pays.
//
// Contract: every variant computes each element with the same operations in
// the same order as the Go reference below — a separate multiply and add,
// never fused — so the AVX2 kernels and these loops produce the same bits,
// NaN payloads included (elementwise_amd64.s says how). The comparisons keep the reference's NaN and
// signed-zero semantics: x > 0 is false for NaN and both zeros, so
// ReLU(NaN) = ReLU(-0) = +0 and ReLU(+Inf) = +Inf.

// ewKernel is one implementation of the set.
type ewKernel struct {
	name        string
	relu        func(dst, src []float64)
	reluGrad    func(dst, g, out []float64, add bool)
	addTo       func(dst, src []float64)
	scaleTo     func(dst, src []float64, c float64)
	bnNormalize func(out, xh, x []float64, planes, hw, stride int, mean, inv, gamma, beta float64, add bool)
	bnBackward  func(gx, dy, xh []float64, planes, hw, stride int, scale, meanDy, meanDyXHat float64)
}

// ewGo is the portable reference set — always compiled, and what the
// assembly is tested against.
var ewGo = ewKernel{
	name: "go", relu: reluGo, reluGrad: reluGradGo, addTo: addToGo, scaleTo: scaleToGo,
	bnNormalize: bnNormalizeGo, bnBackward: bnBackwardGo,
}

// ewActive is written once, by init (gemm_amd64.go), like gemmActiveF64.
var ewActive = &ewGo

// ReLU writes dst[i] = src[i] if src[i] > 0, else +0. dst and src may be
// the same slice.
func ReLU(dst, src []float64) {
	mustLen("ReLU", len(dst), len(src))
	ewActive.relu(dst, src)
}

// ReLUGrad writes dst[i] = g[i]·m[i], where m[i] is 1 if out[i] > 0 and +0
// otherwise: the ReLU input gradient with its mask read off the ReLU's
// output (out > 0 exactly where the input was).
func ReLUGrad(dst, g, out []float64) {
	mustLen("ReLUGrad", len(dst), len(g), len(out))
	ewActive.reluGrad(dst, g, out, false)
}

// ReLUGradAdd is ReLUGrad adding into dst: dst[i] = dst[i] + g[i]·m[i].
func ReLUGradAdd(dst, g, out []float64) {
	mustLen("ReLUGradAdd", len(dst), len(g), len(out))
	ewActive.reluGrad(dst, g, out, true)
}

// AddTo adds src into dst element-wise: dst[i] = dst[i] + src[i].
func AddTo(dst, src []float64) {
	mustLen("AddTo", len(dst), len(src))
	ewActive.addTo(dst, src)
}

// ScaleTo writes dst[i] = src[i]·c.
func ScaleTo(dst, src []float64, c float64) {
	mustLen("ScaleTo", len(dst), len(src))
	ewActive.scaleTo(dst, src, c)
}

// BNNormalize normalises one channel of a batch: for each of planes planes
// of hw elements, the first at offset 0 and each stride elements after the
// last,
//
//	xh[i]  = (x[i] - mean) · inv
//	out[i] = gamma·xh[i] + beta
func BNNormalize(out, xh, x []float64, planes, hw, stride int, mean, inv, gamma, beta float64) {
	mustPlanes("BNNormalize", planes, hw, stride, len(out), len(xh), len(x))
	ewActive.bnNormalize(out, xh, x, planes, hw, stride, mean, inv, gamma, beta, false)
}

// BNNormalizeAdd is BNNormalize adding its output into out:
// out[i] = out[i] + (gamma·xh[i] + beta).
func BNNormalizeAdd(out, xh, x []float64, planes, hw, stride int, mean, inv, gamma, beta float64) {
	mustPlanes("BNNormalizeAdd", planes, hw, stride, len(out), len(xh), len(x))
	ewActive.bnNormalize(out, xh, x, planes, hw, stride, mean, inv, gamma, beta, true)
}

// BNBackward applies one channel's training-mode batch-norm input gradient
// over the same plane layout as BNNormalize:
//
//	gx[i] = scale · ((dy[i] - meanDy) - xh[i]·meanDyXHat)
func BNBackward(gx, dy, xh []float64, planes, hw, stride int, scale, meanDy, meanDyXHat float64) {
	mustPlanes("BNBackward", planes, hw, stride, len(gx), len(dy), len(xh))
	ewActive.bnBackward(gx, dy, xh, planes, hw, stride, scale, meanDy, meanDyXHat)
}

func mustLen(op string, n int, others ...int) {
	for _, m := range others {
		if m != n {
			panic(fmt.Sprintf("tensor: %s length mismatch %d vs %d", op, n, m))
		}
	}
}

func mustPlanes(op string, planes, hw, stride int, lens ...int) {
	if planes <= 0 || hw <= 0 {
		return
	}
	need := (planes-1)*stride + hw
	for _, n := range lens {
		if (planes > 1 && stride < hw) || n < need {
			panic(fmt.Sprintf("tensor: %s %d planes of %d, stride %d, over %d elements", op, planes, hw, stride, n))
		}
	}
}

// reluKeep is all ones when v > 0 and zero otherwise, without a branch: on
// activations the sign is a coin flip, so a compare and jump mispredicts
// every other element. v > 0 holds exactly when the bit pattern lies in
// [1, +Inf] (sign clear, not zero, not NaN).
func reluKeep(v float64) uint64 {
	const infBits = 0x7FF0000000000000
	t := math.Float64bits(v) - 1 // 0 wraps to the top of the range and fails the test
	return uint64(int64((t-infBits)&^t) >> 63)
}

func reluGo(dst, src []float64) {
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] = math.Float64frombits(math.Float64bits(v) & reluKeep(v))
	}
}

func reluGradGo(dst, g, out []float64, add bool) {
	const oneBits = 0x3FF0000000000000
	dst, out = dst[:len(g)], out[:len(g)]
	for i, v := range g {
		m := math.Float64frombits(oneBits & reluKeep(out[i]))
		if add {
			dst[i] += v * m
		} else {
			dst[i] = v * m
		}
	}
}

func addToGo(dst, src []float64) {
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] += v
	}
}

func scaleToGo(dst, src []float64, c float64) {
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] = v * c
	}
}

func bnNormalizeGo(out, xh, x []float64, planes, hw, stride int, mean, inv, gamma, beta float64, add bool) {
	for p := 0; p < planes; p++ {
		base := p * stride
		xr, xhr, or := x[base:base+hw], xh[base:base+hw], out[base:base+hw]
		for i, v := range xr {
			xhv := (v - mean) * inv
			xhr[i] = xhv
			if add {
				or[i] += gamma*xhv + beta
			} else {
				or[i] = gamma*xhv + beta
			}
		}
	}
}

func bnBackwardGo(gx, dy, xh []float64, planes, hw, stride int, scale, meanDy, meanDyXHat float64) {
	for p := 0; p < planes; p++ {
		base := p * stride
		gr, xhr, gxr := dy[base:base+hw], xh[base:base+hw], gx[base:base+hw]
		for i, d := range gr {
			gxr[i] = scale * (d - meanDy - xhr[i]*meanDyXHat)
		}
	}
}
