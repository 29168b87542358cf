//go:build amd64 && !noasm

package tensor

// AVX2 kernel selection. Detection is hand-rolled CPUID/XGETBV (the repo is
// dependency-free, so no golang.org/x/sys/cpu): AVX2 requires the CPU to
// advertise it (leaf 7 EBX bit 5), the AVX foundation (leaf 1 ECX bit 28),
// and the OS to have enabled XMM+YMM state saving (OSXSAVE + XCR0 bits 1-2).
//
// FMA (leaf 1 ECX bit 12) is detected for reporting only. The kernels never
// fuse: a fused multiply-add performs one rounding where the pure-Go
// reference performs two, so using it would break the bit-identity contract
// between the asm and fallback kernels (DESIGN.md §Kernels).

const asmKernels = true

func init() {
	cpuHasAVX2, cpuHasFMA = detectAVX2()
	if cpuHasAVX2 {
		gemmActiveF64 = &gemmAVX2F64
		gemmShortF64 = &gemmAVX2F64x4
		gemmRows6F64 = &gemmAVX2F64x6
		dwActive = &dwAVX2
		ewActive = &ewAVX2
	}
}

// gemmAVX2F64 widens the register block to 8×8: the asm kernel computes two
// 4×8 halves, each holding 8 ymm accumulators across the whole k loop.
var gemmAVX2F64 = gemmKernelF64{name: "avx2-8x8", mr: 8, nr: 8, micro: microAVX2F64, microC: microCAVX2F64}

// gemmAVX2F64x4 is the short-m variant: problems with m ≤ 4 rows pack one
// 4-row strip instead of padding half an 8-row tile with zeros.
var gemmAVX2F64x4 = gemmKernelF64{name: "avx2-4x8", mr: 4, nr: 8, micro: microAVX2F64x4, microC: microCAVX2F64x4}

// gemmAVX2F64x6 is the 6-row variant for m a multiple of 6 and not of 8 (a
// network of six channels, or twelve after a reduction): whole 6-row strips
// read in place where an 8-row tile would pad and pack them. Its 12
// accumulators are the classic Haswell dgemm tile.
var gemmAVX2F64x6 = gemmKernelF64{name: "avx2-6x8", mr: 6, nr: 8, micro: microAVX2F64x6, microC: microCAVX2F64x6}

func microAVX2F64(k int, a []float64, aRow, aStep int, b []float64, bStep int, acc *[gemmMaxMR * gemmMaxNR]float64) {
	gemmMicroAVX2F64(k, &a[0], aRow*8, aStep*8, &b[0], bStep*8, &acc[0], gemmMaxNR*8, 0)
}

func microAVX2F64x4(k int, a []float64, aRow, aStep int, b []float64, bStep int, acc *[gemmMaxMR * gemmMaxNR]float64) {
	gemmMicroAVX2F64x4(k, &a[0], aRow*8, aStep*8, &b[0], bStep*8, &acc[0], gemmMaxNR*8, 0)
}

func microAVX2F64x6(k int, a []float64, aRow, aStep int, b []float64, bStep int, acc *[gemmMaxMR * gemmMaxNR]float64) {
	gemmMicroAVX2F64x6(k, &a[0], aRow*8, aStep*8, &b[0], bStep*8, &acc[0], gemmMaxNR*8, 0)
}

func microCAVX2F64(k int, a []float64, aRow, aStep int, b []float64, bStep int, c []float64, ldc int, add bool) {
	_ = c[7*ldc+7] // the whole tile lies in c
	gemmMicroAVX2F64(k, &a[0], aRow*8, aStep*8, &b[0], bStep*8, &c[0], ldc*8, boolInt(add))
}

func microCAVX2F64x4(k int, a []float64, aRow, aStep int, b []float64, bStep int, c []float64, ldc int, add bool) {
	_ = c[3*ldc+7]
	gemmMicroAVX2F64x4(k, &a[0], aRow*8, aStep*8, &b[0], bStep*8, &c[0], ldc*8, boolInt(add))
}

func microCAVX2F64x6(k int, a []float64, aRow, aStep int, b []float64, bStep int, c []float64, ldc int, add bool) {
	_ = c[5*ldc+7]
	gemmMicroAVX2F64x6(k, &a[0], aRow*8, aStep*8, &b[0], bStep*8, &c[0], ldc*8, boolInt(add))
}

// detectAVX2 reports (avx2, fma) usable in this process.
func detectAVX2() (avx2, fma bool) {
	maxLeaf, _, _, _ := cpuidex(0, 0)
	if maxLeaf < 7 {
		return false, false
	}
	_, _, ecx1, _ := cpuidex(1, 0)
	const (
		fmaBit     = 1 << 12
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
	)
	if ecx1&osxsaveBit == 0 || ecx1&avxBit == 0 {
		return false, false
	}
	// XCR0 bits 1 (SSE) and 2 (AVX) must both be set by the OS before ymm
	// registers are safe to touch.
	xcr0, _ := xgetbv0()
	if xcr0&0x6 != 0x6 {
		return false, false
	}
	_, ebx7, _, _ := cpuidex(7, 0)
	const avx2Bit = 1 << 5
	return ebx7&avx2Bit != 0, ecx1&fmaBit != 0
}

// Implemented in gemm_amd64.s.

// Strides (and ld, dst's row stride) are in bytes.

//go:noescape
func gemmMicroAVX2F64(k int, a *float64, aRow, aStep int, b *float64, bStep int, dst *float64, ld, add int)

//go:noescape
func gemmMicroAVX2F64x4(k int, a *float64, aRow, aStep int, b *float64, bStep int, dst *float64, ld, add int)

//go:noescape
func gemmMicroAVX2F64x6(k int, a *float64, aRow, aStep int, b *float64, bStep int, dst *float64, ld, add int)

func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() (eax, edx uint32)
