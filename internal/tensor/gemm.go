// GEMM kernel layer: one fast matmul under everything dense.
//
// The kernel follows the classic packed design (pack the operands into
// panel-contiguous scratch, then drive a register-blocked micro-kernel over
// the panels) with one deliberate deviation: the reduction dimension k is
// never split. Each output element is produced by a single accumulator that
// walks k in ascending order, so
//
//	C[i,j] = beta*C[i,j] + alpha * Σ_{p=0..k-1} op(A)[i,p]·op(B)[p,j]
//
// with exactly one rounding for the alpha/beta combination at the end. That
// fixed "canonical summation order" makes the blocked kernel bit-identical
// to the naive three-loop reference and to itself at every block size —
// the repo-wide determinism invariant (DESIGN.md §Kernels) falls out for
// free.
//
// The micro-kernel itself is pluggable: gemmKernelFor picks the variant for
// each problem from those selected once at init. On amd64 with AVX2 assembly
// kernels (gemm_amd64.s) replace the pure-Go 4×4 one: 8×8 in general, 4×8
// for problems of at most 4 rows, and 6×8 for row counts that are multiples
// of 6 but not of 8, so those are covered by whole strips instead of padded
// ones. All vectorize only across independent output elements and keep a
// separate multiply and add per k step (never a fused multiply-add), so
// every variant produces bit-identical output. The pure-Go kernel remains
// the always-compiled reference (`-tags noasm` or any non-amd64 GOARCH).
//
// Operands are read in place wherever a tile's loads are already what the
// micro-kernel wants: an A strip of mr whole rows is broadcast one scalar per
// row per step whatever its strides, and a B strip of nr whole columns of an
// untransposed B is one contiguous vector per step. Only the ragged last
// strip of either operand and every strip of a transposed B (whose columns
// are strided in memory) are packed. At this repository's shapes — a handful
// of output rows, k of 4 to 32 or a reduction over the whole batch — packing
// cost as much as the arithmetic it fed.
//
// Not splitting k costs workspace proportional to k per packed strip
// instead of a fixed cache block. At this repository's scale (im2col
// matrices of a few thousand columns) the packed panels are a few MB at
// most, pooled and reused across calls, so steady-state GEMM performs zero
// heap allocations.
package tensor

import (
	"fmt"
	"sync"
	"time"
	"unsafe"
)

const (
	// gemmMaxMR×gemmMaxNR bounds the register block across every kernel
	// variant: micro-kernels write their tile into a fixed [64]-element
	// accumulator so variants can be swapped without resizing scratch.
	gemmMaxMR = 8
	gemmMaxNR = 8
	// gemmMC caps how many A strips (mr rows each) are walked per B strip
	// before moving on — the cache tile over output rows.
	gemmMC = 32
)

// gemmKernelF64 is one register-blocked micro-kernel variant: mr×nr
// accumulators held across the whole (unsplit) k loop. At step p micro reads
// row r's A value at a[r*aRow+p*aStep] and the nr B values at b[p*bStep:],
// and writes the tile into acc[r*nr+c]. The strides let one kernel walk a
// packed panel (aRow 1, aStep mr; bStep nr) or the caller's matrix in place.
type gemmKernelF64 struct {
	name   string
	mr, nr int
	micro  func(k int, a []float64, aRow, aStep int, b []float64, bStep int, acc *[gemmMaxMR * gemmMaxNR]float64)
	// microC, when set, is micro storing a whole tile straight into C (c at
	// the tile's first element, row stride ldc) for alpha 1: overwriting it
	// (beta 0) or adding to it (add, beta 1) — the values gemmStore would
	// write, without the trip through acc.
	microC func(k int, a []float64, aRow, aStep int, b []float64, bStep int, c []float64, ldc int, add bool)
}

// gemmGo4x4 is the portable reference kernel — always compiled, on every
// architecture, and the fallback when no SIMD variant is selected.
var gemmGo4x4 = gemmKernelF64{name: "go-4x4", mr: 4, nr: 4, micro: gemmMicro4x4}

// gemmActiveF64 is the kernel every float64 Gemm call dispatches to. It is
// written exactly once, by init (gemm_amd64.go swaps in the AVX2 variant
// when the CPU supports it), and read-only afterwards.
var gemmActiveF64 = &gemmGo4x4

// gemmShortF64, when non-nil, handles problems of at most 4 output rows
// (where a wide tile would spend half its arithmetic on zero padding).
// Kernel choice never changes results — padding rows never contribute to a
// stored element — so this is purely a throughput dispatch.
var gemmShortF64 *gemmKernelF64

// gemmRows6F64, when non-nil, handles problems whose row count is a multiple
// of 6 but not of 8, which it covers in whole 6-row strips. Like
// gemmShortF64 it is a throughput dispatch only.
var gemmRows6F64 *gemmKernelF64

// gemmKernelFor picks the variant for an m-row problem.
func gemmKernelFor(m int) *gemmKernelF64 {
	switch {
	case gemmShortF64 != nil && m <= 4:
		return gemmShortF64
	case gemmRows6F64 != nil && m%6 == 0 && m%8 != 0:
		return gemmRows6F64
	}
	return gemmActiveF64
}

// gemmScratch holds the packed panels. Checked out of gemmPool per call so
// concurrent GEMMs (one per round-engine worker) never share panels.
type gemmScratch struct {
	packA []float64
	packB []float64
}

// gemmOperands is what the macro-kernel needs to find a tile's operands:
// strips [0,aDirect) of A and [0,bDirect) of B are read from the caller's
// matrices, the rest from the packed panels (which hold only those strips).
type gemmOperands struct {
	a, b             []float64
	lda, ldb         int
	transA           bool
	packA, packB     []float64
	aDirect, bDirect int

	// Batched form (GemmRawBatched): the columns of B and C come in blocks
	// of colBlk, one block per image, bBlkStride / cBlkStride elements
	// apart. Zero colBlk means plain matrices.
	colBlk, bBlkStride, cBlkStride int
}

// aTile returns strip s of A as the micro-kernel's (slice, row stride, step
// stride).
func (o *gemmOperands) aTile(s, mr, k int) ([]float64, int, int) {
	switch {
	case s >= o.aDirect:
		return o.packA[(s-o.aDirect)*mr*k:], 1, mr
	case o.transA:
		return o.a[s*mr:], 1, o.lda
	default:
		return o.a[s*mr*o.lda:], o.lda, 1
	}
}

// bTile is aTile for strip t of B.
func (o *gemmOperands) bTile(t, nr, k int) ([]float64, int) {
	if t >= o.bDirect {
		return o.packB[(t-o.bDirect)*nr*k:], nr
	}
	if o.colBlk > 0 {
		col := t * nr
		return o.b[col/o.colBlk*o.bBlkStride+col%o.colBlk:], o.ldb
	}
	return o.b[t*nr:], o.ldb
}

// cBase returns the offset in C of row 0 of the tile whose first column is
// col.
func (o *gemmOperands) cBase(col int) int {
	if o.colBlk > 0 {
		return col/o.colBlk*o.cBlkStride + col%o.colBlk
	}
	return col
}

var gemmPool = sync.Pool{New: func() any { return new(gemmScratch) }}

// gemmAccPool recycles micro-tile accumulators. The micro-kernel is reached
// through a function value, so a stack-declared tile would be forced to
// escape (one heap allocation per tile); pooling keeps the steady state
// allocation-free.
var gemmAccPool = sync.Pool{New: func() any { return new([gemmMaxMR * gemmMaxNR]float64) }}

// Gemm computes dst = alpha·op(a)·op(b) + beta·dst for 2-D tensors, where
// op(x) is x or its transpose. The transposed operand is read in place —
// backward passes never materialize a transposed copy. dst must not alias a
// or b.
func Gemm(dst *Tensor, alpha float64, a *Tensor, transA bool, b *Tensor, transB bool, beta float64) {
	m, n, k := gemmDims(dst, a, transA, b, transB)
	GemmRaw(transA, transB, m, n, k, alpha, a.data, a.shape[1], b.data, b.shape[1], beta, dst.data, n)
}

// GemmInto computes dst = a·b (the plain matmul special case).
func GemmInto(dst, a, b *Tensor) { Gemm(dst, 1, a, false, b, false, 0) }

// gemmDims validates the tensor-level operand shapes and returns (m, n, k).
func gemmDims(dst, a *Tensor, transA bool, b *Tensor, transB bool) (m, n, k int) {
	if dst.Dims() != 2 || a.Dims() != 2 || b.Dims() != 2 {
		panic("tensor: Gemm requires 2-D operands")
	}
	m, k = a.shape[0], a.shape[1]
	if transA {
		m, k = k, m
	}
	kb, n := b.shape[0], b.shape[1]
	if transB {
		kb, n = n, kb
	}
	if k != kb {
		panic(fmt.Sprintf("tensor: Gemm inner dims %d vs %d", k, kb))
	}
	if dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: Gemm dst shape %v, want [%d %d]", dst.shape, m, n))
	}
	return m, n, k
}

// GemmRaw is the slice-level kernel: C = alpha·op(A)·op(B) + beta·C with C
// of shape [m,n] at row stride ldc. lda/ldb are the row strides of A and B
// as stored (so for a transposed operand they stride the pre-transpose
// layout, exactly like BLAS). Empty problems (m, n or k zero) degenerate to
// scaling C by beta.
func GemmRaw(transA, transB bool, m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) {
	gemmRawWith(gemmKernelFor(m), transA, transB, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
}

// gemmRawWith is GemmRaw pinned to one kernel variant (the seam the
// asm-vs-fallback parity tests drive).
func gemmRawWith(kv *gemmKernelF64, transA, transB bool, m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) {
	if gemmTrivial(m, n, k, beta, c, ldc) {
		return
	}
	gemmRun(kv, transA, transB, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc, 0, 0, 0)
}

// gemmRun is the serial kernel driver for a non-empty problem: pack what
// must be packed, run the macro-kernel, account the time. A non-zero colBlk
// gives B and C the batched column layout described on gemmOperands.
func gemmRun(kv *gemmKernelF64, transA, transB bool, m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int, colBlk, bBlkStride, cBlkStride int) {
	start := time.Now()
	ws := gemmPool.Get().(*gemmScratch)
	ops, ms, ns := ws.pack(kv.mr, kv.nr, transA, transB, m, n, k, a, lda, b, ldb)
	ops.colBlk, ops.bBlkStride, ops.cBlkStride = colBlk, bBlkStride, cBlkStride
	gemmMacro(kv, &ops, 0, ms, ns, m, n, k, alpha, beta, c, ldc)
	hint := uintptr(unsafe.Pointer(ws))
	gemmPool.Put(ws)
	gemmAddStats(2*int64(m)*int64(n)*int64(k), time.Since(start).Nanoseconds(), hint)
}

// GemmRawBatched computes C_i = alpha·op(A)·B_i + beta·C_i for count
// problems that share A: B_i is the [k,n] matrix at b[i*bStride:] with row
// stride ldb, C_i the [m,n] matrix at c[i*cStride:] with row stride ldc.
// That is an [N,C,H·W] activation tensor multiplied image by image without
// first being copied into one [C, N·H·W] matrix. Every element is the same
// single ascending-k accumulator GemmRaw would give it.
//
// The batch runs as one wide product whose B and C tiles are addressed in
// place, which needs every column tile to lie inside one image. When n is
// not a multiple of the selected kernel's tile width (or the problem is
// empty) it reports false and touches nothing: the caller should gather the
// batch into one matrix, whose tiles then span images, and call GemmRaw.
// (One GemmRaw per image is not a substitute — on 2×2 planes it measured 30%
// slower than gathering.)
func GemmRawBatched(transA bool, count, m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb, bStride int, beta float64, c []float64, ldc, cStride int) bool {
	kv := gemmKernelFor(m)
	if count <= 0 || m <= 0 || n <= 0 || k <= 0 || n%kv.nr != 0 {
		return false
	}
	gemmRun(kv, transA, false, m, count*n, k, alpha, a, lda, b, ldb, beta, c, ldc, n, bStride, cStride)
	return true
}

// gemmTrivial handles empty problems; it reports whether the call is done.
func gemmTrivial(m, n, k int, beta float64, c []float64, ldc int) bool {
	if m <= 0 || n <= 0 {
		return true
	}
	if k > 0 {
		return false
	}
	for i := 0; i < m; i++ {
		row := c[i*ldc : i*ldc+n]
		if beta == 0 {
			for j := range row {
				row[j] = 0
			}
		} else {
			for j := range row {
				row[j] *= beta
			}
		}
	}
	return true
}

// pack decides which strips are read in place and fills the scratch panels
// with the rest; it returns the operand description and the strip counts (ms
// strips of mr rows, ns strips of nr columns). Packed rows and columns beyond
// m and n are zero so the micro-kernel never branches on the edge; padding
// never touches the k axis, keeping every real accumulator's operation
// sequence identical to the naive loop at any mr/nr.
func (ws *gemmScratch) pack(mr, nr int, transA, transB bool, m, n, k int, a []float64, lda int, b []float64, ldb int) (ops gemmOperands, ms, ns int) {
	ms = (m + mr - 1) / mr
	ns = (n + nr - 1) / nr
	ops = gemmOperands{a: a, b: b, lda: lda, ldb: ldb, transA: transA, aDirect: m / mr}
	if !transB {
		ops.bDirect = n / nr
	}
	ws.packA = growFloats(ws.packA, (ms-ops.aDirect)*mr*k)
	ws.packB = growFloats(ws.packB, (ns-ops.bDirect)*nr*k)
	ops.packA, ops.packB = ws.packA, ws.packB

	// The ragged last strip of A, if any.
	if ops.aDirect < ms {
		pa := ws.packA
		s := ops.aDirect
		rlim := m - s*mr
		if transA {
			for p := 0; p < k; p++ {
				dst := pa[p*mr : p*mr+mr]
				copy(dst, a[p*lda+s*mr:p*lda+s*mr+rlim])
				for r := rlim; r < mr; r++ {
					dst[r] = 0
				}
			}
		} else {
			// Walk the rows in one pass so every packed write fills a
			// contiguous block, with the zero-padding folded in.
			var rows [gemmMaxMR][]float64
			for r := 0; r < rlim; r++ {
				rows[r] = a[(s*mr+r)*lda:]
			}
			for p := 0; p < k; p++ {
				d := pa[p*mr : p*mr+mr]
				for r := 0; r < rlim; r++ {
					d[r] = rows[r][p]
				}
				for r := rlim; r < mr; r++ {
					d[r] = 0
				}
			}
		}
	}

	pb := ws.packB
	for t := ops.bDirect; t < ns; t++ {
		base := (t - ops.bDirect) * nr * k
		clim := n - t*nr
		if clim > nr {
			clim = nr
		}
		if transB && clim == 8 && nr == 8 {
			// Single-pass 8-stream transpose: every packed write fills one
			// contiguous cacheline instead of revisiting it per source row.
			r0 := b[(t*nr+0)*ldb:]
			r1 := b[(t*nr+1)*ldb:]
			r2 := b[(t*nr+2)*ldb:]
			r3 := b[(t*nr+3)*ldb:]
			r4 := b[(t*nr+4)*ldb:]
			r5 := b[(t*nr+5)*ldb:]
			r6 := b[(t*nr+6)*ldb:]
			r7 := b[(t*nr+7)*ldb:]
			for p := 0; p < k; p++ {
				d := pb[base+p*8 : base+p*8+8]
				d[0], d[1], d[2], d[3] = r0[p], r1[p], r2[p], r3[p]
				d[4], d[5], d[6], d[7] = r4[p], r5[p], r6[p], r7[p]
			}
		} else if transB {
			var rows [gemmMaxNR][]float64
			for col := 0; col < clim; col++ {
				rows[col] = b[(t*nr+col)*ldb:]
			}
			for p := 0; p < k; p++ {
				d := pb[base+p*nr : base+p*nr+nr]
				for col := 0; col < clim; col++ {
					d[col] = rows[col][p]
				}
				for col := clim; col < nr; col++ {
					d[col] = 0
				}
			}
		} else {
			// The ragged last strip of an untransposed B.
			for p := 0; p < k; p++ {
				dst := pb[base+p*nr : base+p*nr+nr]
				copy(dst, b[p*ldb+t*nr:p*ldb+t*nr+clim])
				for col := clim; col < nr; col++ {
					dst[col] = 0
				}
			}
		}
	}
	return ops, ms, ns
}

// gemmMacro runs the macro-kernel over A strips [s0,s1) against every B
// strip: cache-tiled over gemmMC strips of rows so a B strip stays hot
// while the A strips of one tile stream past it.
func gemmMacro(kv *gemmKernelF64, ops *gemmOperands, s0, s1, ns, m, n, k int, alpha, beta float64, c []float64, ldc int) {
	mr, nr := kv.mr, kv.nr
	acc := gemmAccPool.Get().(*[gemmMaxMR * gemmMaxNR]float64)
	direct := kv.microC != nil && alpha == 1 && (beta == 0 || beta == 1)
	for sb := s0; sb < s1; sb += gemmMC {
		sEnd := sb + gemmMC
		if sEnd > s1 {
			sEnd = s1
		}
		for t := 0; t < ns; t++ {
			b, bStep := ops.bTile(t, nr, k)
			cTile := c[ops.cBase(t*nr):]
			wholeCols := (t+1)*nr <= n
			for s := sb; s < sEnd; s++ {
				a, aRow, aStep := ops.aTile(s, mr, k)
				if direct && wholeCols && (s+1)*mr <= m {
					kv.microC(k, a, aRow, aStep, b, bStep, cTile[s*mr*ldc:], ldc, beta == 1)
					continue
				}
				kv.micro(k, a, aRow, aStep, b, bStep, acc)
				gemmStore(acc, nr, s*mr, t*nr, mr, m, n, alpha, beta, cTile, ldc)
			}
		}
	}
	gemmAccPool.Put(acc)
}

// gemmMicro4x4 is the portable register-blocked 4×4 micro-kernel: 16
// accumulators held across the whole (unsplit) k loop, reading one column
// of the A strip and one row of the B strip per step. Each step is a separate
// multiply then add (two roundings), the exact sequence the naive reference
// and the SIMD variants reproduce.
func gemmMicro4x4(k int, a []float64, aRow, aStep int, b []float64, bStep int, acc *[gemmMaxMR * gemmMaxNR]float64) {
	var c00, c01, c02, c03 float64
	var c10, c11, c12, c13 float64
	var c20, c21, c22, c23 float64
	var c30, c31, c32, c33 float64
	ia, ib := 0, 0
	for p := 0; p < k; p++ {
		a0, a1, a2, a3 := a[ia], a[ia+aRow], a[ia+2*aRow], a[ia+3*aRow]
		bp := b[ib : ib+4 : ib+4]
		b0, b1, b2, b3 := bp[0], bp[1], bp[2], bp[3]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
		c20 += a2 * b0
		c21 += a2 * b1
		c22 += a2 * b2
		c23 += a2 * b3
		c30 += a3 * b0
		c31 += a3 * b1
		c32 += a3 * b2
		c33 += a3 * b3
		ia += aStep
		ib += bStep
	}
	acc[0], acc[1], acc[2], acc[3] = c00, c01, c02, c03
	acc[4], acc[5], acc[6], acc[7] = c10, c11, c12, c13
	acc[8], acc[9], acc[10], acc[11] = c20, c21, c22, c23
	acc[12], acc[13], acc[14], acc[15] = c30, c31, c32, c33
}

// gemmStore writes one micro-tile back with the alpha/beta combination,
// masking the zero-padded edge rows/columns. nr is the tile's row stride in
// acc; mr bounds the row count; c starts at the tile's first column (row 0).
func gemmStore(acc *[gemmMaxMR * gemmMaxNR]float64, nr, i0, j0, mr, m, n int, alpha, beta float64, c []float64, ldc int) {
	rows := m - i0
	if rows > mr {
		rows = mr
	}
	cols := n - j0
	if cols > nr {
		cols = nr
	}
	// alpha==1 specializations skip arithmetic that rounds identically
	// anyway (1·v and 1·x are exact), turning the hot forward store
	// (beta==0) into a memmove and the gradient-accumulate store (beta==1)
	// into a plain add. The generic path below computes the same values.
	if alpha == 1 {
		for r := 0; r < rows; r++ {
			crow := c[(i0+r)*ldc : (i0+r)*ldc+cols]
			arow := acc[r*nr : r*nr+cols]
			switch {
			case beta == 0 && cols == 8:
				crow[0], crow[1], crow[2], crow[3] = arow[0], arow[1], arow[2], arow[3]
				crow[4], crow[5], crow[6], crow[7] = arow[4], arow[5], arow[6], arow[7]
			case beta == 0:
				copy(crow, arow)
			case beta == 1 && cols == 8:
				crow[0] += arow[0]
				crow[1] += arow[1]
				crow[2] += arow[2]
				crow[3] += arow[3]
				crow[4] += arow[4]
				crow[5] += arow[5]
				crow[6] += arow[6]
				crow[7] += arow[7]
			case beta == 1:
				for j, v := range arow {
					crow[j] += v
				}
			default:
				for j, v := range arow {
					crow[j] = v + beta*crow[j]
				}
			}
		}
		return
	}
	for r := 0; r < rows; r++ {
		crow := c[(i0+r)*ldc : (i0+r)*ldc+cols]
		arow := acc[r*nr : r*nr+cols]
		if beta == 0 {
			for j, v := range arow {
				crow[j] = alpha * v
			}
		} else {
			for j, v := range arow {
				crow[j] = alpha*v + beta*crow[j]
			}
		}
	}
}

// growFloats returns a length-n slice backed by buf when it is large enough,
// allocating only on growth. Contents are unspecified.
func growFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}
