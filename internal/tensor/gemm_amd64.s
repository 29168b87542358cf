//go:build amd64 && !noasm

#include "textflag.h"

// AVX2 micro-kernels. All keep the package's determinism contract: every
// output element is one accumulator walking k in ascending order, and every
// step is a separate multiply then add (VMULP*/VADDP*, never VFMADD — a
// fused multiply-add rounds once where the pure-Go reference rounds twice).
// Vectorization is only across independent output columns, which does not
// reorder any element's operation sequence, so the results are bit-identical
// to the go-4x4 fallback kernel at every shape.

// STORE4 writes the four accumulated rows Y0..Y7 (row r in Y(2r), Y(2r+1))
// to DI, DI+R14, DI+2·R14 and DI+3·R14 — first adding what is there when
// add+64(FP) is set, the accumulator as the first operand as in gemmStore's
// Go loop — and leaves DI at row four.
#define STORE4(lbl) \
	LEAQ    (DI)(R14*2), R9; \
	CMPQ    add+64(FP), $0; \
	JEQ     lbl; \
	VADDPD  (DI), Y0, Y0; \
	VADDPD  32(DI), Y1, Y1; \
	VADDPD  (DI)(R14*1), Y2, Y2; \
	VADDPD  32(DI)(R14*1), Y3, Y3; \
	VADDPD  (R9), Y4, Y4; \
	VADDPD  32(R9), Y5, Y5; \
	VADDPD  (R9)(R14*1), Y6, Y6; \
	VADDPD  32(R9)(R14*1), Y7, Y7; \
lbl:; \
	VMOVUPD Y0, (DI); \
	VMOVUPD Y1, 32(DI); \
	VMOVUPD Y2, (DI)(R14*1); \
	VMOVUPD Y3, 32(DI)(R14*1); \
	VMOVUPD Y4, (R9); \
	VMOVUPD Y5, 32(R9); \
	VMOVUPD Y6, (R9)(R14*1); \
	VMOVUPD Y7, 32(R9)(R14*1); \
	LEAQ    (DI)(R14*4), DI

// func gemmMicroAVX2F64(k int, a *float64, aRow, aStep int, b *float64, bStep int, dst *float64, ld, add int)
//
// 8×8 float64 register tile computed as two 4×8 halves. Step p reads row r's
// A value at a + r*aRow + p*aStep and the eight B values at b + p*bStep
// (strides in bytes), so the same code walks a packed panel or the caller's
// matrix. Each half holds 8 ymm accumulators: rows r=0..3 (or 4..7), with
// Y(2r) = cols 0..3 and Y(2r+1) = cols 4..7. Row r of the tile is stored at
// dst + r*ld (bytes): the caller's acc scratch, or C itself for a whole tile.
TEXT ·gemmMicroAVX2F64(SB), NOSPLIT, $0-72
	MOVQ k+0(FP), CX
	MOVQ a+8(FP), AX
	MOVQ aRow+16(FP), R10
	MOVQ aStep+24(FP), SI
	MOVQ b+32(FP), BX
	MOVQ bStep+40(FP), R13
	MOVQ dst+48(FP), DI
	MOVQ ld+56(FP), R14
	LEAQ (R10)(R10*1), R11  // 2*aRow
	LEAQ (R11)(R10*1), R12  // 3*aRow

	// ---- rows 0..3 ----
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

	MOVQ AX, R8
	MOVQ BX, R9
	MOVQ CX, DX

f64lo:
	VMOVUPD (R9), Y8        // b[0:4]
	VMOVUPD 32(R9), Y9      // b[4:8]

	VBROADCASTSD (R8), Y10  // a[row0]
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y0, Y0
	VMULPD       Y9, Y10, Y11
	VADDPD       Y11, Y1, Y1

	VBROADCASTSD (R8)(R10*1), Y10 // a[row1]
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y2, Y2
	VMULPD       Y9, Y10, Y11
	VADDPD       Y11, Y3, Y3

	VBROADCASTSD (R8)(R11*1), Y10 // a[row2]
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y4, Y4
	VMULPD       Y9, Y10, Y11
	VADDPD       Y11, Y5, Y5

	VBROADCASTSD (R8)(R12*1), Y10 // a[row3]
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y6, Y6
	VMULPD       Y9, Y10, Y11
	VADDPD       Y11, Y7, Y7

	ADDQ SI, R8
	ADDQ R13, R9
	DECQ DX
	JNZ  f64lo

	STORE4(f64loStore)

	// ---- rows 4..7 ----
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

	LEAQ (AX)(R10*4), R8
	MOVQ BX, R9
	MOVQ CX, DX

f64hi:
	VMOVUPD (R9), Y8
	VMOVUPD 32(R9), Y9

	VBROADCASTSD (R8), Y10  // a[row4]
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y0, Y0
	VMULPD       Y9, Y10, Y11
	VADDPD       Y11, Y1, Y1

	VBROADCASTSD (R8)(R10*1), Y10 // a[row5]
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y2, Y2
	VMULPD       Y9, Y10, Y11
	VADDPD       Y11, Y3, Y3

	VBROADCASTSD (R8)(R11*1), Y10 // a[row6]
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y4, Y4
	VMULPD       Y9, Y10, Y11
	VADDPD       Y11, Y5, Y5

	VBROADCASTSD (R8)(R12*1), Y10 // a[row7]
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y6, Y6
	VMULPD       Y9, Y10, Y11
	VADDPD       Y11, Y7, Y7

	ADDQ SI, R8
	ADDQ R13, R9
	DECQ DX
	JNZ  f64hi

	STORE4(f64hiStore)

	VZEROUPPER
	RET

// func gemmMicroAVX2F64x4(k int, a *float64, aRow, aStep int, b *float64, bStep int, dst *float64, ld, add int)
//
// 4×8 float64 register tile — the short-m variant (one strip of a stem or
// linear layer is often 4 rows or fewer, where an 8-row tile would waste
// half its work on padding). Same operand addressing and the same stores as
// the 8×8 kernel's first half.
TEXT ·gemmMicroAVX2F64x4(SB), NOSPLIT, $0-72
	MOVQ k+0(FP), CX
	MOVQ a+8(FP), AX
	MOVQ aRow+16(FP), R10
	MOVQ aStep+24(FP), SI
	MOVQ b+32(FP), BX
	MOVQ bStep+40(FP), R13
	MOVQ dst+48(FP), DI
	MOVQ ld+56(FP), R14
	LEAQ (R10)(R10*1), R11  // 2*aRow
	LEAQ (R11)(R10*1), R12  // 3*aRow

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

f64x4:
	VMOVUPD (BX), Y8        // b[0:4]
	VMOVUPD 32(BX), Y9      // b[4:8]

	VBROADCASTSD (AX), Y10  // a[row0]
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y0, Y0
	VMULPD       Y9, Y10, Y11
	VADDPD       Y11, Y1, Y1

	VBROADCASTSD (AX)(R10*1), Y10 // a[row1]
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y2, Y2
	VMULPD       Y9, Y10, Y11
	VADDPD       Y11, Y3, Y3

	VBROADCASTSD (AX)(R11*1), Y10 // a[row2]
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y4, Y4
	VMULPD       Y9, Y10, Y11
	VADDPD       Y11, Y5, Y5

	VBROADCASTSD (AX)(R12*1), Y10 // a[row3]
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y6, Y6
	VMULPD       Y9, Y10, Y11
	VADDPD       Y11, Y7, Y7

	ADDQ SI, AX
	ADDQ R13, BX
	DECQ CX
	JNZ  f64x4

	STORE4(f64x4Store)

	VZEROUPPER
	RET

// func gemmMicroAVX2F64x6(k int, a *float64, aRow, aStep int, b *float64, bStep int, dst *float64, ld, add int)
//
// 6×8 float64 register tile in one pass, the classic Haswell dgemm shape:
// 12 ymm accumulators (row r in Y(2r), Y(2r+1)), two for the B row, one for
// the broadcast A value and one for the product. It serves problems whose row
// count is a multiple of 6 but not of 8, which the 8×8 kernel would pad,
// pack and store through the scalar edge path. Same operand addressing and
// the same stores as the 8×8 kernel.
TEXT ·gemmMicroAVX2F64x6(SB), NOSPLIT, $0-72
	MOVQ k+0(FP), CX
	MOVQ a+8(FP), AX
	MOVQ aRow+16(FP), R10
	MOVQ aStep+24(FP), SI
	MOVQ b+32(FP), BX
	MOVQ bStep+40(FP), R13
	MOVQ dst+48(FP), DI
	MOVQ ld+56(FP), R14
	LEAQ (R10)(R10*1), R11  // 2*aRow
	LEAQ (R11)(R10*1), R12  // 3*aRow
	LEAQ (R10)(R10*4), R8   // 5*aRow

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11

f64x6:
	VMOVUPD (BX), Y12       // b[0:4]
	VMOVUPD 32(BX), Y13     // b[4:8]

	VBROADCASTSD (AX), Y14  // a[row0]
	VMULPD       Y12, Y14, Y15
	VADDPD       Y15, Y0, Y0
	VMULPD       Y13, Y14, Y15
	VADDPD       Y15, Y1, Y1

	VBROADCASTSD (AX)(R10*1), Y14 // a[row1]
	VMULPD       Y12, Y14, Y15
	VADDPD       Y15, Y2, Y2
	VMULPD       Y13, Y14, Y15
	VADDPD       Y15, Y3, Y3

	VBROADCASTSD (AX)(R11*1), Y14 // a[row2]
	VMULPD       Y12, Y14, Y15
	VADDPD       Y15, Y4, Y4
	VMULPD       Y13, Y14, Y15
	VADDPD       Y15, Y5, Y5

	VBROADCASTSD (AX)(R12*1), Y14 // a[row3]
	VMULPD       Y12, Y14, Y15
	VADDPD       Y15, Y6, Y6
	VMULPD       Y13, Y14, Y15
	VADDPD       Y15, Y7, Y7

	VBROADCASTSD (AX)(R10*4), Y14 // a[row4]
	VMULPD       Y12, Y14, Y15
	VADDPD       Y15, Y8, Y8
	VMULPD       Y13, Y14, Y15
	VADDPD       Y15, Y9, Y9

	VBROADCASTSD (AX)(R8*1), Y14 // a[row5]
	VMULPD       Y12, Y14, Y15
	VADDPD       Y15, Y10, Y10
	VMULPD       Y13, Y14, Y15
	VADDPD       Y15, Y11, Y11

	ADDQ SI, AX
	ADDQ R13, BX
	DECQ CX
	JNZ  f64x6

	STORE4(f64x6Store)

	// Rows 4 and 5 (STORE4 left DI at row 4).
	CMPQ    add+64(FP), $0
	JEQ     f64x6Store45
	VADDPD  (DI), Y8, Y8
	VADDPD  32(DI), Y9, Y9
	VADDPD  (DI)(R14*1), Y10, Y10
	VADDPD  32(DI)(R14*1), Y11, Y11

f64x6Store45:
	VMOVUPD Y8, (DI)
	VMOVUPD Y9, 32(DI)
	VMOVUPD Y10, (DI)(R14*1)
	VMOVUPD Y11, 32(DI)(R14*1)

	VZEROUPPER
	RET

// func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidex(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
//
// Reads XCR0. Only called after CPUID has confirmed OSXSAVE, so the
// instruction cannot fault.
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
