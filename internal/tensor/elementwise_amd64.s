//go:build amd64 && !noasm

#include "textflag.h"

// AVX2 element-wise kernels (see elementwise.go for the contract). Every
// instruction is VEX-encoded, scalar tails included: a legacy-SSE instruction
// after a 256-bit one stalls on the upper-state transition (a plane call went
// from 25 to 213 ns with one MOVSD). Scalar arguments are broadcast straight
// from the frame. Multiply and add stay separate instructions. Where both
// operands of an operation are NaN, x86 returns the first one's payload, so
// each operation takes its operands in the order the compiled Go reference
// does — the accumulator before the value in AddTo (dst + v), the product
// before the accumulator in the add-into forms (m·g + dst, … + beta + dst),
// the product before the per-channel constant (xh·gamma, (…)·scale), the
// mask before the gradient (m·g); TestElementwiseVariantsBitIdentical and
// TestBatchNormKernelsBitIdentical check it where NaN payloads meet.
// VCMPPD predicate 0x1E is GT_OQ: false for NaN and for ±0 against 0.

// ONE sets r to four copies of 1.0 (bits 0x3FF0000000000000) without
// touching memory.
#define ONE(r) \
	VPCMPEQQ r, r, r; \
	VPSRLQ   $54, r, r; \
	VPSLLQ   $52, r, r

// func reluAVX2(dst, src *float64, n int)
TEXT ·reluAVX2(SB), NOSPLIT, $0-24
	MOVQ   dst+0(FP), DI
	MOVQ   src+8(FP), SI
	MOVQ   n+16(FP), CX
	VXORPD Y0, Y0, Y0

relu8:
	CMPQ    CX, $8
	JL      relu4
	VMOVUPD (SI), Y1
	VMOVUPD 32(SI), Y2
	VCMPPD  $0x1e, Y0, Y1, Y3
	VCMPPD  $0x1e, Y0, Y2, Y4
	VANDPD  Y1, Y3, Y3
	VANDPD  Y2, Y4, Y4
	VMOVUPD Y3, (DI)
	VMOVUPD Y4, 32(DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	SUBQ    $8, CX
	JMP     relu8

relu4:
	CMPQ    CX, $4
	JL      relu1
	VMOVUPD (SI), Y1
	VCMPPD  $0x1e, Y0, Y1, Y3
	VANDPD  Y1, Y3, Y3
	VMOVUPD Y3, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $4, CX

relu1:
	TESTQ  CX, CX
	JZ     reluDone
	VMOVSD (SI), X1
	VCMPSD $0x1e, X0, X1, X3
	VANDPD X1, X3, X3
	VMOVSD X3, (DI)
	ADDQ   $8, SI
	ADDQ   $8, DI
	DECQ   CX
	JMP    relu1

reluDone:
	VZEROUPPER
	RET

// func reluGradAVX2(dst, gr, out *float64, n, add int)
//
// dst = gr·m (add: dst + gr·m) with m = 1.0 where out > 0, else +0.
TEXT ·reluGradAVX2(SB), NOSPLIT, $0-40
	MOVQ   dst+0(FP), DI
	MOVQ   gr+8(FP), SI
	MOVQ   out+16(FP), DX
	MOVQ   n+24(FP), CX
	MOVQ   add+32(FP), AX
	VXORPD Y0, Y0, Y0
	ONE(Y5)

rg4:
	CMPQ    CX, $4
	JL      rg1
	VMOVUPD (DX), Y1
	VCMPPD  $0x1e, Y0, Y1, Y1
	VANDPD  Y5, Y1, Y1
	VMULPD  (SI), Y1, Y2
	TESTQ   AX, AX
	JZ      rgStore4
	VADDPD  (DI), Y2, Y2

rgStore4:
	VMOVUPD Y2, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, DI
	SUBQ    $4, CX
	JMP     rg4

rg1:
	TESTQ  CX, CX
	JZ     rgDone
	VMOVSD (DX), X1
	VCMPSD $0x1e, X0, X1, X1
	VANDPD X5, X1, X1
	VMOVSD (SI), X2
	VMULSD X2, X1, X2
	TESTQ  AX, AX
	JZ     rgStore1
	VMOVSD (DI), X3
	VADDSD X3, X2, X2

rgStore1:
	VMOVSD X2, (DI)
	ADDQ   $8, SI
	ADDQ   $8, DX
	ADDQ   $8, DI
	DECQ   CX
	JMP    rg1

rgDone:
	VZEROUPPER
	RET

// func addToAVX2(dst, src *float64, n int)
TEXT ·addToAVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX

add8:
	CMPQ    CX, $8
	JL      add4
	VMOVUPD (DI), Y1
	VMOVUPD 32(DI), Y2
	VADDPD  (SI), Y1, Y1
	VADDPD  32(SI), Y2, Y2
	VMOVUPD Y1, (DI)
	VMOVUPD Y2, 32(DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	SUBQ    $8, CX
	JMP     add8

add4:
	CMPQ    CX, $4
	JL      add1
	VMOVUPD (DI), Y1
	VADDPD  (SI), Y1, Y1
	VMOVUPD Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $4, CX

add1:
	TESTQ  CX, CX
	JZ     addDone
	VMOVSD (DI), X1
	VMOVSD (SI), X2
	VADDSD X2, X1, X1
	VMOVSD X1, (DI)
	ADDQ   $8, SI
	ADDQ   $8, DI
	DECQ   CX
	JMP    add1

addDone:
	VZEROUPPER
	RET

// func scaleToAVX2(dst, src *float64, n int, c float64)
TEXT ·scaleToAVX2(SB), NOSPLIT, $0-32
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSD c+24(FP), Y0

scale4:
	CMPQ    CX, $4
	JL      scale1
	VMOVUPD (SI), Y1
	VMULPD  Y0, Y1, Y1
	VMOVUPD Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $4, CX
	JMP     scale4

scale1:
	TESTQ  CX, CX
	JZ     scaleDone
	VMOVSD (SI), X1
	VMULSD X0, X1, X1
	VMOVSD X1, (DI)
	ADDQ   $8, SI
	ADDQ   $8, DI
	DECQ   CX
	JMP    scale1

scaleDone:
	VZEROUPPER
	RET

// func bnNormalizeAVX2(out, xh, x *float64, planes, hw, stride int, mean, inv, gamma, beta float64, add int)
//
// Per element: xh = (x - mean)·inv; out = gamma·xh + beta (add: out + that).
TEXT ·bnNormalizeAVX2(SB), NOSPLIT, $0-88
	MOVQ         out+0(FP), R10
	MOVQ         xh+8(FP), R11
	MOVQ         x+16(FP), R12
	MOVQ         planes+24(FP), BX
	MOVQ         hw+32(FP), R9
	MOVQ         stride+40(FP), R8
	SHLQ         $3, R8
	VBROADCASTSD mean+48(FP), Y10
	VBROADCASTSD inv+56(FP), Y11
	VBROADCASTSD gamma+64(FP), Y12
	VBROADCASTSD beta+72(FP), Y13
	MOVQ         add+80(FP), AX

bnPlane:
	MOVQ R10, DI
	MOVQ R11, SI
	MOVQ R12, DX
	MOVQ R9, CX

bn4:
	CMPQ    CX, $4
	JL      bn1
	VMOVUPD (DX), Y1
	VSUBPD  Y10, Y1, Y1
	VMULPD  Y11, Y1, Y1
	VMOVUPD Y1, (SI)
	VMULPD  Y12, Y1, Y2
	VADDPD  Y13, Y2, Y2
	TESTQ   AX, AX
	JZ      bnStore4
	VADDPD  (DI), Y2, Y2

bnStore4:
	VMOVUPD Y2, (DI)
	ADDQ    $32, DX
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $4, CX
	JMP     bn4

bn1:
	TESTQ  CX, CX
	JZ     bnNext
	VMOVSD (DX), X1
	VSUBSD X10, X1, X1
	VMULSD X11, X1, X1
	VMOVSD X1, (SI)
	VMULSD X12, X1, X2
	VADDSD X13, X2, X2
	TESTQ  AX, AX
	JZ     bnStore1
	VMOVSD (DI), X3
	VADDSD X3, X2, X2

bnStore1:
	VMOVSD X2, (DI)
	ADDQ   $8, DX
	ADDQ   $8, SI
	ADDQ   $8, DI
	DECQ   CX
	JMP    bn1

bnNext:
	ADDQ R8, R10
	ADDQ R8, R11
	ADDQ R8, R12
	DECQ BX
	JNZ  bnPlane

	VZEROUPPER
	RET

// func bnBackwardAVX2(gx, dy, xh *float64, planes, hw, stride int, scale, meanDy, meanDyXHat float64)
//
// Per element: gx = scale·((dy - meanDy) - xh·meanDyXHat).
TEXT ·bnBackwardAVX2(SB), NOSPLIT, $0-72
	MOVQ         gx+0(FP), R10
	MOVQ         dy+8(FP), R11
	MOVQ         xh+16(FP), R12
	MOVQ         planes+24(FP), BX
	MOVQ         hw+32(FP), R9
	MOVQ         stride+40(FP), R8
	SHLQ         $3, R8
	VBROADCASTSD scale+48(FP), Y10
	VBROADCASTSD meanDy+56(FP), Y11
	VBROADCASTSD meanDyXHat+64(FP), Y12

bbPlane:
	MOVQ R10, DI
	MOVQ R11, SI
	MOVQ R12, DX
	MOVQ R9, CX

bb4:
	CMPQ    CX, $4
	JL      bb1
	VMOVUPD (SI), Y1
	VSUBPD  Y11, Y1, Y1
	VMOVUPD (DX), Y2
	VMULPD  Y12, Y2, Y2
	VSUBPD  Y2, Y1, Y1
	VMULPD  Y10, Y1, Y1
	VMOVUPD Y1, (DI)
	ADDQ    $32, DX
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $4, CX
	JMP     bb4

bb1:
	TESTQ  CX, CX
	JZ     bbNext
	VMOVSD (SI), X1
	VSUBSD X11, X1, X1
	VMOVSD (DX), X2
	VMULSD X12, X2, X2
	VSUBSD X2, X1, X1
	VMULSD X10, X1, X1
	VMOVSD X1, (DI)
	ADDQ   $8, DX
	ADDQ   $8, SI
	ADDQ   $8, DI
	DECQ   CX
	JMP    bb1

bbNext:
	ADDQ R8, R10
	ADDQ R8, R11
	ADDQ R8, R12
	DECQ BX
	JNZ  bbPlane

	VZEROUPPER
	RET
