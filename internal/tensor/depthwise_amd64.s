//go:build amd64 && !noasm

#include "textflag.h"

// AVX2 depthwise kernels (see depthwise.go for the contract). Each ymm holds
// one pixel's (or one tap's) four channel lanes; four independent
// accumulators cover the 4-cycle VADDPD latency, so both kernels run at the
// adder's throughput. Multiply and add stay separate instructions: a fused
// multiply-add rounds once where the portable loops round twice.

// func dwTapsAVX2(out, src *float64, pix *int, nblk int, taps *int, ntaps int, w *float64)
//
// For each block of four pixels: Y0..Y3 accumulate the four pixels across
// all taps in table order, then store to out. R8..R11 hold the pixels'
// window origins; every tap is one offset (AX) applied to all four.
TEXT ·dwTapsAVX2(SB), NOSPLIT, $0-56
	MOVQ out+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ pix+16(FP), DX
	MOVQ nblk+24(FP), CX
	MOVQ ntaps+40(FP), R13
	MOVQ taps+32(FP), R12
	LEAQ (R12)(R13*8), R13  // end of the tap table

dwtBlock:
	MOVQ (DX), R8
	MOVQ 8(DX), R9
	MOVQ 16(DX), R10
	MOVQ 24(DX), R11
	LEAQ (SI)(R8*8), R8
	LEAQ (SI)(R9*8), R9
	LEAQ (SI)(R10*8), R10
	LEAQ (SI)(R11*8), R11
	MOVQ taps+32(FP), R12
	MOVQ w+48(FP), BX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3

dwtTap:
	MOVQ    (R12), AX
	VMOVUPD (BX), Y4
	VMULPD  (R8)(AX*8), Y4, Y5
	VADDPD  Y5, Y0, Y0
	VMULPD  (R9)(AX*8), Y4, Y6
	VADDPD  Y6, Y1, Y1
	VMULPD  (R10)(AX*8), Y4, Y7
	VADDPD  Y7, Y2, Y2
	VMULPD  (R11)(AX*8), Y4, Y8
	VADDPD  Y8, Y3, Y3
	ADDQ    $8, R12
	ADDQ    $32, BX
	CMPQ    R12, R13
	JNE     dwtTap

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $32, DX
	DECQ    CX
	JNZ     dwtBlock

	VZEROUPPER
	RET

// func dwGradWAVX2(gw, gr *float64, gpix *int, x *float64, xpix *int, npix int, taps *int, nblk int)
//
// For each block of four taps: Y0..Y3 accumulate the four taps' chains over
// all pixels in table order. R8..R11 hold the taps' offsets; every pixel is
// one gradient vector (Y4) and one window origin (AX) shared by all four.
TEXT ·dwGradWAVX2(SB), NOSPLIT, $0-64
	MOVQ gw+0(FP), DI
	MOVQ gr+8(FP), SI
	MOVQ x+24(FP), BX
	MOVQ taps+48(FP), R13

dwgBlock:
	MOVQ (R13), R8
	MOVQ 8(R13), R9
	MOVQ 16(R13), R10
	MOVQ 24(R13), R11
	MOVQ gpix+16(FP), DX
	MOVQ xpix+32(FP), R12
	MOVQ npix+40(FP), CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3

dwgPix:
	MOVQ    (DX), AX
	VMOVUPD (SI)(AX*8), Y4
	MOVQ    (R12), AX
	LEAQ    (BX)(AX*8), AX
	VMULPD  (AX)(R8*8), Y4, Y5
	VADDPD  Y5, Y0, Y0
	VMULPD  (AX)(R9*8), Y4, Y6
	VADDPD  Y6, Y1, Y1
	VMULPD  (AX)(R10*8), Y4, Y7
	VADDPD  Y7, Y2, Y2
	VMULPD  (AX)(R11*8), Y4, Y8
	VADDPD  Y8, Y3, Y3
	ADDQ    $8, DX
	ADDQ    $8, R12
	DECQ    CX
	JNZ     dwgPix

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $32, R13
	DECQ    nblk+56(FP)
	JNZ     dwgBlock

	VZEROUPPER
	RET

// TRANSPOSE4 turns Y0..Y3 (four rows of four doubles) into Y8..Y11 (the four
// columns), clobbering Y4..Y7.
#define TRANSPOSE4 \
	VUNPCKLPD  Y1, Y0, Y4      \
	VUNPCKHPD  Y1, Y0, Y5      \
	VUNPCKLPD  Y3, Y2, Y6      \
	VUNPCKHPD  Y3, Y2, Y7      \
	VPERM2F128 $0x20, Y6, Y4, Y8  \
	VPERM2F128 $0x20, Y7, Y5, Y9  \
	VPERM2F128 $0x31, Y6, Y4, Y10 \
	VPERM2F128 $0x31, Y7, Y5, Y11

// func dwInterleaveAVX2(dst *float64, rowStep, colStep int, src *float64, planeStep, rowLen, rows, nblk int)
//
// Steps are in bytes. For each of rows rows and nblk blocks of four columns:
// load the block from the four planes (planeStep apart), transpose, and store
// column c's lanes at dst + c*colStep. Rows advance dst by rowStep and the
// planes by rowLen.
TEXT ·dwInterleaveAVX2(SB), NOSPLIT, $0-64
	MOVQ dst+0(FP), DI
	MOVQ colStep+16(FP), R9
	MOVQ src+24(FP), SI
	MOVQ planeStep+32(FP), R10
	MOVQ rows+48(FP), CX
	LEAQ (R9)(R9*2), R11      // 3*colStep
	LEAQ (R10)(R10*2), R12    // 3*planeStep

dwiRow:
	MOVQ DI, AX
	MOVQ SI, BX
	MOVQ nblk+56(FP), DX

dwiBlock:
	VMOVUPD (BX), Y0
	VMOVUPD (BX)(R10*1), Y1
	VMOVUPD (BX)(R10*2), Y2
	VMOVUPD (BX)(R12*1), Y3
	TRANSPOSE4
	VMOVUPD Y8, (AX)
	VMOVUPD Y9, (AX)(R9*1)
	VMOVUPD Y10, (AX)(R9*2)
	VMOVUPD Y11, (AX)(R11*1)
	ADDQ    $32, BX
	LEAQ    (AX)(R9*4), AX
	DECQ    DX
	JNZ     dwiBlock

	ADDQ rowStep+8(FP), DI
	ADDQ rowLen+40(FP), SI
	DECQ CX
	JNZ  dwiRow

	VZEROUPPER
	RET

// func dwDeinterleaveAVX2(dst *float64, planeStep int, src *float64, nblk int)
//
// The way back over a contiguous pixel stream: each block of four pixels
// (16 doubles of src) becomes four doubles in each of the four planes.
TEXT ·dwDeinterleaveAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ planeStep+8(FP), R10
	MOVQ src+16(FP), SI
	MOVQ nblk+24(FP), CX
	LEAQ (R10)(R10*2), R12

dwdBlock:
	VMOVUPD (SI), Y0
	VMOVUPD 32(SI), Y1
	VMOVUPD 64(SI), Y2
	VMOVUPD 96(SI), Y3
	TRANSPOSE4
	VMOVUPD Y8, (DI)
	VMOVUPD Y9, (DI)(R10*1)
	VMOVUPD Y10, (DI)(R10*2)
	VMOVUPD Y11, (DI)(R12*1)
	ADDQ    $128, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     dwdBlock

	VZEROUPPER
	RET

// func dwMaxTapsAVX2(out *float64, at *int, src *float64, pix, pixAt *int, nblk int, taps, tapAt *int, ntaps int, lane *int)
//
// For each block of four pixels: Y0..Y3 hold the four pixels' running
// maxima and Y4..Y7 the tapAt entry of the tap that set each lane (-1 until
// one does). A tap's compare reads the maximum before VMAXPD updates it;
// VMAXPD returns its second source unless the first is strictly greater, so
// ties, NaNs and -Inf leave the maximum and its tap alone. Then a lane that
// no tap set stores +0 and -1, the others their maximum and
// lane + pixAt + tapAt.
TEXT ·dwMaxTapsAVX2(SB), NOSPLIT, $0-80
	MOVQ     out+0(FP), DI
	MOVQ     at+8(FP), R14
	MOVQ     src+16(FP), SI
	MOVQ     pix+24(FP), DX
	MOVQ     pixAt+32(FP), BX
	MOVQ     taps+48(FP), R13
	MOVQ     tapAt+56(FP), AX
	SUBQ     R13, AX                 // tapAt lies AX bytes past taps
	MOVQ     ntaps+64(FP), CX
	LEAQ     (R13)(CX*8), R13        // end of the tap table
	MOVQ     lane+72(FP), CX
	VMOVDQU  (CX), Y9
	VPCMPEQQ Y15, Y15, Y15           // -1 in every lane
	VPSLLQ   $52, Y15, Y8            // -Inf: 0xFFF0000000000000

dmtBlock:
	MOVQ    (DX), R8
	MOVQ    8(DX), R9
	MOVQ    16(DX), R10
	MOVQ    24(DX), R11
	LEAQ    (SI)(R8*8), R8
	LEAQ    (SI)(R9*8), R9
	LEAQ    (SI)(R10*8), R10
	LEAQ    (SI)(R11*8), R11
	MOVQ    taps+48(FP), R12
	VMOVAPD Y8, Y0
	VMOVAPD Y8, Y1
	VMOVAPD Y8, Y2
	VMOVAPD Y8, Y3
	VMOVDQA Y15, Y4
	VMOVDQA Y15, Y5
	VMOVDQA Y15, Y6
	VMOVDQA Y15, Y7

dmtTap:
	MOVQ         (R12), CX
	VPBROADCASTQ (R12)(AX*1), Y14
	VMOVUPD      (R8)(CX*8), Y12
	VCMPPD       $0x1e, Y0, Y12, Y13
	VMAXPD       Y0, Y12, Y0
	VBLENDVPD    Y13, Y14, Y4, Y4
	VMOVUPD      (R9)(CX*8), Y12
	VCMPPD       $0x1e, Y1, Y12, Y13
	VMAXPD       Y1, Y12, Y1
	VBLENDVPD    Y13, Y14, Y5, Y5
	VMOVUPD      (R10)(CX*8), Y12
	VCMPPD       $0x1e, Y2, Y12, Y13
	VMAXPD       Y2, Y12, Y2
	VBLENDVPD    Y13, Y14, Y6, Y6
	VMOVUPD      (R11)(CX*8), Y12
	VCMPPD       $0x1e, Y3, Y12, Y13
	VMAXPD       Y3, Y12, Y3
	VBLENDVPD    Y13, Y14, Y7, Y7
	ADDQ         $8, R12
	CMPQ         R12, R13
	JNE          dmtTap

// FINISH(k, best, tap) stores pixel k of the block.
#define FINISH(k, best, tap) \
	VPBROADCASTQ (k*8)(BX), Y12; \
	VPADDQ       Y9, Y12, Y12; \
	VPCMPEQQ     Y15, tap, Y13; \
	VPADDQ       Y12, tap, tap; \
	VPOR         Y13, tap, tap; \
	VANDNPD      best, Y13, best; \
	VMOVUPD      best, (k*32)(DI); \
	VMOVDQU      tap, (k*32)(R14)

	FINISH(0, Y0, Y4)
	FINISH(1, Y1, Y5)
	FINISH(2, Y2, Y6)
	FINISH(3, Y3, Y7)
	ADDQ $128, DI
	ADDQ $128, R14
	ADDQ $32, DX
	ADDQ $32, BX
	DECQ nblk+40(FP)
	JNZ  dmtBlock

	VZEROUPPER
	RET

// func dwGemmAccAVX2(acc, a *float64, aRow, aImg int, x *float64, n, nimg int)
//
// aRow and aImg are in bytes. Y0..Y3 carry the four rows' chains (lanes =
// the four columns) across every image; each position broadcasts the four
// rows' a values against one lane vector of x.
TEXT ·dwGemmAccAVX2(SB), NOSPLIT, $0-56
	MOVQ    acc+0(FP), DI
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	MOVQ    a+8(FP), SI
	MOVQ    aRow+16(FP), R8
	MOVQ    aImg+24(FP), R9
	MOVQ    x+32(FP), DX
	MOVQ    nimg+48(FP), BX
	LEAQ    (R8)(R8*2), R10 // 3*aRow

dgaImg:
	MOVQ SI, R11
	MOVQ n+40(FP), CX

dgaPix:
	VMOVUPD      (DX), Y4
	VBROADCASTSD (R11), Y5
	VMULPD       Y4, Y5, Y5
	VADDPD       Y5, Y0, Y0
	VBROADCASTSD (R11)(R8*1), Y6
	VMULPD       Y4, Y6, Y6
	VADDPD       Y6, Y1, Y1
	VBROADCASTSD (R11)(R8*2), Y7
	VMULPD       Y4, Y7, Y7
	VADDPD       Y7, Y2, Y2
	VBROADCASTSD (R11)(R10*1), Y8
	VMULPD       Y4, Y8, Y8
	VADDPD       Y8, Y3, Y3
	ADDQ         $8, R11
	ADDQ         $32, DX
	DECQ         CX
	JNZ          dgaPix

	ADDQ R9, SI
	DECQ BX
	JNZ  dgaImg

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VZEROUPPER
	RET
