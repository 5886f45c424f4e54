#include "textflag.h"

// func gemm4x8(c *float64, ldc int, a *float64, lda int, b *float64, ldb int, kc int, nc int)
//
// Register use: DI walks C row 0 eight columns at a time, with R8/BX the
// byte offsets of C rows 1..3 (R8*2 reaches row 2). SI is A row 0 at the
// k-tile start, R9/R13 the offsets of A rows 1..3, R11 the end of the A
// k-tile. DX walks B row kk eight columns at a time, R10 is the B row
// stride. AX/CX are the per-p A and B cursors, R12 counts column blocks.
// Y0..Y7 hold the 4×8 C tile, Y8/Y9 the B row slice, Y10/Y13 the
// broadcast A values, Y11/Y12/Y14/Y15 the products.
TEXT ·gemm4x8(SB), NOSPLIT, $0-64
	MOVQ c+0(FP), DI
	MOVQ ldc+8(FP), R8
	SHLQ $3, R8
	LEAQ (R8)(R8*2), BX
	MOVQ a+16(FP), SI
	MOVQ lda+24(FP), R9
	SHLQ $3, R9
	LEAQ (R9)(R9*2), R13
	MOVQ b+32(FP), DX
	MOVQ ldb+40(FP), R10
	SHLQ $3, R10
	MOVQ kc+48(FP), R11
	LEAQ (SI)(R11*8), R11
	MOVQ nc+56(FP), R12
	SHRQ $3, R12

col:
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD (DI)(R8*1), Y2
	VMOVUPD 32(DI)(R8*1), Y3
	VMOVUPD (DI)(R8*2), Y4
	VMOVUPD 32(DI)(R8*2), Y5
	VMOVUPD (DI)(BX*1), Y6
	VMOVUPD 32(DI)(BX*1), Y7
	MOVQ    SI, AX
	MOVQ    DX, CX

k:
	VMOVUPD      (CX), Y8
	VMOVUPD      32(CX), Y9
	VBROADCASTSD (AX), Y10
	VBROADCASTSD (AX)(R9*1), Y13
	VMULPD       Y8, Y10, Y11
	VMULPD       Y9, Y10, Y12
	VMULPD       Y8, Y13, Y14
	VMULPD       Y9, Y13, Y15
	VADDPD       Y11, Y0, Y0
	VADDPD       Y12, Y1, Y1
	VADDPD       Y14, Y2, Y2
	VADDPD       Y15, Y3, Y3
	VBROADCASTSD (AX)(R9*2), Y10
	VBROADCASTSD (AX)(R13*1), Y13
	VMULPD       Y8, Y10, Y11
	VMULPD       Y9, Y10, Y12
	VMULPD       Y8, Y13, Y14
	VMULPD       Y9, Y13, Y15
	VADDPD       Y11, Y4, Y4
	VADDPD       Y12, Y5, Y5
	VADDPD       Y14, Y6, Y6
	VADDPD       Y15, Y7, Y7
	ADDQ         $8, AX
	ADDQ         R10, CX
	CMPQ         AX, R11
	JNE          k

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, (DI)(R8*1)
	VMOVUPD Y3, 32(DI)(R8*1)
	VMOVUPD Y4, (DI)(R8*2)
	VMOVUPD Y5, 32(DI)(R8*2)
	VMOVUPD Y6, (DI)(BX*1)
	VMOVUPD Y7, 32(DI)(BX*1)
	ADDQ    $64, DI
	ADDQ    $64, DX
	DECQ    R12
	JNZ     col

	VZEROUPPER
	RET

// func cpuHasAVX() bool
//
// CPUID.1:ECX must report AVX (bit 28) and OSXSAVE (bit 27), and XCR0 must
// show the OS saves both SSE and AVX state (bits 1 and 2).
TEXT ·cpuHasAVX(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET
