//go:build amd64 && !purego

#include "textflag.h"

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// The 6×16 tile lives in Y0..Y11: row r is (Y[2r], Y[2r+1]). One k step
// loads the panel row into Y12/Y13 and, per tile row, broadcasts A[r][k]
// into Y14 or Y15 and issues two FMAs: 12 FMAs against 8 loads, so the loop
// is bound by the two FMA ports, not the load ports.
//
// R8..R13 point at the six A rows; AX indexes k, BX walks the panel.
#define KSTEP(off4, off64) \
	VMOVUPS      off64(BX), Y12; \
	VMOVUPS      (off64+32)(BX), Y13; \
	VBROADCASTSS off4(R8)(AX*4), Y14; \
	VBROADCASTSS off4(R9)(AX*4), Y15; \
	VFMADD231PS  Y12, Y14, Y0; \
	VFMADD231PS  Y13, Y14, Y1; \
	VBROADCASTSS off4(R10)(AX*4), Y14; \
	VFMADD231PS  Y12, Y15, Y2; \
	VFMADD231PS  Y13, Y15, Y3; \
	VBROADCASTSS off4(R11)(AX*4), Y15; \
	VFMADD231PS  Y12, Y14, Y4; \
	VFMADD231PS  Y13, Y14, Y5; \
	VBROADCASTSS off4(R12)(AX*4), Y14; \
	VFMADD231PS  Y12, Y15, Y6; \
	VFMADD231PS  Y13, Y15, Y7; \
	VBROADCASTSS off4(R13)(AX*4), Y15; \
	VFMADD231PS  Y12, Y14, Y8; \
	VFMADD231PS  Y13, Y14, Y9; \
	VFMADD231PS  Y12, Y15, Y10; \
	VFMADD231PS  Y13, Y15, Y11

// NEXTROW advances the A row pointer: the stride in SI drops to zero (DI)
// once the row index reaches m, so rows past the tile's last valid row alias
// it — they are computed but never stored, and never read outside A.
#define NEXTROW(prev, next, idx) \
	MOVQ    prev, next; \
	CMPQ    DX, $idx; \
	CMOVQLE DI, SI; \
	ADDQ    SI, next

// Epilogue rows. DI walks C by SI bytes per row, DX counts valid rows down;
// every row macro leaves through done when the last valid row is stored.
#define ROWEND \
	ADDQ SI, DI; \
	DECQ DX; \
	JZ   done

#define ACCROW(lo, hi) \
	VADDPS  (DI), lo, lo; \
	VADDPS  32(DI), hi, hi; \
	VMOVUPS lo, (DI); \
	VMOVUPS hi, 32(DI); \
	ROWEND

#define STOREROW(lo, hi) \
	VMOVUPS lo, (DI); \
	VMOVUPS hi, 32(DI); \
	ROWEND

// Masked forms for tiles with fewer than 16 columns: Y14/Y15 hold the lane
// masks, masked-off lanes are neither read nor written.
#define ACCROWM(lo, hi) \
	VMASKMOVPS (DI), Y14, Y12; \
	VMASKMOVPS 32(DI), Y15, Y13; \
	VADDPS     Y12, lo, lo; \
	VADDPS     Y13, hi, hi; \
	VMASKMOVPS lo, Y14, (DI); \
	VMASKMOVPS hi, Y15, 32(DI); \
	ROWEND

#define STOREROWM(lo, hi) \
	VMASKMOVPS lo, Y14, (DI); \
	VMASKMOVPS hi, Y15, 32(DI); \
	ROWEND

#define ALLROWS(ROW) \
	ROW(Y0, Y1); \
	ROW(Y2, Y3); \
	ROW(Y4, Y5); \
	ROW(Y6, Y7); \
	ROW(Y8, Y9); \
	ROW(Y10, Y11)

// ADDBIAS adds the bias vectors in Y12/Y13 to every row; RELU clamps every
// row at the zero in Y12. VMAXPS returns its second source when an operand is
// NaN, so the accumulator goes second and a NaN survives as it does in
// blas.ReLU.
#define ADDBIAS \
	VADDPS Y12, Y0, Y0; \
	VADDPS Y13, Y1, Y1; \
	VADDPS Y12, Y2, Y2; \
	VADDPS Y13, Y3, Y3; \
	VADDPS Y12, Y4, Y4; \
	VADDPS Y13, Y5, Y5; \
	VADDPS Y12, Y6, Y6; \
	VADDPS Y13, Y7, Y7; \
	VADDPS Y12, Y8, Y8; \
	VADDPS Y13, Y9, Y9; \
	VADDPS Y12, Y10, Y10; \
	VADDPS Y13, Y11, Y11

#define RELU \
	VXORPS Y12, Y12, Y12; \
	VMAXPS Y0, Y12, Y0; \
	VMAXPS Y1, Y12, Y1; \
	VMAXPS Y2, Y12, Y2; \
	VMAXPS Y3, Y12, Y3; \
	VMAXPS Y4, Y12, Y4; \
	VMAXPS Y5, Y12, Y5; \
	VMAXPS Y6, Y12, Y6; \
	VMAXPS Y7, Y12, Y7; \
	VMAXPS Y8, Y12, Y8; \
	VMAXPS Y9, Y12, Y9; \
	VMAXPS Y10, Y12, Y10; \
	VMAXPS Y11, Y12, Y11

// func kernelAVX2(k int, a []float32, lda int, panel []float32, c []float32, ldc int, m, n int, bias []float32, mode int)
TEXT ·kernelAVX2(SB), NOSPLIT, $0-144
	MOVQ k+0(FP), CX
	MOVQ a_base+8(FP), R8
	MOVQ lda+32(FP), SI
	MOVQ panel_base+40(FP), BX
	MOVQ m+96(FP), DX
	SHLQ $2, SI
	XORQ DI, DI
	NEXTROW(R8, R9, 1)
	NEXTROW(R9, R10, 2)
	NEXTROW(R10, R11, 3)
	NEXTROW(R11, R12, 4)
	NEXTROW(R12, R13, 5)

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	VXORPS Y8, Y8, Y8
	VXORPS Y9, Y9, Y9
	VXORPS Y10, Y10, Y10
	VXORPS Y11, Y11, Y11

	XORQ AX, AX
	MOVQ CX, SI
	ANDQ $-4, SI
	JZ   ktail

	// The loop's speed must not depend on where the linker puts the kernel.
	PCALIGN $32

kloop4:
	KSTEP(0, 0)
	KSTEP(4, 64)
	KSTEP(8, 128)
	KSTEP(12, 192)
	ADDQ $4, AX
	ADDQ $256, BX
	CMPQ AX, SI
	JLT  kloop4

ktail:
	CMPQ AX, CX
	JGE  epilogue

kloop1:
	KSTEP(0, 0)
	ADDQ $1, AX
	ADDQ $64, BX
	CMPQ AX, CX
	JLT  kloop1

epilogue:
	MOVQ c_base+64(FP), DI
	MOVQ ldc+88(FP), SI
	MOVQ n+104(FP), CX
	MOVQ mode+136(FP), AX
	MOVQ bias_base+112(FP), BX
	SHLQ $2, SI
	CMPQ CX, $16
	JNE  masked

	TESTQ AX, AX
	JNZ   bias
	ALLROWS(ACCROW)
	JMP done

bias:
	VMOVUPS (BX), Y12
	VMOVUPS 32(BX), Y13
	ADDBIAS
	CMPQ AX, $2
	JNE  store
	RELU

store:
	ALLROWS(STOREROW)
	JMP done

masked:
	LEAQ    ·colMask(SB), R8
	MOVQ    $16, R9
	SUBQ    CX, R9
	VMOVDQU (R8)(R9*4), Y14
	VMOVDQU 32(R8)(R9*4), Y15
	TESTQ   AX, AX
	JNZ     biasm
	ALLROWS(ACCROWM)
	JMP done

biasm:
	VMASKMOVPS (BX), Y14, Y12
	VMASKMOVPS 32(BX), Y15, Y13
	ADDBIAS
	CMPQ AX, $2
	JNE  storem
	RELU

storem:
	ALLROWS(STOREROWM)

done:
	VZEROUPPER
	RET

// The AVX-512 kernel computes a 6×32 tile over two adjacent panels with the
// AVX2 kernel's structure at twice the width: row r is (Z[2r], Z[2r+1]),
// columns 0–15 from panel p and 16–31 from panel p+1, which starts k·64 bytes
// after panel p (R14). Every lane sees the same operations in the same order
// as in kernelAVX2, so the two kernels agree bit for bit.
#define ZSTEP(off4, off64) \
	VMOVUPS      off64(BX), Z12; \
	VMOVUPS      off64(BX)(R14*1), Z13; \
	VBROADCASTSS off4(R8)(AX*4), Z14; \
	VBROADCASTSS off4(R9)(AX*4), Z15; \
	VFMADD231PS  Z12, Z14, Z0; \
	VFMADD231PS  Z13, Z14, Z1; \
	VBROADCASTSS off4(R10)(AX*4), Z14; \
	VFMADD231PS  Z12, Z15, Z2; \
	VFMADD231PS  Z13, Z15, Z3; \
	VBROADCASTSS off4(R11)(AX*4), Z15; \
	VFMADD231PS  Z12, Z14, Z4; \
	VFMADD231PS  Z13, Z14, Z5; \
	VBROADCASTSS off4(R12)(AX*4), Z14; \
	VFMADD231PS  Z12, Z15, Z6; \
	VFMADD231PS  Z13, Z15, Z7; \
	VBROADCASTSS off4(R13)(AX*4), Z15; \
	VFMADD231PS  Z12, Z14, Z8; \
	VFMADD231PS  Z13, Z14, Z9; \
	VFMADD231PS  Z12, Z15, Z10; \
	VFMADD231PS  Z13, Z15, Z11

// The upper half of a row goes through K1, which holds the upper panel's
// valid lanes (all sixteen for a full tile): masked-off lanes of C are
// neither read nor written.
#define ZACCROW(lo, hi) \
	VADDPS  (DI), lo, lo; \
	VADDPS  64(DI), hi, K1, hi; \
	VMOVUPS lo, (DI); \
	VMOVUPS hi, K1, 64(DI); \
	ROWEND

#define ZSTOREROW(lo, hi) \
	VMOVUPS lo, (DI); \
	VMOVUPS hi, K1, 64(DI); \
	ROWEND

#define ZALLROWS(ROW) \
	ROW(Z0, Z1); \
	ROW(Z2, Z3); \
	ROW(Z4, Z5); \
	ROW(Z6, Z7); \
	ROW(Z8, Z9); \
	ROW(Z10, Z11)

#define ZADDBIAS \
	VADDPS Z12, Z0, Z0; \
	VADDPS Z13, Z1, Z1; \
	VADDPS Z12, Z2, Z2; \
	VADDPS Z13, Z3, Z3; \
	VADDPS Z12, Z4, Z4; \
	VADDPS Z13, Z5, Z5; \
	VADDPS Z12, Z6, Z6; \
	VADDPS Z13, Z7, Z7; \
	VADDPS Z12, Z8, Z8; \
	VADDPS Z13, Z9, Z9; \
	VADDPS Z12, Z10, Z10; \
	VADDPS Z13, Z11, Z11

#define ZRELU \
	VPXORD Z12, Z12, Z12; \
	VMAXPS Z0, Z12, Z0; \
	VMAXPS Z1, Z12, Z1; \
	VMAXPS Z2, Z12, Z2; \
	VMAXPS Z3, Z12, Z3; \
	VMAXPS Z4, Z12, Z4; \
	VMAXPS Z5, Z12, Z5; \
	VMAXPS Z6, Z12, Z6; \
	VMAXPS Z7, Z12, Z7; \
	VMAXPS Z8, Z12, Z8; \
	VMAXPS Z9, Z12, Z9; \
	VMAXPS Z10, Z12, Z10; \
	VMAXPS Z11, Z12, Z11

// func kernelAVX512(k int, a []float32, lda int, panel []float32, c []float32, ldc int, m, n int, bias []float32, mode int)
TEXT ·kernelAVX512(SB), NOSPLIT, $0-144
	MOVQ k+0(FP), CX
	MOVQ a_base+8(FP), R8
	MOVQ lda+32(FP), SI
	MOVQ panel_base+40(FP), BX
	MOVQ m+96(FP), DX
	SHLQ $2, SI
	XORQ DI, DI
	NEXTROW(R8, R9, 1)
	NEXTROW(R9, R10, 2)
	NEXTROW(R10, R11, 3)
	NEXTROW(R11, R12, 4)
	NEXTROW(R12, R13, 5)
	MOVQ CX, R14
	SHLQ $6, R14

	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7
	VPXORD Z8, Z8, Z8
	VPXORD Z9, Z9, Z9
	VPXORD Z10, Z10, Z10
	VPXORD Z11, Z11, Z11

	XORQ AX, AX
	MOVQ CX, SI
	ANDQ $-4, SI
	JZ   ktail

	PCALIGN $32

kloop4:
	ZSTEP(0, 0)
	ZSTEP(4, 64)
	ZSTEP(8, 128)
	ZSTEP(12, 192)
	ADDQ $4, AX
	ADDQ $256, BX
	CMPQ AX, SI
	JLT  kloop4

ktail:
	CMPQ AX, CX
	JGE  epilogue

kloop1:
	ZSTEP(0, 0)
	ADDQ $1, AX
	ADDQ $64, BX
	CMPQ AX, CX
	JLT  kloop1

epilogue:
	MOVQ c_base+64(FP), DI
	MOVQ ldc+88(FP), SI
	MOVQ n+104(FP), CX
	MOVQ mode+136(FP), AX
	MOVQ bias_base+112(FP), BX
	SHLQ $2, SI

	// K1 = (1 << (n-16)) - 1: the upper panel's valid lanes.
	SUBQ  $16, CX
	MOVL  $1, R9
	SHLL  CX, R9
	DECL  R9
	KMOVW R9, K1

	TESTQ AX, AX
	JNZ   bias
	ZALLROWS(ZACCROW)
	JMP done

bias:
	VMOVUPS   (BX), Z12
	VMOVUPS.Z 64(BX), K1, Z13
	ZADDBIAS
	CMPQ AX, $2
	JNE  store
	ZRELU

store:
	ZALLROWS(ZSTOREROW)

done:
	VZEROUPPER
	RET
