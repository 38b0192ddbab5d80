#include "textflag.h"

// func aggIntervalAVX2(vals *uint64, n int, lo, width uint64) (misses, sum uint64)
//
// Eight values per iteration, as two vectors of four with their own
// accumulators. Per vector: d = v - lo; flipping the sign bit of d and of
// width turns the unsigned d > width into the signed compare VPCMPGTQ
// does, giving an all-ones mask per miss; subtracting the mask counts the
// miss, and VPANDN keeps v where the mask is clear for the sum.
TEXT ·aggIntervalAVX2(SB), NOSPLIT, $0-48
	MOVQ vals+0(FP), SI
	MOVQ n+8(FP), CX
	VPBROADCASTQ lo+16(FP), Y15
	MOVQ $0x8000000000000000, AX
	MOVQ AX, X13
	VPBROADCASTQ X13, Y13
	MOVQ width+24(FP), BX
	XORQ AX, BX
	MOVQ BX, X14
	VPBROADCASTQ X14, Y14
	VPXOR Y4, Y4, Y4
	VPXOR Y5, Y5, Y5
	VPXOR Y6, Y6, Y6
	VPXOR Y7, Y7, Y7
	SHRQ $3, CX
	JZ   reduce

loop:
	VMOVDQU (SI), Y0
	VMOVDQU 32(SI), Y1
	VPSUBQ Y15, Y0, Y2
	VPSUBQ Y15, Y1, Y3
	VPXOR Y13, Y2, Y2
	VPXOR Y13, Y3, Y3
	VPCMPGTQ Y14, Y2, Y2
	VPCMPGTQ Y14, Y3, Y3
	VPSUBQ Y2, Y4, Y4
	VPSUBQ Y3, Y5, Y5
	VPANDN Y0, Y2, Y2
	VPANDN Y1, Y3, Y3
	VPADDQ Y2, Y6, Y6
	VPADDQ Y3, Y7, Y7
	ADDQ $64, SI
	DECQ CX
	JNZ  loop

reduce:
	VPADDQ Y5, Y4, Y4
	VEXTRACTI128 $1, Y4, X5
	VPADDQ X5, X4, X4
	VPSHUFD $0x4e, X4, X5
	VPADDQ X5, X4, X4
	MOVQ X4, misses+32(FP)
	VPADDQ Y7, Y6, Y6
	VEXTRACTI128 $1, Y6, X7
	VPADDQ X7, X6, X6
	VPSHUFD $0x4e, X6, X7
	VPADDQ X7, X6, X6
	MOVQ X6, sum+40(FP)
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
