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

// func aggInterval32AVX2(vals *uint32, n int, lo, width uint32) (misses, sum uint64)
//
// The same test in 32-bit lanes, sixteen values per iteration as two
// vectors of eight, with two savings over the 64-bit loop:
//   - The sign flip is folded into the subtraction: d ^ 1<<31 equals
//     d + 1<<31 modulo 2^32, so VPSUBD of lo ^ 1<<31 gives the flipped
//     v-lo, which VPCMPGTD compares with the flipped width.
//   - The matched values are summed without widening them lane by lane:
//     read as four 64-bit lanes of pairs (l, h), a vector adds l + h<<32
//     to one accumulator (Y6, Y7) and h to another (Y8, Y9), and the sum
//     of the values, l + h, is A - H<<32 + H modulo 2^64.
// The misses are counted in 32-bit lanes; each lane sees n/16 values, so
// n must stay below 2^35.
TEXT ·aggInterval32AVX2(SB), NOSPLIT, $0-40
	MOVQ vals+0(FP), SI
	MOVQ n+8(FP), CX
	MOVL $0x80000000, AX
	MOVL lo+16(FP), DX
	XORL AX, DX
	MOVQ DX, X15
	VPBROADCASTD X15, Y15
	MOVL width+20(FP), BX
	XORL AX, BX
	MOVQ BX, X14
	VPBROADCASTD X14, Y14
	VPXOR Y4, Y4, Y4
	VPXOR Y5, Y5, Y5
	VPXOR Y6, Y6, Y6
	VPXOR Y7, Y7, Y7
	VPXOR Y8, Y8, Y8
	VPXOR Y9, Y9, Y9
	SHRQ $4, CX
	JZ   reduce32

loop32:
	VMOVDQU (SI), Y0
	VMOVDQU 32(SI), Y1
	VPSUBD Y15, Y0, Y2
	VPSUBD Y15, Y1, Y3
	VPCMPGTD Y14, Y2, Y2
	VPCMPGTD Y14, Y3, Y3
	VPSUBD Y2, Y4, Y4
	VPSUBD Y3, Y5, Y5
	VPANDN Y0, Y2, Y2
	VPANDN Y1, Y3, Y3
	VPADDQ Y2, Y6, Y6
	VPADDQ Y3, Y7, Y7
	VPSRLQ $32, Y2, Y2
	VPSRLQ $32, Y3, Y3
	VPADDQ Y2, Y8, Y8
	VPADDQ Y3, Y9, Y9
	ADDQ $64, SI
	DECQ CX
	JNZ  loop32

reduce32:
	VPADDD Y5, Y4, Y4
	VPMOVZXDQ X4, Y5
	VEXTRACTI128 $1, Y4, X4
	VPMOVZXDQ X4, Y4
	VPADDQ Y5, Y4, Y4
	VEXTRACTI128 $1, Y4, X5
	VPADDQ X5, X4, X4
	VPSHUFD $0x4e, X4, X5
	VPADDQ X5, X4, X4
	MOVQ X4, misses+24(FP)
	VPADDQ Y7, Y6, Y6
	VPADDQ Y9, Y8, Y8
	VPSLLQ $32, Y8, Y9
	VPSUBQ Y9, Y6, Y6
	VPADDQ Y8, Y6, Y6
	VEXTRACTI128 $1, Y6, X7
	VPADDQ X7, X6, X6
	VPSHUFD $0x4e, X6, X7
	VPADDQ X7, X6, X6
	MOVQ X6, sum+32(FP)
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
