#include "textflag.h"

// FOLD turns the A/H pair of a sum of 32-bit values read as 64-bit lanes
// into eight 64-bit partial sums in a: a - h<<32 + h.
#define FOLD(a, h, tmp) \
	VPSLLQ $32, h, tmp; \
	VPSUBQ tmp, a, a;   \
	VPADDQ h, a, a

// HSUM adds the eight 64-bit lanes of z into the low lane of x; y and x
// are z's lower halves, ty and tx a scratch register's.
#define HSUM(z, y, x, ty, tx) \
	VEXTRACTI64X4 $1, z, ty; \
	VPADDQ ty, y, y;         \
	VEXTRACTI128 $1, y, tx;  \
	VPADDQ tx, x, x;         \
	VPSHUFD $0x4e, x, tx;    \
	VPADDQ tx, x, x

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

// func aggInterval32x2AVX512(vals *uint32, n int, loA, widthA, loB, widthB uint32, lanes bool) (matchedA, sumA, matchedB, sumB uint64)
//
// Two intervals per loaded vector of sixteen narrow values. Per interval:
// d = v - lo, and VPCMPUD $2 (unsigned <=) compares d with the width into
// an opmask (K1 for A, K2 for B); a masked VPSUBD of all-ones adds one to
// the lanes that match. The counts stay in 32-bit lanes, each seeing n/16
// values. The matched values are summed by one of two loops:
//   - loop2: the A/H pair trick of aggInterval32AVX2 on the zero-masked
//     values, read as eight 64-bit lanes of pairs (l, h): A += l + h<<32
//     and H += h, and the sum is A - H<<32 + H modulo 2^64.
//   - loop2lanes (lanes set): a masked VPADDD adds the matched values in
//     32-bit lanes. The caller sets lanes only when no lane can wrap,
//     which the block's zone map proves: max * ceil(n/16) < 2^32.
// Both end in the same reduction: the 32-bit lane sums are first read as
// A and H (H = A >> 32), which is exact since the lanes did not wrap.
TEXT ·aggInterval32x2AVX512(SB), NOSPLIT, $0-72
	MOVQ vals+0(FP), SI
	MOVQ n+8(FP), CX
	MOVL loA+16(FP), AX
	VPBROADCASTD AX, Z15
	MOVL widthA+20(FP), AX
	VPBROADCASTD AX, Z14
	MOVL loB+24(FP), AX
	VPBROADCASTD AX, Z13
	MOVL widthB+28(FP), AX
	VPBROADCASTD AX, Z12
	VPTERNLOGD $0xff, Z11, Z11, Z11
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7
	VPXORD Z8, Z8, Z8
	VPXORD Z9, Z9, Z9
	SHRQ $4, CX
	JZ   reduce2
	CMPB lanes+32(FP), $0
	JNE  loop2lanes

loop2:
	VMOVDQU32 (SI), Z0
	VPSUBD Z15, Z0, Z1
	VPSUBD Z13, Z0, Z2
	VPCMPUD $2, Z14, Z1, K1
	VPCMPUD $2, Z12, Z2, K2
	VPSUBD Z11, Z4, K1, Z4
	VPSUBD Z11, Z5, K2, Z5
	VMOVDQU32.Z Z0, K1, Z1
	VMOVDQU32.Z Z0, K2, Z2
	VPADDQ Z1, Z6, Z6
	VPADDQ Z2, Z8, Z8
	VPSRLQ $32, Z1, Z1
	VPSRLQ $32, Z2, Z2
	VPADDQ Z1, Z7, Z7
	VPADDQ Z2, Z9, Z9
	ADDQ $64, SI
	DECQ CX
	JNZ  loop2
	JMP  reduce2

loop2lanes:
	VMOVDQU32 (SI), Z0
	VPSUBD Z15, Z0, Z1
	VPSUBD Z13, Z0, Z2
	VPCMPUD $2, Z14, Z1, K1
	VPCMPUD $2, Z12, Z2, K2
	VPSUBD Z11, Z4, K1, Z4
	VPSUBD Z11, Z5, K2, Z5
	VPADDD Z0, Z6, K1, Z6
	VPADDD Z0, Z8, K2, Z8
	ADDQ $64, SI
	DECQ CX
	JNZ  loop2lanes
	VPSRLQ $32, Z6, Z7
	VPSRLQ $32, Z8, Z9

reduce2:
	VPSRLQ $32, Z4, Z10
	FOLD(Z4, Z10, Z1)
	HSUM(Z4, Y4, X4, Y1, X1)
	MOVQ X4, matchedA+40(FP)
	FOLD(Z6, Z7, Z1)
	HSUM(Z6, Y6, X6, Y1, X1)
	MOVQ X6, sumA+48(FP)
	VPSRLQ $32, Z5, Z10
	FOLD(Z5, Z10, Z1)
	HSUM(Z5, Y5, X5, Y1, X1)
	MOVQ X5, matchedB+56(FP)
	FOLD(Z8, Z9, Z1)
	HSUM(Z8, Y8, X8, Y1, X1)
	MOVQ X8, sumB+64(FP)
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
