//go:build amd64 && !purego && !race

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
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func dotTile(d, x *float64, xs uintptr, y *float64, ys uintptr, k, w int)
//
// The lane sums start at +0. One broadcast of x[p] feeds w/4 multiplies by
// the row y[p*ys:], each followed by its own add into that vector's sums:
// never an FMA, so every lane rounds the product and then the sum, like
// s += a*b in Go. The epilogue adds the sums into d, d + s in that order.
TEXT ·dotTile(SB), NOSPLIT, $0-56
	MOVQ   d+0(FP), AX
	MOVQ   x+8(FP), SI
	MOVQ   xs+16(FP), R8
	MOVQ   y+24(FP), DI
	MOVQ   ys+32(FP), R9
	MOVQ   k+40(FP), CX
	MOVQ   w+48(FP), DX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	CMPQ   DX, $16
	JEQ    w16
	CMPQ   DX, $8
	JEQ    w8
	TESTQ  CX, CX
	JEQ    end4

loop4:
	VBROADCASTSD (SI), Y4
	VMULPD       (DI), Y4, Y5
	VADDPD       Y5, Y0, Y0
	ADDQ         R8, SI
	ADDQ         R9, DI
	DECQ         CX
	JNZ          loop4

end4:
	VMOVUPD (AX), Y9
	VADDPD  Y0, Y9, Y9
	VMOVUPD Y9, (AX)
	VZEROUPPER
	RET

w8:
	TESTQ CX, CX
	JEQ   end8

loop8:
	VBROADCASTSD (SI), Y4
	VMULPD       (DI), Y4, Y5
	VMULPD       32(DI), Y4, Y6
	VADDPD       Y5, Y0, Y0
	VADDPD       Y6, Y1, Y1
	ADDQ         R8, SI
	ADDQ         R9, DI
	DECQ         CX
	JNZ          loop8

end8:
	VMOVUPD (AX), Y9
	VMOVUPD 32(AX), Y10
	VADDPD  Y0, Y9, Y9
	VADDPD  Y1, Y10, Y10
	VMOVUPD Y9, (AX)
	VMOVUPD Y10, 32(AX)
	VZEROUPPER
	RET

w16:
	TESTQ CX, CX
	JEQ   end16

loop16:
	VBROADCASTSD (SI), Y4
	VMULPD       (DI), Y4, Y5
	VMULPD       32(DI), Y4, Y6
	VMULPD       64(DI), Y4, Y7
	VMULPD       96(DI), Y4, Y8
	VADDPD       Y5, Y0, Y0
	VADDPD       Y6, Y1, Y1
	VADDPD       Y7, Y2, Y2
	VADDPD       Y8, Y3, Y3
	ADDQ         R8, SI
	ADDQ         R9, DI
	DECQ         CX
	JNZ          loop16

end16:
	VMOVUPD (AX), Y9
	VMOVUPD 32(AX), Y10
	VMOVUPD 64(AX), Y11
	VMOVUPD 96(AX), Y12
	VADDPD  Y0, Y9, Y9
	VADDPD  Y1, Y10, Y10
	VADDPD  Y2, Y11, Y11
	VADDPD  Y3, Y12, Y12
	VMOVUPD Y9, (AX)
	VMOVUPD Y10, 32(AX)
	VMOVUPD Y11, 64(AX)
	VMOVUPD Y12, 96(AX)
	VZEROUPPER
	RET

// func axpy4(d *float64, n int, a, b *float64, bs uintptr, groups int)
//
// Per group: four broadcast coefficients, then for every 4-column chunk of
// d one load, four multiply/add pairs in row order, one store. Columns past
// the last full chunk run the same four pairs with scalar instructions.
TEXT ·axpy4(SB), NOSPLIT, $0-48
	MOVQ   d+0(FP), DI
	MOVQ   n+8(FP), DX
	MOVQ   a+16(FP), SI
	MOVQ   b+24(FP), R8
	MOVQ   bs+32(FP), R9
	MOVQ   groups+40(FP), CX
	TESTQ  CX, CX
	JEQ    done
	MOVQ   DX, BX
	ANDQ   $-4, BX
	VXORPD Y14, Y14, Y14

group:
	VMOVUPD   (SI), Y4
	VCMPPD    $0, Y14, Y4, Y5
	VMOVMSKPD Y5, AX
	CMPQ      AX, $15
	JEQ       next

	VBROADCASTSD (SI), Y0
	VBROADCASTSD 8(SI), Y1
	VBROADCASTSD 16(SI), Y2
	VBROADCASTSD 24(SI), Y3
	MOVQ         R8, R10
	LEAQ         (R10)(R9*1), R11
	LEAQ         (R11)(R9*1), R12
	LEAQ         (R12)(R9*1), R13
	XORQ         AX, AX
	CMPQ         AX, BX
	JGE          tail

vec:
	VMOVUPD (DI)(AX*8), Y6
	VMULPD  (R10)(AX*8), Y0, Y7
	VADDPD  Y7, Y6, Y6
	VMULPD  (R11)(AX*8), Y1, Y7
	VADDPD  Y7, Y6, Y6
	VMULPD  (R12)(AX*8), Y2, Y7
	VADDPD  Y7, Y6, Y6
	VMULPD  (R13)(AX*8), Y3, Y7
	VADDPD  Y7, Y6, Y6
	VMOVUPD Y6, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, BX
	JLT     vec

tail:
	CMPQ   AX, DX
	JGE    next
	VMOVSD (DI)(AX*8), X6
	VMULSD (R10)(AX*8), X0, X7
	VADDSD X7, X6, X6
	VMULSD (R11)(AX*8), X1, X7
	VADDSD X7, X6, X6
	VMULSD (R12)(AX*8), X2, X7
	VADDSD X7, X6, X6
	VMULSD (R13)(AX*8), X3, X7
	VADDSD X7, X6, X6
	VMOVSD X6, (DI)(AX*8)
	INCQ   AX
	JMP    tail

next:
	ADDQ $32, SI
	LEAQ (R8)(R9*4), R8
	DECQ CX
	JNZ  group
	VZEROUPPER

done:
	RET
