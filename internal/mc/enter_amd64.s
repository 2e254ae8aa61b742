//go:build amd64 && (linux || darwin)

#include "textflag.h"
#include "funcdata.h"

// func enter(entry uintptr, f *mcact, env *mcenv, regs *float64, tags *native.Tag) int32
//
// The bridge between Go and generated code. Register convention for
// generated code (see lower.go):
//
//	RDI = &mcact (activation record; a direct call moves it to the callee's
//	      record and back)
//	RSI = &mcenv (environment; preserved by generated code)
//	RBX = &regs[0]   R13 = &tags[0]   R12 = &cells[0]
//	R15 = steps      R11 = block checks (both loaded from the record here
//	                 and stored back on the way out)
//	XMM2-XMM14 = the register cache (lower.go): copies of float registers,
//	             never live across an exit, so nothing here saves them
//	scratch: RAX RCX RDX R8-R10, XMM0-XMM1
//
// Generated code never touches R14 (Go's g register), X15 (Go's zero
// register) or RBP, and uses RSP only through the CALL/RET pairs of direct
// calls: one 8-byte return address per nested call, at most frameDepth of
// them (the frame-stack guard of every call site), plus the one pushed
// here. The frame is that space — enterStack = 8*(frameDepth+1) bytes,
// TestEnterStack pins the literal — which the prologue's stack check
// guarantees like any Go frame; the entry call is made from its top, so
// the return addresses grow down into it and never below it.
TEXT ·enter(SB), 0, $520-44
	NO_LOCAL_POINTERS
	MOVQ f+8(FP), DI
	MOVQ env+16(FP), SI
	MOVQ regs+24(FP), BX
	MOVQ tags+32(FP), R13
	MOVQ 32(SI), R12 // env.cells
	MOVQ 8(DI), R15  // record.steps
	MOVQ 16(DI), R11 // record.checks
	MOVQ entry+0(FP), AX
	ADJSP $-520
	CALL AX
	ADJSP $520
	MOVQ R15, 8(DI)  // flush the counters back (an unwind left DI, R15 and
	MOVQ R11, 16(DI) // R11 the entered activation's)
	MOVL AX, ret+40(FP)
	RET
