// Package mc is the machine-code tier below LIR: a hand-rolled amd64
// encoder, a lowering that turns regalloc'd LIR into native code, a strict
// W^X installer, and an execution bridge whose every rare path (budget,
// guard, crash, OSR, deopt) delegates to the unfused reference executor at
// the equivalent LIR pc — which is what keeps Steps, bailouts, deopt frames
// and policy verdicts bit-identical across tiers.
//
// This file is the assembler. It encodes exactly the instruction forms the
// lowering emits — nothing speculative — and each form is pinned by a
// golden-byte test (asm_test.go) cross-checked once against objdump.
package mc

import "encoding/binary"

// Reg is a 64-bit general-purpose register in encoding order.
type Reg uint8

// General-purpose registers. The lowering's convention: RBX holds the
// float register file base, R12 the arena cells base, R13 the tag file
// base, R15 the step counter, R11 the block-check counter, RDI the
// activation record, RSI the per-engine environment; RAX/RCX/RDX and
// R8-R10 are scratch. R14 (the Go runtime's g register) and RBP are never
// touched by generated code, RSP only by the CALL/RET pairs of direct
// calls.
const (
	RAX Reg = iota
	RCX
	RDX
	RBX
	RSP
	RBP
	RSI
	RDI
	R8
	R9
	R10
	R11
	R12
	R13
	R14
	R15
)

// Xmm is an SSE register.
type Xmm uint8

// SSE registers. X0-X1 are the lowering's scratch pair and X2-X14 its
// register cache (lower.go); X15 is the Go runtime's zero register and is
// never named.
const (
	X0 Xmm = iota
	X1
	X2
	X3
	X4
	X5
	X6
	X7
	X8
	X9
	X10
	X11
	X12
	X13
	X14
)

// Condition codes (the low nibble of the 0F 8x / 0F 9x opcodes).
type Cond uint8

// Condition codes used by the lowering. Unsigned conditions (B/AE/A)
// double as ucomisd float conditions: after ucomisd a, b — A is a>b with
// NaN false, AE is a>=b with NaN false, B is a<b but NaN-TRUE (so the
// lowering only ever branches on A/AE/E/NE/P with operand swaps).
const (
	CondO  Cond = 0x0
	CondB  Cond = 0x2 // below (CF=1)
	CondAE Cond = 0x3 // above or equal (CF=0)
	CondE  Cond = 0x4 // equal (ZF=1)
	CondNE Cond = 0x5 // not equal (ZF=0)
	CondBE Cond = 0x6 // below or equal (CF=1 or ZF=1)
	CondA  Cond = 0x7 // above (CF=0 and ZF=0)
	CondS  Cond = 0x8 // sign (SF=1)
	CondP  Cond = 0xa // parity (PF=1, ucomisd unordered)
	CondNP Cond = 0xb // no parity
	CondL  Cond = 0xc // less (signed)
	CondGE Cond = 0xd // greater or equal (signed)
	CondLE Cond = 0xe // less or equal (signed)
	CondG  Cond = 0xf // greater (signed)
)

// Asm accumulates encoded instructions. Jump targets are patched by the
// caller via Patch32 using the offsets returned by the forward-branch
// emitters.
type Asm struct {
	Buf []byte
}

func (a *Asm) byte(b byte)     { a.Buf = append(a.Buf, b) }
func (a *Asm) bytes(b ...byte) { a.Buf = append(a.Buf, b...) }

func (a *Asm) imm32(v int32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], uint32(v))
	a.Buf = append(a.Buf, b[:]...)
}

func (a *Asm) imm64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	a.Buf = append(a.Buf, b[:]...)
}

// Len returns the current code offset.
func (a *Asm) Len() int { return len(a.Buf) }

// Patch32 overwrites the 4 bytes at off with the rel32 displacement from
// the end of the instruction (off+4) to target.
func (a *Asm) Patch32(off, target int) {
	binary.LittleEndian.PutUint32(a.Buf[off:], uint32(int32(target-(off+4))))
}

// rex emits a REX prefix. w selects 64-bit operand size; r/x/b extend the
// ModRM reg field, SIB index, and ModRM rm / SIB base respectively.
func (a *Asm) rex(w bool, r, x, b uint8) {
	v := byte(0x40)
	if w {
		v |= 8
	}
	v |= (r & 8) >> 1
	v |= (x & 8) >> 2
	v |= (b & 8) >> 3
	a.byte(v)
}

// rexIf emits REX only when some bit is needed (for 32-bit and 8-bit
// forms involving extended registers).
func (a *Asm) rexIf(r, x, b uint8) {
	if r&8 != 0 || x&8 != 0 || b&8 != 0 {
		a.rex(false, r, x, b)
	}
}

// modrmReg emits a register-direct ModRM byte.
func (a *Asm) modrmReg(reg, rm uint8) {
	a.byte(0xc0 | (reg&7)<<3 | rm&7)
}

// modrmMem emits ModRM(+SIB)+disp for a [base+disp] operand. RSP/R12
// bases need a SIB byte; RBP/R13 bases cannot use the disp-less mod=00
// form. disp width is chosen canonically (0, then int8, then int32) so
// encodings are deterministic and golden-testable.
func (a *Asm) modrmMem(reg uint8, base Reg, disp int32) {
	b := uint8(base) & 7
	mod := uint8(0)
	switch {
	case disp == 0 && b != 5: // no displacement (except rbp/r13)
	case disp >= -128 && disp <= 127:
		mod = 1
	default:
		mod = 2
	}
	a.byte(mod<<6 | (reg&7)<<3 | b)
	if b == 4 { // rsp/r12: SIB with no index
		a.byte(0x24)
	}
	switch mod {
	case 1:
		a.byte(byte(disp))
	case 2:
		a.imm32(disp)
	}
}

// modrmMemIdx emits ModRM+SIB+disp for a [base+index*scale+disp] operand.
// index must not be RSP (unencodable as an index).
func (a *Asm) modrmMemIdx(reg uint8, base, index Reg, scale uint8, disp int32) {
	var ss uint8
	switch scale {
	case 1:
		ss = 0
	case 2:
		ss = 1
	case 4:
		ss = 2
	case 8:
		ss = 3
	default:
		panic("mc: bad scale")
	}
	b := uint8(base) & 7
	mod := uint8(0)
	switch {
	case disp == 0 && b != 5:
	case disp >= -128 && disp <= 127:
		mod = 1
	default:
		mod = 2
	}
	a.byte(mod<<6 | (reg&7)<<3 | 4)
	a.byte(ss<<6 | (uint8(index)&7)<<3 | b)
	switch mod {
	case 1:
		a.byte(byte(disp))
	case 2:
		a.imm32(disp)
	}
}

// ---- moves ----

// MovRegImm64 encodes mov dst, imm64 (REX.W B8+rd io) — the lowering's
// only way to materialize constants, keeping code position-independent
// with no literal pool.
func (a *Asm) MovRegImm64(dst Reg, imm uint64) {
	a.rex(true, 0, 0, uint8(dst))
	a.byte(0xb8 + uint8(dst)&7)
	a.imm64(imm)
}

// MovRegImm32 encodes mov dst32, imm32 (B8+rd id), zero-extending into
// the full register.
func (a *Asm) MovRegImm32(dst Reg, imm int32) {
	a.rexIf(0, 0, uint8(dst))
	a.byte(0xb8 + uint8(dst)&7)
	a.imm32(imm)
}

// MovRegReg encodes mov dst, src (REX.W 89 /r).
func (a *Asm) MovRegReg(dst, src Reg) {
	a.rex(true, uint8(src), 0, uint8(dst))
	a.byte(0x89)
	a.modrmReg(uint8(src), uint8(dst))
}

// MovRegMem encodes mov dst, [base+disp] (REX.W 8B /r).
func (a *Asm) MovRegMem(dst, base Reg, disp int32) {
	a.rex(true, uint8(dst), 0, uint8(base))
	a.byte(0x8b)
	a.modrmMem(uint8(dst), base, disp)
}

// MovMemReg encodes mov [base+disp], src (REX.W 89 /r).
func (a *Asm) MovMemReg(base Reg, disp int32, src Reg) {
	a.rex(true, uint8(src), 0, uint8(base))
	a.byte(0x89)
	a.modrmMem(uint8(src), base, disp)
}

// MovRegMemIdx encodes mov dst, [base+index*scale+disp] (REX.W 8B /r with
// SIB) — the handle-table load.
func (a *Asm) MovRegMemIdx(dst, base, index Reg, scale uint8, disp int32) {
	a.rex(true, uint8(dst), uint8(index), uint8(base))
	a.byte(0x8b)
	a.modrmMemIdx(uint8(dst), base, index, scale, disp)
}

// MovzxRegMem8 encodes movzx dst32, byte [base+disp] (0F B6 /r) — the tag
// file load.
func (a *Asm) MovzxRegMem8(dst, base Reg, disp int32) {
	a.rexIf(uint8(dst), 0, uint8(base))
	a.bytes(0x0f, 0xb6)
	a.modrmMem(uint8(dst), base, disp)
}

// MovMem8Reg encodes mov byte [base+disp], src8 (88 /r) — the tag file
// store. src must be RAX-RDX so no REX is needed for the byte register.
func (a *Asm) MovMem8Reg(base Reg, disp int32, src Reg) {
	if src > RDX && src < R8 {
		panic("mc: byte store needs RAX-RDX or REX source")
	}
	a.rexIf(uint8(src), 0, uint8(base))
	a.byte(0x88)
	a.modrmMem(uint8(src), base, disp)
}

// MovsxdRegMem encodes movsxd dst, dword [base+disp] (REX.W 63 /r) — the
// int32 field load (array handle refs in global slots).
func (a *Asm) MovsxdRegMem(dst, base Reg, disp int32) {
	a.rex(true, uint8(dst), 0, uint8(base))
	a.byte(0x63)
	a.modrmMem(uint8(dst), base, disp)
}

// MovsxdRegReg encodes movsxd dst, src32 (REX.W 63 /r) — Go's int32(x)
// wrap of a 64-bit value, sign-extended back to 64 bits.
func (a *Asm) MovsxdRegReg(dst, src Reg) {
	a.rex(true, uint8(dst), 0, uint8(src))
	a.byte(0x63)
	a.modrmReg(uint8(dst), uint8(src))
}

// MovMem32Reg encodes mov dword [base+disp], src32 (89 /r without REX.W).
func (a *Asm) MovMem32Reg(base Reg, disp int32, src Reg) {
	a.rexIf(uint8(src), 0, uint8(base))
	a.byte(0x89)
	a.modrmMem(uint8(src), base, disp)
}

// ---- SSE2 scalar-double ----

// sseMem emits prefix 0F op /r with a memory operand.
func (a *Asm) sseMem(prefix byte, op byte, reg uint8, base Reg, disp int32) {
	a.byte(prefix)
	a.rexIf(reg, 0, uint8(base))
	a.bytes(0x0f, op)
	a.modrmMem(reg, base, disp)
}

// sseReg emits prefix 0F op /r with a register operand.
func (a *Asm) sseReg(prefix byte, op byte, reg, rm uint8) {
	a.byte(prefix)
	a.rexIf(reg, 0, rm)
	a.bytes(0x0f, op)
	a.modrmReg(reg, rm)
}

// MovsdXmmMem encodes movsd dst, [base+disp] (F2 0F 10 /r).
func (a *Asm) MovsdXmmMem(dst Xmm, base Reg, disp int32) {
	a.sseMem(0xf2, 0x10, uint8(dst), base, disp)
}

// MovsdMemXmm encodes movsd [base+disp], src (F2 0F 11 /r).
func (a *Asm) MovsdMemXmm(base Reg, disp int32, src Xmm) {
	a.sseMem(0xf2, 0x11, uint8(src), base, disp)
}

// MovsdXmmMemIdx encodes movsd dst, [base+index*scale+disp] — the arena
// cell load.
func (a *Asm) MovsdXmmMemIdx(dst Xmm, base, index Reg, scale uint8, disp int32) {
	a.byte(0xf2)
	a.rexIf(uint8(dst), uint8(index), uint8(base))
	a.bytes(0x0f, 0x10)
	a.modrmMemIdx(uint8(dst), base, index, scale, disp)
}

// MovsdMemIdxXmm encodes movsd [base+index*scale+disp], src — the arena
// cell store.
func (a *Asm) MovsdMemIdxXmm(base, index Reg, scale uint8, disp int32, src Xmm) {
	a.byte(0xf2)
	a.rexIf(uint8(src), uint8(index), uint8(base))
	a.bytes(0x0f, 0x11)
	a.modrmMemIdx(uint8(src), base, index, scale, disp)
}

// AddsdXmmMem / SubsdXmmMem / MulsdXmmMem / DivsdXmmMem encode the scalar
// double arithmetic forms (F2 0F 58/5C/59/5E /r) with a memory source.
func (a *Asm) AddsdXmmMem(dst Xmm, base Reg, disp int32) {
	a.sseMem(0xf2, 0x58, uint8(dst), base, disp)
}
func (a *Asm) SubsdXmmMem(dst Xmm, base Reg, disp int32) {
	a.sseMem(0xf2, 0x5c, uint8(dst), base, disp)
}
func (a *Asm) MulsdXmmMem(dst Xmm, base Reg, disp int32) {
	a.sseMem(0xf2, 0x59, uint8(dst), base, disp)
}
func (a *Asm) DivsdXmmMem(dst Xmm, base Reg, disp int32) {
	a.sseMem(0xf2, 0x5e, uint8(dst), base, disp)
}

// AddsdXmmXmm / SubsdXmmXmm / MulsdXmmXmm / DivsdXmmXmm are the same with
// a register source: dst = dst op src.
func (a *Asm) AddsdXmmXmm(dst, src Xmm) { a.sseReg(0xf2, 0x58, uint8(dst), uint8(src)) }
func (a *Asm) SubsdXmmXmm(dst, src Xmm) { a.sseReg(0xf2, 0x5c, uint8(dst), uint8(src)) }
func (a *Asm) MulsdXmmXmm(dst, src Xmm) { a.sseReg(0xf2, 0x59, uint8(dst), uint8(src)) }
func (a *Asm) DivsdXmmXmm(dst, src Xmm) { a.sseReg(0xf2, 0x5e, uint8(dst), uint8(src)) }

// UcomisdXmmMem encodes ucomisd a, [base+disp] (66 0F 2E /r).
func (a *Asm) UcomisdXmmMem(x Xmm, base Reg, disp int32) {
	a.sseMem(0x66, 0x2e, uint8(x), base, disp)
}

// UcomisdXmmXmm encodes ucomisd a, b.
func (a *Asm) UcomisdXmmXmm(x, y Xmm) { a.sseReg(0x66, 0x2e, uint8(x), uint8(y)) }

// ps emits a packed-single register form 0F op /r (no prefix).
func (a *Asm) ps(op byte, x, y Xmm) {
	a.rexIf(uint8(x), 0, uint8(y))
	a.bytes(0x0f, op)
	a.modrmReg(uint8(x), uint8(y))
}

// XorpsXmmXmm encodes xorps x, y (0F 57 /r) — the canonical xmm zeroing
// idiom.
func (a *Asm) XorpsXmmXmm(x, y Xmm) { a.ps(0x57, x, y) }

// MovapsXmmXmm encodes movaps dst, src (0F 28 /r) — the register copy.
func (a *Asm) MovapsXmmXmm(dst, src Xmm) { a.ps(0x28, dst, src) }

// MovqXmmReg encodes movq dst, src (66 REX.W 0F 6E /r): the 64 bits of a
// general register into an xmm, unconverted.
func (a *Asm) MovqXmmReg(dst Xmm, src Reg) {
	a.byte(0x66)
	a.rex(true, uint8(dst), 0, uint8(src))
	a.bytes(0x0f, 0x6e)
	a.modrmReg(uint8(dst), uint8(src))
}

// MovqRegXmm encodes movq dst, src (66 REX.W 0F 7E /r), the reverse move.
func (a *Asm) MovqRegXmm(dst Reg, src Xmm) {
	a.byte(0x66)
	a.rex(true, uint8(src), 0, uint8(dst))
	a.bytes(0x0f, 0x7e)
	a.modrmReg(uint8(src), uint8(dst))
}

// Cvttsd2siRegMem encodes cvttsd2si dst, [base+disp] (F2 REX.W 0F 2C /r),
// truncating float64→int64 with the 0x8000000000000000 overflow sentinel —
// exactly Go's int(float64) on amd64. wide=false selects the 32-bit form,
// matching Go's int32(float64).
func (a *Asm) Cvttsd2siRegMem(dst Reg, base Reg, disp int32, wide bool) {
	a.byte(0xf2)
	if wide {
		a.rex(true, uint8(dst), 0, uint8(base))
	} else {
		a.rexIf(uint8(dst), 0, uint8(base))
	}
	a.bytes(0x0f, 0x2c)
	a.modrmMem(uint8(dst), base, disp)
}

// Cvttsd2siRegXmm is the register-source form of Cvttsd2siRegMem.
func (a *Asm) Cvttsd2siRegXmm(dst Reg, src Xmm, wide bool) {
	a.byte(0xf2)
	if wide {
		a.rex(true, uint8(dst), 0, uint8(src))
	} else {
		a.rexIf(uint8(dst), 0, uint8(src))
	}
	a.bytes(0x0f, 0x2c)
	a.modrmReg(uint8(dst), uint8(src))
}

// Cvtsi2sdXmmReg encodes cvtsi2sd dst, src (F2 REX 0F 2A /r). wide selects
// int64 vs int32 source width.
func (a *Asm) Cvtsi2sdXmmReg(dst Xmm, src Reg, wide bool) {
	a.byte(0xf2)
	if wide {
		a.rex(true, uint8(dst), 0, uint8(src))
	} else {
		a.rexIf(uint8(dst), 0, uint8(src))
	}
	a.bytes(0x0f, 0x2a)
	a.modrmReg(uint8(dst), uint8(src))
}

// Cvtsi2sdXmmMem encodes cvtsi2sd dst, qword [base+disp].
func (a *Asm) Cvtsi2sdXmmMem(dst Xmm, base Reg, disp int32) {
	a.byte(0xf2)
	a.rex(true, uint8(dst), 0, uint8(base))
	a.bytes(0x0f, 0x2a)
	a.modrmMem(uint8(dst), base, disp)
}

// ---- 64-bit ALU ----

// aluRegImm encodes op dst, imm with the canonical 83 /ext ib short form
// when imm fits in int8, else 81 /ext id.
func (a *Asm) aluRegImm(ext uint8, dst Reg, imm int32) {
	a.rex(true, 0, 0, uint8(dst))
	if imm >= -128 && imm <= 127 {
		a.byte(0x83)
		a.modrmReg(ext, uint8(dst))
		a.byte(byte(imm))
	} else {
		a.byte(0x81)
		a.modrmReg(ext, uint8(dst))
		a.imm32(imm)
	}
}

// AddRegImm / SubRegImm / CmpRegImm encode add/sub/cmp dst, imm32.
func (a *Asm) AddRegImm(dst Reg, imm int32) { a.aluRegImm(0, dst, imm) }
func (a *Asm) SubRegImm(dst Reg, imm int32) { a.aluRegImm(5, dst, imm) }
func (a *Asm) CmpRegImm(dst Reg, imm int32) { a.aluRegImm(7, dst, imm) }

// AddMemImm encodes add qword [base+disp], imm (REX.W 83/81 /0) — the
// environment's counters (frames in use, direct calls, unwinds).
func (a *Asm) AddMemImm(base Reg, disp int32, imm int32) {
	a.rex(true, 0, 0, uint8(base))
	if imm >= -128 && imm <= 127 {
		a.byte(0x83)
		a.modrmMem(0, base, disp)
		a.byte(byte(imm))
	} else {
		a.byte(0x81)
		a.modrmMem(0, base, disp)
		a.imm32(imm)
	}
}

// AddMemReg encodes add qword [base+disp], src (REX.W 01 /r) — a direct
// call folding its callee's steps into the VM's counters.
func (a *Asm) AddMemReg(base Reg, disp int32, src Reg) {
	a.rex(true, uint8(src), 0, uint8(base))
	a.byte(0x01)
	a.modrmMem(uint8(src), base, disp)
}

// CmpMemImm encodes cmp qword [base+disp], imm (REX.W 83/81 /7) — the
// direct-call guards against table length, arity, call depth and frame
// slots.
func (a *Asm) CmpMemImm(base Reg, disp int32, imm int32) {
	a.rex(true, 0, 0, uint8(base))
	if imm >= -128 && imm <= 127 {
		a.byte(0x83)
		a.modrmMem(7, base, disp)
		a.byte(byte(imm))
	} else {
		a.byte(0x81)
		a.modrmMem(7, base, disp)
		a.imm32(imm)
	}
}

// AddRegMem encodes add dst, [base+disp] (REX.W 03 /r) — a direct call
// adding the caller's saved check count to the callee's (R11).
func (a *Asm) AddRegMem(dst, base Reg, disp int32) {
	a.rex(true, uint8(dst), 0, uint8(base))
	a.byte(0x03)
	a.modrmMem(uint8(dst), base, disp)
}

// AddRegReg encodes add dst, src (REX.W 01 /r).
func (a *Asm) AddRegReg(dst, src Reg) {
	a.rex(true, uint8(src), 0, uint8(dst))
	a.byte(0x01)
	a.modrmReg(uint8(src), uint8(dst))
}

// SubRegMem encodes sub dst, [base+disp] (REX.W 2B /r).
func (a *Asm) SubRegMem(dst, base Reg, disp int32) {
	a.rex(true, uint8(dst), 0, uint8(base))
	a.byte(0x2b)
	a.modrmMem(uint8(dst), base, disp)
}

// CmpRegMem encodes cmp a, [base+disp] (REX.W 3B /r).
func (a *Asm) CmpRegMem(dst, base Reg, disp int32) {
	a.rex(true, uint8(dst), 0, uint8(base))
	a.byte(0x3b)
	a.modrmMem(uint8(dst), base, disp)
}

// CmpRegReg encodes cmp a, b (REX.W 39 /r).
func (a *Asm) CmpRegReg(dst, src Reg) {
	a.rex(true, uint8(src), 0, uint8(dst))
	a.byte(0x39)
	a.modrmReg(uint8(src), uint8(dst))
}

// TestRegReg encodes test a, b (REX.W 85 /r).
func (a *Asm) TestRegReg(dst, src Reg) {
	a.rex(true, uint8(src), 0, uint8(dst))
	a.byte(0x85)
	a.modrmReg(uint8(src), uint8(dst))
}

// NegReg encodes neg dst (REX.W F7 /3).
func (a *Asm) NegReg(dst Reg) {
	a.rex(true, 0, 0, uint8(dst))
	a.byte(0xf7)
	a.modrmReg(3, uint8(dst))
}

// ImulRegReg encodes imul dst, src (REX.W 0F AF /r).
func (a *Asm) ImulRegReg(dst, src Reg) {
	a.rex(true, uint8(dst), 0, uint8(src))
	a.bytes(0x0f, 0xaf)
	a.modrmReg(uint8(dst), uint8(src))
}

// Cqo sign-extends RAX into RDX:RAX (48 99), the idiv setup.
func (a *Asm) Cqo() { a.bytes(0x48, 0x99) }

// IdivReg encodes idiv src (REX.W F7 /7): RDX:RAX / src → quotient RAX,
// remainder RDX.
func (a *Asm) IdivReg(src Reg) {
	a.rex(true, 0, 0, uint8(src))
	a.byte(0xf7)
	a.modrmReg(7, uint8(src))
}

// BtcRegImm encodes btc dst, imm8 (REX.W 0F BA /7 ib) — bit 63 flip is
// IEEE negation, Go's -x.
func (a *Asm) BtcRegImm(dst Reg, bit uint8) {
	a.rex(true, 0, 0, uint8(dst))
	a.bytes(0x0f, 0xba)
	a.modrmReg(7, uint8(dst))
	a.byte(bit)
}

// ---- 32-bit ALU (the JS bit-op family works on int32) ----

// alu32RegReg encodes a 32-bit op dst32, src32 with REX only when an
// extended register forces it.
func (a *Asm) alu32RegReg(op byte, dst, src Reg) {
	a.rexIf(uint8(src), 0, uint8(dst))
	a.byte(op)
	a.modrmReg(uint8(src), uint8(dst))
}

// AndRegReg32 / OrRegReg32 / XorRegReg32 encode and/or/xor dst32, src32.
func (a *Asm) AndRegReg32(dst, src Reg) { a.alu32RegReg(0x21, dst, src) }
func (a *Asm) OrRegReg32(dst, src Reg)  { a.alu32RegReg(0x09, dst, src) }
func (a *Asm) XorRegReg32(dst, src Reg) { a.alu32RegReg(0x31, dst, src) }

// AndRegImm32 encodes and dst32, imm8 (83 /4 ib) — the shift-count mask.
func (a *Asm) AndRegImm32(dst Reg, imm int8) {
	a.rexIf(0, 0, uint8(dst))
	a.byte(0x83)
	a.modrmReg(4, uint8(dst))
	a.byte(byte(imm))
}

// ShlRegCl32 / ShrRegCl32 / SarRegCl32 encode shl/shr/sar dst32, cl
// (D3 /4, /5, /7).
func (a *Asm) ShlRegCl32(dst Reg) { a.shiftCl(4, dst) }
func (a *Asm) ShrRegCl32(dst Reg) { a.shiftCl(5, dst) }
func (a *Asm) SarRegCl32(dst Reg) { a.shiftCl(7, dst) }

func (a *Asm) shiftCl(ext uint8, dst Reg) {
	a.rexIf(0, 0, uint8(dst))
	a.byte(0xd3)
	a.modrmReg(ext, uint8(dst))
}

// MovRegReg32 encodes mov dst32, src32 (89 /r) — zero-extending, the
// uint32 reinterpretation.
func (a *Asm) MovRegReg32(dst, src Reg) { a.alu32RegReg(0x89, dst, src) }

// ---- flags → values ----

// SetccReg8 encodes setcc dst8 (0F 9x /r). dst must be RAX-RDX (al-dl) so
// no REX is needed.
func (a *Asm) SetccReg8(cc Cond, dst Reg) {
	if dst > RDX {
		panic("mc: setcc needs RAX-RDX")
	}
	a.bytes(0x0f, 0x90|byte(cc))
	a.modrmReg(0, uint8(dst))
}

// MovzxReg32Reg8 encodes movzx dst32, src8 (0F B6 /r). src must be
// RAX-RDX.
func (a *Asm) MovzxReg32Reg8(dst, src Reg) {
	if src > RDX {
		panic("mc: movzx source needs RAX-RDX")
	}
	a.rexIf(uint8(dst), 0, 0)
	a.bytes(0x0f, 0xb6)
	a.modrmReg(uint8(dst), uint8(src))
}

// AndRegReg8 encodes and dst8, src8 (20 /r); both must be RAX-RDX.
func (a *Asm) AndRegReg8(dst, src Reg) {
	if dst > RDX || src > RDX {
		panic("mc: 8-bit and needs RAX-RDX")
	}
	a.byte(0x20)
	a.modrmReg(uint8(src), uint8(dst))
}

// OrRegReg8 encodes or dst8, src8 (08 /r); both must be RAX-RDX.
func (a *Asm) OrRegReg8(dst, src Reg) {
	if dst > RDX || src > RDX {
		panic("mc: 8-bit or needs RAX-RDX")
	}
	a.byte(0x08)
	a.modrmReg(uint8(src), uint8(dst))
}

// ---- control flow ----

// JccFwd emits jcc rel32 (0F 8x cd) with a zero placeholder and returns
// the placeholder offset for Patch32.
func (a *Asm) JccFwd(cc Cond) int {
	a.bytes(0x0f, 0x80|byte(cc))
	off := a.Len()
	a.imm32(0)
	return off
}

// JmpFwd emits jmp rel32 (E9 cd) with a placeholder, returning its offset.
func (a *Asm) JmpFwd() int {
	a.byte(0xe9)
	off := a.Len()
	a.imm32(0)
	return off
}

// CallReg encodes call src (FF /2) — a direct call into another unit's
// entry, resolved through the environment's call table.
func (a *Asm) CallReg(src Reg) {
	a.rexIf(0, 0, uint8(src))
	a.byte(0xff)
	a.modrmReg(2, uint8(src))
}

// Ret encodes ret (C3) — every exit path returns to the trampoline.
func (a *Asm) Ret() { a.byte(0xc3) }
