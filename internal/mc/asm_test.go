package mc

import (
	"encoding/hex"
	"testing"
)

// TestGoldenEncodings pins the exact byte sequence of every instruction
// form the lowering emits. The expected bytes were cross-checked once
// against objdump (objdump -D -b binary -m i386:x86-64); the disassembly
// is recorded in each case name so a regression here is diagnosable
// without a disassembler in CI.
func TestGoldenEncodings(t *testing.T) {
	cases := []struct {
		name string
		emit func(a *Asm)
		want string // hex
	}{
		{"movabs rax,0x3ff0000000000000", func(a *Asm) { a.MovRegImm64(RAX, 0x3ff0000000000000) }, "48b8000000000000f03f"},
		{"movabs r9,0x123456789abcdef0", func(a *Asm) { a.MovRegImm64(R9, 0x123456789abcdef0) }, "49b9f0debc9a78563412"},
		{"mov ecx,0x2a", func(a *Asm) { a.MovRegImm32(RCX, 42) }, "b92a000000"},
		{"mov r8d,0xfffffff9", func(a *Asm) { a.MovRegImm32(R8, -7) }, "41b8f9ffffff"},
		{"mov rcx,rax", func(a *Asm) { a.MovRegReg(RCX, RAX) }, "4889c1"},
		{"mov rax,[rdi+0x8]", func(a *Asm) { a.MovRegMem(RAX, RDI, 8) }, "488b4708"},
		{"mov rax,[rbx]", func(a *Asm) { a.MovRegMem(RAX, RBX, 0) }, "488b03"},
		{"mov rdx,[r13+0x0]", func(a *Asm) { a.MovRegMem(RDX, R13, 0) }, "498b5500"},
		{"mov rdx,[r12+0x10]", func(a *Asm) { a.MovRegMem(RDX, R12, 16) }, "498b542410"},
		{"mov [rdi],rcx", func(a *Asm) { a.MovMemReg(RDI, 0, RCX) }, "48890f"},
		{"mov [rbx+0x100],rax", func(a *Asm) { a.MovMemReg(RBX, 256, RAX) }, "48898300010000"},
		{"mov rax,[rdx+rcx*8]", func(a *Asm) { a.MovRegMemIdx(RAX, RDX, RCX, 8, 0) }, "488b04ca"},
		{"movzx eax,byte [r13+0x3]", func(a *Asm) { a.MovzxRegMem8(RAX, R13, 3) }, "410fb64503"},
		{"mov byte [r13+0x5],al", func(a *Asm) { a.MovMem8Reg(R13, 5, RAX) }, "41884505"},
		{"movsxd rcx,dword [rdx+0x10]", func(a *Asm) { a.MovsxdRegMem(RCX, RDX, 16) }, "48634a10"},
		{"movsxd rcx,eax", func(a *Asm) { a.MovsxdRegReg(RCX, RAX) }, "4863c8"},
		{"mov dword [rdx+0x8],eax", func(a *Asm) { a.MovMem32Reg(RDX, 8, RAX) }, "894208"},
		{"movsd xmm0,[rbx+0x10]", func(a *Asm) { a.MovsdXmmMem(X0, RBX, 16) }, "f20f104310"},
		{"movsd [rbx+0x18],xmm0", func(a *Asm) { a.MovsdMemXmm(RBX, 24, X0) }, "f20f114318"},
		{"movsd xmm1,[r12+rax*8]", func(a *Asm) { a.MovsdXmmMemIdx(X1, R12, RAX, 8, 0) }, "f2410f100cc4"},
		{"movsd [r12+rax*8],xmm0", func(a *Asm) { a.MovsdMemIdxXmm(R12, RAX, 8, 0, X0) }, "f2410f1104c4"},
		{"addsd xmm0,[rbx+0x8]", func(a *Asm) { a.AddsdXmmMem(X0, RBX, 8) }, "f20f584308"},
		{"subsd xmm0,[rbx+0x8]", func(a *Asm) { a.SubsdXmmMem(X0, RBX, 8) }, "f20f5c4308"},
		{"mulsd xmm0,[rbx+0x8]", func(a *Asm) { a.MulsdXmmMem(X0, RBX, 8) }, "f20f594308"},
		{"divsd xmm0,[rbx+0x8]", func(a *Asm) { a.DivsdXmmMem(X0, RBX, 8) }, "f20f5e4308"},
		{"ucomisd xmm0,[rbx+0x8]", func(a *Asm) { a.UcomisdXmmMem(X0, RBX, 8) }, "660f2e4308"},
		{"ucomisd xmm1,xmm0", func(a *Asm) { a.UcomisdXmmXmm(X1, X0) }, "660f2ec8"},
		{"xorps xmm0,xmm0", func(a *Asm) { a.XorpsXmmXmm(X0, X0) }, "0f57c0"},
		{"cvttsd2si rax,[rbx+0x8]", func(a *Asm) { a.Cvttsd2siRegMem(RAX, RBX, 8, true) }, "f2480f2c4308"},
		{"cvttsd2si ecx,[rbx+0x8]", func(a *Asm) { a.Cvttsd2siRegMem(RCX, RBX, 8, false) }, "f20f2c4b08"},
		{"cvttsd2si rax,xmm0", func(a *Asm) { a.Cvttsd2siRegXmm(RAX, X0, true) }, "f2480f2cc0"},
		{"cvtsi2sd xmm0,rax", func(a *Asm) { a.Cvtsi2sdXmmReg(X0, RAX, true) }, "f2480f2ac0"},
		{"cvtsi2sd xmm0,eax", func(a *Asm) { a.Cvtsi2sdXmmReg(X0, RAX, false) }, "f20f2ac0"},
		{"cvtsi2sd xmm0,qword [rdi+0x28]", func(a *Asm) { a.Cvtsi2sdXmmMem(X0, RDI, 40) }, "f2480f2a4728"},
		// The register cache's forms, the XMM8-XMM14 (REX) encodings among
		// them, and the block-check counter in R11.
		{"addsd xmm9,[rbx+0x10]", func(a *Asm) { a.AddsdXmmMem(X9, RBX, 16) }, "f2440f584b10"},
		{"subsd xmm2,[rbx+0x10]", func(a *Asm) { a.SubsdXmmMem(X2, RBX, 16) }, "f20f5c5310"},
		{"mulsd xmm14,[rbx+0x80]", func(a *Asm) { a.MulsdXmmMem(X14, RBX, 128) }, "f2440f59b380000000"},
		{"divsd xmm8,[rbx+0x10]", func(a *Asm) { a.DivsdXmmMem(X8, RBX, 16) }, "f2440f5e4310"},
		{"ucomisd xmm11,[rbx+0x8]", func(a *Asm) { a.UcomisdXmmMem(X11, RBX, 8) }, "66440f2e5b08"},
		{"movaps xmm2,xmm0", func(a *Asm) { a.MovapsXmmXmm(X2, X0) }, "0f28d0"},
		{"movaps xmm14,xmm3", func(a *Asm) { a.MovapsXmmXmm(X14, X3) }, "440f28f3"},
		{"movaps xmm0,xmm9", func(a *Asm) { a.MovapsXmmXmm(X0, X9) }, "410f28c1"},
		{"addsd xmm2,xmm3", func(a *Asm) { a.AddsdXmmXmm(X2, X3) }, "f20f58d3"},
		{"subsd xmm8,xmm2", func(a *Asm) { a.SubsdXmmXmm(X8, X2) }, "f2440f5cc2"},
		{"mulsd xmm3,xmm14", func(a *Asm) { a.MulsdXmmXmm(X3, X14) }, "f2410f59de"},
		{"divsd xmm9,xmm10", func(a *Asm) { a.DivsdXmmXmm(X9, X10) }, "f2450f5eca"},
		{"ucomisd xmm0,xmm9", func(a *Asm) { a.UcomisdXmmXmm(X0, X9) }, "66410f2ec1"},
		{"ucomisd xmm10,xmm2", func(a *Asm) { a.UcomisdXmmXmm(X10, X2) }, "66440f2ed2"},
		{"xorps xmm8,xmm8", func(a *Asm) { a.XorpsXmmXmm(X8, X8) }, "450f57c0"},
		{"cvttsd2si rax,xmm12", func(a *Asm) { a.Cvttsd2siRegXmm(RAX, X12, true) }, "f2490f2cc4"},
		{"cvttsd2si ecx,xmm8", func(a *Asm) { a.Cvttsd2siRegXmm(RCX, X8, false) }, "f2410f2cc8"},
		{"cvttsd2si ecx,xmm3", func(a *Asm) { a.Cvttsd2siRegXmm(RCX, X3, false) }, "f20f2ccb"},
		{"cvtsi2sd xmm13,rax", func(a *Asm) { a.Cvtsi2sdXmmReg(X13, RAX, true) }, "f24c0f2ae8"},
		{"cvtsi2sd xmm9,edx", func(a *Asm) { a.Cvtsi2sdXmmReg(X9, RDX, false) }, "f2440f2aca"},
		{"cvtsi2sd xmm10,qword [rsi+0x8]", func(a *Asm) { a.Cvtsi2sdXmmMem(X10, RSI, 8) }, "f24c0f2a5608"},
		{"movsd xmm14,[rbx+0x10]", func(a *Asm) { a.MovsdXmmMem(X14, RBX, 16) }, "f2440f107310"},
		{"movsd [rbx+0x18],xmm8", func(a *Asm) { a.MovsdMemXmm(RBX, 24, X8) }, "f2440f114318"},
		{"movsd xmm11,[r12+rax*8]", func(a *Asm) { a.MovsdXmmMemIdx(X11, R12, RAX, 8, 0) }, "f2450f101cc4"},
		{"movsd [r12+rax*8],xmm12", func(a *Asm) { a.MovsdMemIdxXmm(R12, RAX, 8, 0, X12) }, "f2450f1124c4"},
		{"movq xmm2,rax", func(a *Asm) { a.MovqXmmReg(X2, RAX) }, "66480f6ed0"},
		{"movq xmm9,rax", func(a *Asm) { a.MovqXmmReg(X9, RAX) }, "664c0f6ec8"},
		{"movq rax,xmm11", func(a *Asm) { a.MovqRegXmm(RAX, X11) }, "664c0f7ed8"},
		{"movq rax,xmm3", func(a *Asm) { a.MovqRegXmm(RAX, X3) }, "66480f7ed8"},
		{"mov r11,[rdi+0x10]", func(a *Asm) { a.MovRegMem(R11, RDI, 16) }, "4c8b5f10"},
		{"mov [rdi+0x10],r11", func(a *Asm) { a.MovMemReg(RDI, 16, R11) }, "4c895f10"},
		{"add r11,0x1", func(a *Asm) { a.AddRegImm(R11, 1) }, "4983c301"},
		{"mov r11d,0x1", func(a *Asm) { a.MovRegImm32(R11, 1) }, "41bb01000000"},
		{"add r11,[rdi+0x10]", func(a *Asm) { a.AddRegMem(R11, RDI, 16) }, "4c035f10"},
		{"mov [r9],rax", func(a *Asm) { a.MovMemReg(R9, 0, RAX) }, "498901"},
		{"add rax,0x2", func(a *Asm) { a.AddRegImm(RAX, 2) }, "4883c002"},
		{"add r15,0x3e8", func(a *Asm) { a.AddRegImm(R15, 1000) }, "4981c7e8030000"},
		{"sub rax,0x2", func(a *Asm) { a.SubRegImm(RAX, 2) }, "4883e802"},
		{"cmp rax,0x12c", func(a *Asm) { a.CmpRegImm(RAX, 300) }, "4881f82c010000"},
		{"add qword [rdi+0x10],0x1", func(a *Asm) { a.AddMemImm(RDI, 16, 1) }, "4883471001"},
		{"add qword [rax],r15", func(a *Asm) { a.AddMemReg(RAX, 0, R15) }, "4c0138"},
		{"add qword [rdi+0x10],rax", func(a *Asm) { a.AddMemReg(RDI, 16, RAX) }, "48014710"},
		{"cmp qword [rsi+0x40],0x5", func(a *Asm) { a.CmpMemImm(RSI, 64, 5) }, "48837e4005"},
		{"cmp qword [r9],0x2710", func(a *Asm) { a.CmpMemImm(R9, 0, 10000) }, "49813910270000"},
		{"cmp qword [rdx+0x130],0x2", func(a *Asm) { a.CmpMemImm(RDX, 304, 2) }, "4883ba3001000002"},
		{"add rax,rcx", func(a *Asm) { a.AddRegReg(RAX, RCX) }, "4801c8"},
		{"sub rcx,[rdi+0x28]", func(a *Asm) { a.SubRegMem(RCX, RDI, 40) }, "482b4f28"},
		{"cmp rax,[rdi+0x18]", func(a *Asm) { a.CmpRegMem(RAX, RDI, 24) }, "483b4718"},
		{"cmp rax,rdx", func(a *Asm) { a.CmpRegReg(RAX, RDX) }, "4839d0"},
		{"test rcx,rcx", func(a *Asm) { a.TestRegReg(RCX, RCX) }, "4885c9"},
		{"neg rdx", func(a *Asm) { a.NegReg(RDX) }, "48f7da"},
		{"imul rax,rcx", func(a *Asm) { a.ImulRegReg(RAX, RCX) }, "480fafc1"},
		{"cqo", func(a *Asm) { a.Cqo() }, "4899"},
		{"idiv r8", func(a *Asm) { a.IdivReg(R8) }, "49f7f8"},
		{"btc rax,0x3f", func(a *Asm) { a.BtcRegImm(RAX, 63) }, "480fbaf83f"},
		{"and eax,ecx", func(a *Asm) { a.AndRegReg32(RAX, RCX) }, "21c8"},
		{"or eax,ecx", func(a *Asm) { a.OrRegReg32(RAX, RCX) }, "09c8"},
		{"xor eax,ecx", func(a *Asm) { a.XorRegReg32(RAX, RCX) }, "31c8"},
		{"and ecx,0x1f", func(a *Asm) { a.AndRegImm32(RCX, 31) }, "83e11f"},
		{"shl eax,cl", func(a *Asm) { a.ShlRegCl32(RAX) }, "d3e0"},
		{"shr eax,cl", func(a *Asm) { a.ShrRegCl32(RAX) }, "d3e8"},
		{"sar eax,cl", func(a *Asm) { a.SarRegCl32(RAX) }, "d3f8"},
		{"mov eax,eax", func(a *Asm) { a.MovRegReg32(RAX, RAX) }, "89c0"},
		{"seta al", func(a *Asm) { a.SetccReg8(CondA, RAX) }, "0f97c0"},
		{"sete al", func(a *Asm) { a.SetccReg8(CondE, RAX) }, "0f94c0"},
		{"setnp cl", func(a *Asm) { a.SetccReg8(CondNP, RCX) }, "0f9bc1"},
		{"movzx eax,al", func(a *Asm) { a.MovzxReg32Reg8(RAX, RAX) }, "0fb6c0"},
		{"and al,cl", func(a *Asm) { a.AndRegReg8(RAX, RCX) }, "20c8"},
		{"or al,cl", func(a *Asm) { a.OrRegReg8(RAX, RCX) }, "08c8"},
		{"jne rel32", func(a *Asm) { a.JccFwd(CondNE) }, "0f8500000000"},
		{"jae rel32", func(a *Asm) { a.JccFwd(CondAE) }, "0f8300000000"},
		{"jmp rel32", func(a *Asm) { a.JmpFwd() }, "e900000000"},
		{"call rax", func(a *Asm) { a.CallReg(RAX) }, "ffd0"},
		{"call r8", func(a *Asm) { a.CallReg(R8) }, "41ffd0"},
		{"ret", func(a *Asm) { a.Ret() }, "c3"},
	}
	for _, tc := range cases {
		var a Asm
		tc.emit(&a)
		if got := hex.EncodeToString(a.Buf); got != tc.want {
			t.Errorf("%s: got %s want %s", tc.name, got, tc.want)
		}
	}
}

// TestPatch32 pins the rel32 fixup arithmetic: the displacement is
// relative to the end of the 4-byte field.
func TestPatch32(t *testing.T) {
	var a Asm
	off := a.JmpFwd() // 5 bytes, placeholder at 1
	a.Ret()           // target at 6... patch to jump over it
	target := a.Len()
	a.Patch32(off, target)
	want := "e901000000c3"
	if got := hex.EncodeToString(a.Buf); got != want {
		t.Errorf("patched: got %s want %s", got, want)
	}
	// Backward: jmp to offset 0 from a jmp starting at 6.
	off2 := a.JmpFwd()
	a.Patch32(off2, 0)
	if got := hex.EncodeToString(a.Buf[6:]); got != "e9f5ffffff" {
		t.Errorf("backward: got %s want e9f5ffffff", got)
	}
}
