package interp

import (
	"slices"

	"github.com/jitbull/jitbull/internal/bytecode"
)

// Superinstructions. The interpreter does not run fn.Code itself but an
// execution copy of it (stream), built on the function's first activation,
// in which the head of each hot straight-line group below carries one of
// these private opcodes and every other instruction stays where it is. So
// pcs keep their meaning: a jump target, an OSR header or a deopt resume pc
// that falls inside a group runs the original instructions from there on.
//
// A super-op takes its fast path only when every operand is a Number (and
// the local whose length it reads an Array), a store target may be
// overwritten in place (Value.CanSetNum) and the step budget covers the
// whole group; it then charges one step per constituent, exactly as the
// unfused ops would. Otherwise it runs its head op alone, exactly as that
// op's own case does, and execution continues at pc+1
// (TestFusedMatchesUnfused holds both paths to the unfused stream). Only a
// group's last op may fail (getelem), after the steps of the ops before it
// were charged. No group holds a jump, a call or a return, so back edges,
// OSR offers and calls are the unfused loop's.
//
// The super-ops are numbered on from the last bytecode opcode, which keeps
// the loop's switch one dense jump table.
const (
	opGlobalLocalGetElem = bytecode.OpSetLength + 1 + iota // loadglobal A; loadlocal B; getelem
	opLocalLengthMod                                       // loadlocal A; getlength; mod

	opConstAddStore // const A; add; storelocal B
	opConstModStore // const A; mod; storelocal B

	opConstLtJump // const A; lt; jumpiffalse B
	opConstEqJump // const A; eq; jumpiffalse B

	opConstAdd    // const A; add
	opConstMul    // const A; mul
	opConstMod    // const A; mod
	opConstBitAnd // const A; bitand

	opLocalAdd // loadlocal A; add
	opLocalMul // loadlocal A; mul

	opLocalLocal // loadlocal A; loadlocal B

	opLtJump // lt; jumpiffalse B
	opEqJump // eq; jumpiffalse B

	opAddStore // add; storelocal B

	// opUnknown replaces an instruction of fn.Code whose opcode is not a
	// bytecode one, so that it reaches the loop's unknown-opcode error
	// instead of running as a super-op.
	opUnknown
)

// group is one superinstruction: the opcodes it stands for, in order, and
// which of them lends its A operand to the super-op's B (0: none; the head
// keeps its own A).
type group struct {
	super bytecode.Op
	ops   []bytecode.Op
	b     int
}

// groups are tried at each pc in order, so a longer group wins over its
// prefix. They were chosen from the executed n-gram counts of the NoJIT
// Octane corpus, the storm programs and the OSR workload's reference runs:
// a group is here if it covers at least 1% of one corpus's steps, since
// every case the loop's switch gains costs the dispatch of all the others
// (DESIGN §15 item 7).
var groups = []group{
	{opGlobalLocalGetElem, ops(bytecode.OpLoadGlobal, bytecode.OpLoadLocal, bytecode.OpGetElem), 1},
	{opLocalLengthMod, ops(bytecode.OpLoadLocal, bytecode.OpGetLength, bytecode.OpMod), 0},

	{opConstAddStore, ops(bytecode.OpConst, bytecode.OpAdd, bytecode.OpStoreLocal), 2},
	{opConstModStore, ops(bytecode.OpConst, bytecode.OpMod, bytecode.OpStoreLocal), 2},

	{opConstLtJump, ops(bytecode.OpConst, bytecode.OpLt, bytecode.OpJumpIfFalse), 2},
	{opConstEqJump, ops(bytecode.OpConst, bytecode.OpEq, bytecode.OpJumpIfFalse), 2},

	{opConstAdd, ops(bytecode.OpConst, bytecode.OpAdd), 0},
	{opConstMul, ops(bytecode.OpConst, bytecode.OpMul), 0},
	{opConstMod, ops(bytecode.OpConst, bytecode.OpMod), 0},
	{opConstBitAnd, ops(bytecode.OpConst, bytecode.OpBitAnd), 0},

	{opLocalAdd, ops(bytecode.OpLoadLocal, bytecode.OpAdd), 0},
	{opLocalMul, ops(bytecode.OpLoadLocal, bytecode.OpMul), 0},

	{opLocalLocal, ops(bytecode.OpLoadLocal, bytecode.OpLoadLocal), 1},

	{opLtJump, ops(bytecode.OpLt, bytecode.OpJumpIfFalse), 1},
	{opEqJump, ops(bytecode.OpEq, bytecode.OpJumpIfFalse), 1},

	{opAddStore, ops(bytecode.OpAdd, bytecode.OpStoreLocal), 1},
}

func ops(o ...bytecode.Op) []bytecode.Op { return o }

// fuse builds the execution copy of fn: fn.Code with the head of every
// group that matches there replaced by its super-op. A group headed by a
// const matches only a Number constant, so its super-op tests no type for
// it at run time.
func fuse(fn *bytecode.Function) []bytecode.Instr {
	code := slices.Clone(fn.Code)
	for pc, in := range fn.Code {
		if in.Op >= opGlobalLocalGetElem {
			code[pc].Op = opUnknown
			continue
		}
		if g, ok := groupAt(fn, pc); ok {
			code[pc] = bytecode.Instr{Op: g.super, A: in.A}
			if g.b > 0 {
				code[pc].B = fn.Code[pc+g.b].A
			}
		}
	}
	return code
}

// groupAt returns the first group whose opcodes start at pc.
func groupAt(fn *bytecode.Function, pc int) (group, bool) {
	head := fn.Code[pc]
	if head.Op == bytecode.OpConst && !fn.Consts[head.A].IsNumber() {
		return group{}, false
	}
next:
	for _, g := range groups {
		if pc+len(g.ops) > len(fn.Code) {
			continue
		}
		for i, op := range g.ops {
			if fn.Code[pc+i].Op != op {
				continue next
			}
		}
		return g, true
	}
	return group{}, false
}

// stream is one function's execution copy; fn tells whose it is.
type stream struct {
	fn   *bytecode.Function
	code []bytecode.Instr
}

// codeOf returns the instructions the interpreter runs for fn: its
// execution copy, built on the first activation of fn on this VM and kept
// at fn.Index.
func (vm *VM) codeOf(fn *bytecode.Function) []bytecode.Instr {
	if i := fn.Index; uint(i) < uint(len(vm.streams)) && vm.streams[i].fn == fn {
		return vm.streams[i].code
	}
	code := fuse(fn)
	vm.setCode(fn, code)
	return code
}

// setCode keeps code as fn's execution copy.
func (vm *VM) setCode(fn *bytecode.Function, code []bytecode.Instr) {
	i := fn.Index
	if i < 0 {
		return
	}
	if i >= len(vm.streams) {
		vm.streams = append(vm.streams, make([]stream, max(i+1, len(vm.Prog.Funcs))-len(vm.streams))...)
	}
	vm.streams[i] = stream{fn, code}
}
