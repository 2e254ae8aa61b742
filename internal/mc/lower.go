// LIR → amd64 lowering.
//
// Execution model: the canonical register file stays in memory — the same
// pooled []float64 / []Tag the threaded and unfused executors run over —
// and generated code addresses it off RBX (floats) and R13 (tags), with
// the arena cells off R12, the activation record off RDI and the
// per-engine environment off RSI. That choice IS the
// deopt/OSR bridge contract: at any exit the register file is already the
// complete activation state, so delegation to the reference executor, OSR
// materialization and deopt reconstruction need zero flush code and cannot
// drift from the other tiers.
//
// Budget discipline matches the fused tier exactly: steps accumulate in
// R15 (flushed in static increments, not per-op), and the only budget
// checks are one at entry (performed by the Go run loop) plus one per
// taken jump — if steps + cost[target] would exceed the budget, the code
// exits with a delegate record and the reference loop finishes the
// activation, tripping the budget at the bit-identical op.
//
// Ops whose semantics live in Go (allocation, math builtins) compile to a
// runtime-exit: the run loop executes that single op with reference
// semantics and re-enters at the next op's offset. Hot ops with a cheap
// common case — modulo, global loads/number-stores, raw element counts,
// calls into a function that has machine code of its own — compile to an
// inline fast path whose guards exit to the same runtime handler, so both
// routes produce identical bits.
// Guard failures and unmapped accesses compile to a delegate-exit *before*
// any side effect, so the reference loop re-executes the op and produces
// the identical bailout or crash.
package mc

import (
	"errors"
	"math"

	"github.com/jitbull/jitbull/internal/heap"
	"github.com/jitbull/jitbull/internal/interp"
	"github.com/jitbull/jitbull/internal/lir"
	"github.com/jitbull/jitbull/internal/native"
	"github.com/jitbull/jitbull/internal/value"
)

// ErrUnsupported marks code the lowering declines; the engine falls back
// to the threaded tier silently (legitimate tiering, not a failure).
var ErrUnsupported = errors.New("mc: unsupported code shape")

// Exit kinds generated code reports in RAX (see exec_amd64.go's run loop).
const (
	exitRet      = 1 // the KRet* op left result kind and payload in the record
	exitDelegate = 2 // resume the reference loop at record.exitpc
	exitRuntime  = 3 // execute the op at record.exitpc in Go, re-enter after
	// A direct call (emitCall) came back with something other than exitRet:
	// the caller, suspended in the call op at record.exitpc, returns this
	// kind in turn, so the whole chain unwinds to the trampoline by plain
	// RETs and Go finishes it from the records, innermost first.
	exitUnwind = 4
	// A direct call returned a result the inline check does not take (it
	// wants coercion, a bailout or a deopt): the callee is done and
	// accounted for, its result sits in the caller's record, and Go applies
	// native.FinishCall to the call op at record.exitpc.
	exitCallRet = 5
)

// Activation-record field offsets (off RDI), shared with the trampoline
// (enter_amd64.s) and the mcact struct (exec_amd64.go); TestFrameOffsets
// asserts them with unsafe.Offsetof. A record holds no pointer: generated
// code creates the record of a direct callee itself, and generated code
// never writes a Go pointer.
const (
	fExitPC  = 0  // exit operand: LIR pc
	fSteps   = 8  // step counter (R15) while the activation is not running
	fChecks  = 16 // block-check counter, bumped in memory at taken jumps
	fMaxOps  = 24 // step budget
	fKind    = 32 // exit kind of a direct callee its caller unwound from
	fResKind = 40 // native.ResultKind of the return value (exitRet, exitCallRet)
	fResVal  = 48 // its payload
	fRegsOff = 56 // direct callee: its window's offset in the register-stack chunk

	frameSize = 64
)

// frameDepth is the number of activation records in an environment's frame
// stack, and with it the deepest chain of direct calls: one more takes the
// slow path through Go, whose next entry into generated code starts a new
// machine stack budget. The trampoline reserves 8 bytes of goroutine stack
// per record for the nested return addresses (enterStack).
const (
	frameDepth = 64
	enterStack = 8 * (frameDepth + 1)
)

// Environment field offsets (off RSI): what generated code needs of the
// engine it runs in, filled once per engine (mcenv in exec_amd64.go) apart
// from the few fields the run loop refreshes before every entry.
const (
	eTop       = 0  // arena allocation top (refreshed)
	eCodeBase  = 8  // arena code-region base
	eCode      = 16 // &code[0]: the arena's code-pointer cells (addresses from codeBase)
	eHandleLen = 24 // live handle count (refreshed)
	eCells     = 32 // &cells[0] (R12; refreshed): the heap cells below top
	eHandles   = 40 // &handles[0] (refreshed)

	// Global-slot window: hooks that expose their backing []value.Value
	// (the engine) let generated code service KLoadGlobal / KStoreGlobalNum
	// inline; hooks that don't leave the length 0 and every global op takes
	// the runtime-exit slow path through GlobalGet/GlobalSet.
	eGlobalsLen = 48 // number of exposed global slots
	eGlobals    = 56 // &globals[0] (value.Value layout via value.Layout)

	// Direct calls. Hooks without an environment leave the table length 0
	// and every call takes the runtime-exit slow path through CallFunction.
	eTableLen = 64  // call-table entries
	eTable    = 72  // &table[0] (callSlot layout: the c* offsets)
	eNFrames  = 80  // records of the frame stack in use
	eSteps    = 88  // *int64: the VM's step counter
	eNatSteps = 96  // *int64: its native share
	eMaxSteps = 104 // *int64: the budget both are held against
	eDepth    = 112 // *int: the VM's call depth
	ePoolTop  = 120 // *int: first free register of the pool's chunk (refreshed)
	eChunkLen = 128 // size of that chunk in registers (refreshed)
	eDirect   = 136 // counter: direct calls made
	eUnwinds  = 144 // counter: direct calls that came back with a non-return exit
)

// Call-table slot field offsets: one slot per function of the program,
// indexed by a call op's Aux.
const (
	cEntry     = 0  // entry address; 0 while the function may not be called directly
	cNumRegs   = 8  // the callee's register window
	cNumParams = 16 // its parameter count
	cCost0     = 24 // its entry block's straight-line cost (Program.Cost[0])
	cCalls     = 32 // *int: the engine's call counter for the function

	slotSize = 40
)

// Host is the engine side of an Env: the hooks generated code's slow paths
// call, plus what direct calls need of the engine.
type Host interface {
	native.Hooks
	// Globals is the backing array behind GlobalGet / GlobalSet (the global
	// window of the inline global ops).
	Globals() []value.Value
	// MCEnv returns the environment the host built with NewEnv (nil when it
	// runs without one).
	MCEnv() *Env
	// ReturnDirect is the post-call half of the dispatch of function fn for
	// an activation generated code called directly and Go had to finish:
	// res, status and err are how the activation ended, exactly what the
	// host's own native dispatch would have seen, and the returned value or
	// error is what CallFunction would have returned — steps charged,
	// bailout re-run in the interpreter, deopt resumed, call depth given
	// back. args are the call's boxed arguments when status is StatusBail
	// (the re-run needs them), nil otherwise.
	ReturnDirect(fn int, args []value.Value, res native.Result, status native.Status, err error) (value.Value, error)
}

// maxExactInt mirrors value.Mod's int-fast-path magnitude bound (2^53).
const maxExactInt = 9007199254740992

// Program is relocatable machine code for one function plus the side
// tables the run loop needs. Install (install_amd64.go) copies Buf into a
// W^X page pair to produce an executable Unit.
type Program struct {
	Code *lir.Code
	Buf  []byte
	// Off[pc] is the entry offset of op pc: the address generated jumps
	// target, the run loop re-enters after runtime ops, and OSR enters at
	// loop headers. Every offset is reachable with the accumulated step
	// counter already flushed.
	Off []int32
	// Cost[pc] is the worst-case step charge from pc to the next budget
	// check (taken jump) or exit — the fused tier's computeCost shape over
	// raw ops.
	Cost []int32
	// RT[pc] marks ops the Go run loop executes (runtime-exit ops).
	RT []bool
	// HostStep[pc] tells the run loop whether to charge the op's step when
	// servicing a runtime exit at pc. True for every RT op (their step is
	// never in the compiled pending count). For hybrid ops — inline fast
	// path with a runtime slow exit (KMod, the global ops, KElemsRaw, the
	// call ops) —
	// the op's step is baked into the flush the fall-through path reaches,
	// so the host charges it only when the slow-path re-entry skips that
	// flush: next op is a block leader (the flush sits before its entry
	// offset), a runtime op (the host never re-enters native code before
	// it), or the end of the stream. Terminal slow-path outcomes (crash,
	// bail, deopt) never reach any flush; the run loop charges the step on
	// those exits itself.
	HostStep []bool
}

type stubKey struct {
	pc   int32
	kind uint8
}

type lowerer struct {
	a    Asm
	code *lir.Code
	cost []int32
	off  []int32
	rt   []bool
	// hybrid marks ops compiled as an inline fast path with a runtime-exit
	// slow path (KMod, the global ops, KElemsRaw, calls): their step is in the
	// compiled pending count, so the host charges it only when the slow
	// re-entry skips the downstream flush.
	hybrid []bool
	fix    []jumpFixup
	stubs  map[stubKey][]int
	pend   int32
}

type jumpFixup struct {
	at int
	pc int32
}

// Lower compiles code to relocatable amd64 bytes. It never partially
// lowers: any op kind outside the supported set returns ErrUnsupported
// (the current LIR instruction set is fully covered; the guard is for
// future kinds).
func Lower(code *lir.Code) (*Program, error) {
	n := len(code.Ops)
	if n == 0 {
		return nil, ErrUnsupported
	}
	for i := range code.Ops {
		if code.Ops[i].Kind >= lir.KindCount {
			return nil, ErrUnsupported
		}
	}
	lo := &lowerer{
		code:   code,
		cost:   computeCost(code.Ops),
		off:    make([]int32, n),
		rt:     make([]bool, n),
		hybrid: make([]bool, n),
		stubs:  map[stubKey][]int{},
	}
	leaders := make([]bool, n+1)
	leaders[0] = true
	for i := range code.Ops {
		op := &code.Ops[i]
		if op.Kind == lir.KJump || op.Kind == lir.KBranchFalse {
			if int(op.Target) <= n {
				leaders[op.Target] = true
			}
		}
		if op.Kind == lir.KOSRPoint {
			leaders[i] = true // OSR enters here with a fresh step count
		}
	}
	for i := range code.Ops {
		if leaders[i] {
			lo.flush(0)
		}
		lo.off[i] = int32(lo.a.Len())
		lo.emitOp(int32(i), &code.Ops[i])
	}
	// Fallthrough off the end: delegate at pc=n — the reference loop's
	// empty tail returns undefined with the exact steps/checks.
	lo.flush(0)
	lo.exit(int32(n), exitDelegate)
	lo.emitStubs()
	for _, fx := range lo.fix {
		lo.a.Patch32(fx.at, int(lo.off[fx.pc]))
	}
	hostStep := make([]bool, n)
	for i := range code.Ops {
		switch {
		case lo.rt[i]:
			hostStep[i] = true
		case lo.hybrid[i]:
			hostStep[i] = i+1 == n || leaders[i+1] || lo.rt[i+1]
		}
	}
	return &Program{Code: code, Buf: lo.a.Buf, Off: lo.off, Cost: lo.cost, RT: lo.rt, HostStep: hostStep}, nil
}

// computeCost is the fused tier's backward cost pass over raw ops: the
// step charge from op i to the next control transfer, so a single check
// at block entry covers the whole straight-line run.
func computeCost(ops []lir.Op) []int32 {
	n := len(ops)
	cost := make([]int32, n+1)
	for i := n - 1; i >= 0; i-- {
		var own int32 = 1
		if ops[i].Kind == lir.KOSRPoint {
			own = 0
		}
		switch ops[i].Kind {
		case lir.KJump, lir.KRetNum, lir.KRetObj, lir.KRetUndef:
			cost[i] = own
		default:
			cost[i] = own + cost[i+1]
		}
	}
	return cost
}

// flush materializes the statically-accumulated step count (plus extra)
// into R15. Every exit path and every label runs with pend == 0.
func (lo *lowerer) flush(extra int32) {
	if v := lo.pend + extra; v > 0 {
		lo.a.AddRegImm(R15, v)
	}
	lo.pend = 0
}

// exit emits an inline exit: record the pc operand and return the kind to
// the trampoline.
func (lo *lowerer) exit(pc int32, kind int32) {
	lo.a.MovRegImm32(RCX, pc)
	lo.a.MovMemReg(RDI, fExitPC, RCX)
	lo.a.MovRegImm32(RAX, kind)
	lo.a.Ret()
}

// toStub emits a forward jcc whose target is the (pc, kind) exit stub,
// emitted out of line after the body so hot paths stay dense.
func (lo *lowerer) toStub(cc Cond, pc int32, kind uint8) {
	at := lo.a.JccFwd(cc)
	k := stubKey{pc, kind}
	lo.stubs[k] = append(lo.stubs[k], at)
}

func (lo *lowerer) emitStubs() {
	// Deterministic order: by pc then kind. The map is small; scan pcs.
	for pc := int32(0); pc <= int32(len(lo.code.Ops)); pc++ {
		for _, kind := range []uint8{exitDelegate, exitRuntime, exitUnwind, exitCallRet} {
			k := stubKey{pc, kind}
			sites, ok := lo.stubs[k]
			if !ok {
				continue
			}
			at := lo.a.Len()
			for _, s := range sites {
				lo.a.Patch32(s, at)
			}
			switch kind {
			case exitUnwind:
				// RDI is still the callee's record, R15 its step count and
				// RAX its exit kind: park both in the record for Go, step
				// back to the caller's record and counter, and pass the
				// unwind on.
				lo.a.MovMemReg(RDI, fSteps, R15)
				lo.a.MovMemReg(RDI, fKind, RAX)
				lo.a.SubRegImm(RDI, frameSize)
				lo.a.MovRegMem(R15, RDI, fSteps)
				lo.a.AddMemImm(RSI, eUnwinds, 1)
			case exitCallRet:
				// The callee's result kind (RCX) and payload (RDX) move into
				// the caller's record, free until its own return.
				lo.a.MovMemReg(RDI, fResKind, RCX)
				lo.a.MovMemReg(RDI, fResVal, RDX)
			}
			lo.exit(pc, int32(kind))
		}
	}
}

// slot returns the byte displacement of float register r off RBX.
func slot(r int32) int32 { return r * 8 }

// runtimeOp emits a runtime-exit for ops whose semantics execute in Go.
// The Go handler charges the op's step itself, so only the accumulated
// count is flushed.
func (lo *lowerer) runtimeOp(pc int32) {
	lo.flush(0)
	lo.rt[pc] = true
	lo.exit(pc, exitRuntime)
}

// mappedCheck emits the test that the address in RAX is mapped heap —
// (uint64)addr < top, the only cells R12 addresses — delegating to the
// reference loop otherwise: it performs the access when the address is in
// the code region (which the arena backs separately) and reproduces the
// exact CrashError when it is unmapped.
func (lo *lowerer) mappedCheck(pc int32) {
	lo.a.CmpRegMem(RAX, RSI, eTop)
	lo.toStub(CondAE, pc, exitDelegate)
}

// jumpTo emits the taken-jump sequence: charge the pending steps, bump
// the block-check counter, and either delegate (budget within reach of
// the target's straight-line cost) or jump.
func (lo *lowerer) jumpTo(target int32) {
	lo.a.AddMemImm(RDI, fChecks, 1)
	lo.a.MovRegReg(RAX, R15)
	lo.a.AddRegImm(RAX, lo.cost[target])
	lo.a.CmpRegMem(RAX, RDI, fMaxOps)
	lo.toStub(CondG, target, exitDelegate)
	at := lo.a.JmpFwd()
	lo.fix = append(lo.fix, jumpFixup{at, target})
}

// cmpResult stores the 0/1 comparison outcome held in AL.
func (lo *lowerer) cmpResult(dst int32) {
	lo.a.MovzxReg32Reg8(RAX, RAX)
	lo.a.Cvtsi2sdXmmReg(X0, RAX, false)
	lo.a.MovsdMemXmm(RBX, slot(dst), X0)
}

func (lo *lowerer) emitOp(pc int32, op *lir.Op) {
	a := &lo.a
	switch op.Kind {
	case lir.KNop:
		lo.pend++
	case lir.KOSRPoint:
		// Charges no step (the reference loop undoes its increment).
	case lir.KConst:
		a.MovRegImm64(RAX, math.Float64bits(op.Imm))
		a.MovMemReg(RBX, slot(op.Dst), RAX)
		lo.pend++
	case lir.KMove, lir.KMoveTag:
		a.MovRegMem(RAX, RBX, slot(op.A))
		a.MovMemReg(RBX, slot(op.Dst), RAX)
		if op.Kind == lir.KMoveTag {
			a.MovzxRegMem8(RCX, R13, op.A)
			a.MovMem8Reg(R13, op.Dst, RCX)
		}
		lo.pend++
	case lir.KAdd, lir.KSub, lir.KMul, lir.KDiv:
		a.MovsdXmmMem(X0, RBX, slot(op.A))
		switch op.Kind {
		case lir.KAdd:
			a.AddsdXmmMem(X0, RBX, slot(op.B))
		case lir.KSub:
			a.SubsdXmmMem(X0, RBX, slot(op.B))
		case lir.KMul:
			a.MulsdXmmMem(X0, RBX, slot(op.B))
		default:
			a.DivsdXmmMem(X0, RBX, slot(op.B))
		}
		a.MovsdMemXmm(RBX, slot(op.Dst), X0)
		lo.pend++
	case lir.KNeg:
		// IEEE negation is a sign-bit flip — Go's -x for every input
		// including NaN and ±0.
		a.MovRegMem(RAX, RBX, slot(op.A))
		a.BtcRegImm(RAX, 63)
		a.MovMemReg(RBX, slot(op.Dst), RAX)
		lo.pend++
	case lir.KNot:
		// !truthy(a) ⟺ a == 0 or NaN ⟺ ZF after ucomisd 0.0, a.
		a.XorpsXmmXmm(X0, X0)
		a.UcomisdXmmMem(X0, RBX, slot(op.A))
		a.SetccReg8(CondE, RAX)
		lo.cmpResult(op.Dst)
		lo.pend++
	case lir.KCmp:
		lo.emitCmp(op)
		lo.pend++
	case lir.KBitAnd, lir.KBitOr, lir.KBitXor:
		// ToInt32 ≡ the low 32 bits of cvttsd2si-64 for every input (the
		// 0x8000000000000000 overflow sentinel's low half is 0, matching
		// the explicit NaN/Inf→0 branch).
		a.Cvttsd2siRegMem(RAX, RBX, slot(op.A), true)
		a.Cvttsd2siRegMem(RCX, RBX, slot(op.B), true)
		switch op.Kind {
		case lir.KBitAnd:
			a.AndRegReg32(RAX, RCX)
		case lir.KBitOr:
			a.OrRegReg32(RAX, RCX)
		default:
			a.XorRegReg32(RAX, RCX)
		}
		a.Cvtsi2sdXmmReg(X0, RAX, false)
		a.MovsdMemXmm(RBX, slot(op.Dst), X0)
		lo.pend++
	case lir.KShl, lir.KShr, lir.KUshr:
		a.Cvttsd2siRegMem(RAX, RBX, slot(op.A), true)
		a.Cvttsd2siRegMem(RCX, RBX, slot(op.B), true)
		a.AndRegImm32(RCX, 31)
		switch op.Kind {
		case lir.KShl:
			a.ShlRegCl32(RAX)
			a.Cvtsi2sdXmmReg(X0, RAX, false)
		case lir.KShr:
			a.SarRegCl32(RAX)
			a.Cvtsi2sdXmmReg(X0, RAX, false)
		default: // KUshr: uint32 result, zero-extended by the 32-bit shift
			a.ShrRegCl32(RAX)
			a.Cvtsi2sdXmmReg(X0, RAX, true)
		}
		a.MovsdMemXmm(RBX, slot(op.Dst), X0)
		lo.pend++
	case lir.KMod:
		lo.emitMod(pc, op)
		lo.pend++
	case lir.KJump:
		lo.flush(1) // the jump op's own step, charged before the check
		lo.jumpTo(op.Target)
	case lir.KBranchFalse:
		lo.flush(1) // charged whether or not taken
		a.XorpsXmmXmm(X0, X0)
		a.UcomisdXmmMem(X0, RBX, slot(op.A))
		skip := a.JccFwd(CondNE) // truthy: fall through, no check
		lo.jumpTo(op.Target)
		a.Patch32(skip, a.Len())
	case lir.KUnbox, lir.KGuardType:
		lo.flush(0)
		a.MovzxRegMem8(RAX, R13, op.A)
		if op.Aux == 1 {
			a.CmpRegImm(RAX, 3) // TagObject
			lo.toStub(CondNE, pc, exitDelegate)
		} else {
			a.SubRegImm(RAX, 1) // tag-1 ∈ {0,1} ⟺ Number or Boolean
			a.CmpRegImm(RAX, 1)
			lo.toStub(CondA, pc, exitDelegate)
		}
		a.MovRegMem(RCX, RBX, slot(op.A))
		a.MovMemReg(RBX, slot(op.Dst), RCX)
		a.MovzxRegMem8(RCX, R13, op.A)
		a.MovMem8Reg(R13, op.Dst, RCX)
		lo.pend++
	case lir.KElemsHandle, lir.KAddrOf:
		lo.flush(0)
		// int32(regs[a]) via the 32-bit cvttsd2si (Go's exact conversion),
		// zero-extended so one unsigned compare covers h<0 and h>=len.
		a.Cvttsd2siRegMem(RCX, RBX, slot(op.A), false)
		a.CmpRegMem(RCX, RSI, eHandleLen)
		lo.toStub(CondAE, pc, exitDelegate)
		a.MovRegMem(RDX, RSI, eHandles)
		a.MovRegMemIdx(RAX, RDX, RCX, 8, 0)
		a.AddRegImm(RAX, heap.HeaderCells)
		a.Cvtsi2sdXmmReg(X0, RAX, true)
		a.MovsdMemXmm(RBX, slot(op.Dst), X0)
		lo.pend++
	case lir.KInitLen:
		lo.flush(0)
		a.Cvttsd2siRegMem(RAX, RBX, slot(op.A), true)
		a.SubRegImm(RAX, heap.HeaderCells)
		lo.mappedCheck(pc)
		a.MovsdXmmMemIdx(X0, R12, RAX, 8, 0)
		a.MovsdMemXmm(RBX, slot(op.Dst), X0)
		lo.pend++
	case lir.KBoundsCheck:
		lo.flush(0)
		a.MovsdXmmMem(X0, RBX, slot(op.A))
		a.Cvttsd2siRegXmm(RAX, X0, true)
		a.Cvtsi2sdXmmReg(X1, RAX, true)
		a.UcomisdXmmXmm(X1, X0)
		lo.toStub(CondNE, pc, exitDelegate) // not integral
		lo.toStub(CondP, pc, exitDelegate)  // NaN
		a.TestRegReg(RAX, RAX)
		lo.toStub(CondS, pc, exitDelegate) // negative
		a.UcomisdXmmMem(X0, RBX, slot(op.B))
		lo.toStub(CondP, pc, exitDelegate)  // NaN length
		lo.toStub(CondAE, pc, exitDelegate) // idx >= length
		lo.pend++
	case lir.KLoadElem:
		lo.flush(0)
		lo.elemAddr(op)
		lo.mappedCheck(pc)
		a.MovsdXmmMemIdx(X0, R12, RAX, 8, 0)
		a.MovsdMemXmm(RBX, slot(op.Dst), X0)
		lo.pend++
	case lir.KStoreElem:
		lo.flush(0)
		lo.elemAddr(op)
		lo.mappedCheck(pc)
		a.MovsdXmmMem(X0, RBX, slot(op.C))
		a.MovsdMemIdxXmm(R12, RAX, 8, 0, X0)
		lo.pend++
	case lir.KCodeBase:
		a.Cvtsi2sdXmmMem(X0, RSI, eCodeBase)
		a.MovsdMemXmm(RBX, slot(op.Dst), X0)
		lo.pend++
	case lir.KRetNum, lir.KRetObj, lir.KRetUndef:
		// The result goes into the record, where a direct caller's inline
		// return sequence and the run loop both read it.
		lo.flush(1)
		kind := native.ResUndef
		switch op.Kind {
		case lir.KRetNum:
			kind = native.ResNum
		case lir.KRetObj:
			kind = native.ResObject
		}
		if kind == native.ResUndef {
			a.XorRegReg32(RCX, RCX)
		} else {
			a.MovRegMem(RCX, RBX, slot(op.A))
		}
		a.MovMemReg(RDI, fResVal, RCX)
		a.MovRegImm32(RAX, int32(kind))
		a.MovMemReg(RDI, fResKind, RAX)
		a.MovRegImm32(RAX, exitRet)
		a.Ret()
	case lir.KLoadGlobal:
		lo.emitLoadGlobal(pc, op)
		lo.pend++
	case lir.KStoreGlobalNum:
		lo.emitStoreGlobalNum(pc, op)
		lo.pend++
	case lir.KElemsRaw:
		lo.emitElemsRaw(pc, op)
		lo.pend++
	case lir.KCall, lir.KCallSpec:
		lo.emitCall(pc, op)
	case lir.KMath, lir.KPow, lir.KSetLen, lir.KPush,
		lir.KPop, lir.KNewArr, lir.KStoreGlobalObj:
		lo.runtimeOp(pc)
	default:
		// Unreachable: Lower pre-screens kinds. Emit a delegate so even a
		// future gap stays semantics-preserving.
		lo.flush(0)
		lo.exit(pc, exitDelegate)
	}
}

// elemAddr computes int(regs[A]) + int(regs[B]) + Aux into RAX with Go's
// exact float→int conversions.
func (lo *lowerer) elemAddr(op *lir.Op) {
	lo.a.Cvttsd2siRegMem(RAX, RBX, slot(op.A), true)
	lo.a.Cvttsd2siRegMem(RCX, RBX, slot(op.B), true)
	lo.a.AddRegReg(RAX, RCX)
	if op.Aux != 0 {
		lo.a.AddRegImm(RAX, op.Aux)
	}
}

// emitCmp lowers KCmp with NaN-false semantics. ucomisd x, y sets
// CF,ZF,PF = (x<y):100, (x>y):000, (x==y):010, unordered:111 — so A/AE
// after an operand-ordered compare give <,<=,>,>= with NaN false, and
// equality masks the parity flag explicitly.
func (lo *lowerer) emitCmp(op *lir.Op) {
	a := &lo.a
	switch int(op.Aux) {
	case 1: // a < b ⟺ b > a
		a.MovsdXmmMem(X0, RBX, slot(op.B))
		a.UcomisdXmmMem(X0, RBX, slot(op.A))
		a.SetccReg8(CondA, RAX)
	case 2: // a <= b ⟺ b >= a
		a.MovsdXmmMem(X0, RBX, slot(op.B))
		a.UcomisdXmmMem(X0, RBX, slot(op.A))
		a.SetccReg8(CondAE, RAX)
	case 3: // a > b
		a.MovsdXmmMem(X0, RBX, slot(op.A))
		a.UcomisdXmmMem(X0, RBX, slot(op.B))
		a.SetccReg8(CondA, RAX)
	case 4: // a >= b
		a.MovsdXmmMem(X0, RBX, slot(op.A))
		a.UcomisdXmmMem(X0, RBX, slot(op.B))
		a.SetccReg8(CondAE, RAX)
	case 5: // a == b: ZF and not parity (NaN==NaN is false)
		a.MovsdXmmMem(X0, RBX, slot(op.A))
		a.UcomisdXmmMem(X0, RBX, slot(op.B))
		a.SetccReg8(CondE, RAX)
		a.SetccReg8(CondNP, RCX)
		a.AndRegReg8(RAX, RCX)
	default: // a != b: not ZF or parity (NaN!=NaN is true)
		a.MovsdXmmMem(X0, RBX, slot(op.A))
		a.UcomisdXmmMem(X0, RBX, slot(op.B))
		a.SetccReg8(CondNE, RAX)
		a.SetccReg8(CondP, RCX)
		a.OrRegReg8(RAX, RCX)
	}
	lo.cmpResult(op.Dst)
}

// slowPath returns the jcc-emitter hybrid ops use for their guard exits:
// every failure route lands on this op's runtime-exit stub, so the slow
// path is native.RuntimeOp, called by the run loop.
func (lo *lowerer) slowPath(pc int32) func(Cond) {
	return func(cc Cond) { lo.toStub(cc, pc, exitRuntime) }
}

// Value-slot layout for the inline global window, resolved from the owning
// package so the baked displacements can never drift from the struct. The
// str field has no offset here on purpose: generated code must never touch
// the pointer-carrying field.
var valSize, valTyp, valNum, valRef = func() (int32, int32, int32, int32) {
	s, t, n, r := value.Layout()
	return int32(s), int32(t), int32(n), int32(r)
}()

// emitLoadGlobal inlines KLoadGlobal against the hooks-exposed global
// window: dispatch on the slot's type byte with exactly the reference
// unboxing (Number/Boolean keep their payload, Array boxes the handle,
// everything else is NaN/TagOther). Hooks with no window — and slots
// beyond it — take the runtime exit through GlobalGet, which is the same
// mapping in Go.
func (lo *lowerer) emitLoadGlobal(pc int32, op *lir.Op) {
	a := &lo.a
	lo.flush(0)
	lo.hybrid[pc] = true
	toSlow := lo.slowPath(pc)

	a.MovRegImm32(RAX, op.Aux)
	a.CmpRegMem(RAX, RSI, eGlobalsLen)
	toSlow(CondAE) // slot outside the window (or no window at all)
	disp := op.Aux * valSize
	a.MovRegMem(RDX, RSI, eGlobals)
	a.MovzxRegMem8(RAX, RDX, disp+valTyp)
	// Each arm stores the payload and leaves the native tag in RAX for the
	// shared tag store at the join.
	a.CmpRegImm(RAX, int32(value.Number))
	notNum := a.JccFwd(CondNE)
	a.MovRegMem(RCX, RDX, disp+valNum)
	a.MovMemReg(RBX, slot(op.Dst), RCX)
	a.MovRegImm32(RAX, int32(native.TagNumber))
	join1 := a.JmpFwd()
	a.Patch32(notNum, a.Len())
	a.CmpRegImm(RAX, int32(value.Boolean))
	notBool := a.JccFwd(CondNE)
	a.MovRegMem(RCX, RDX, disp+valNum)
	a.MovMemReg(RBX, slot(op.Dst), RCX)
	a.MovRegImm32(RAX, int32(native.TagBoolean))
	join2 := a.JmpFwd()
	a.Patch32(notBool, a.Len())
	a.CmpRegImm(RAX, int32(value.Array))
	notArr := a.JccFwd(CondNE)
	a.MovsxdRegMem(RCX, RDX, disp+valRef)
	a.Cvtsi2sdXmmReg(X0, RCX, true)
	a.MovsdMemXmm(RBX, slot(op.Dst), X0)
	a.MovRegImm32(RAX, int32(native.TagObject))
	join3 := a.JmpFwd()
	a.Patch32(notArr, a.Len())
	a.MovRegImm64(RCX, math.Float64bits(math.NaN()))
	a.MovMemReg(RBX, slot(op.Dst), RCX)
	a.MovRegImm32(RAX, int32(native.TagOther))
	a.Patch32(join1, a.Len())
	a.Patch32(join2, a.Len())
	a.Patch32(join3, a.Len())
	a.MovMem8Reg(R13, op.Dst, RAX)
}

// emitStoreGlobalNum inlines KStoreGlobalNum: write the slot's type byte
// (Number), the number payload, and a zero handle, leaving the string
// field untouched. Every reader of a Value dispatches on the type byte
// first, so a stale string payload is unobservable — and skipping it keeps
// generated code away from the pointer-carrying field (no write barriers
// outside Go). Hooks with no window take the runtime exit via GlobalSet.
func (lo *lowerer) emitStoreGlobalNum(pc int32, op *lir.Op) {
	a := &lo.a
	lo.flush(0)
	lo.hybrid[pc] = true
	toSlow := lo.slowPath(pc)

	a.MovRegImm32(RAX, op.Aux)
	a.CmpRegMem(RAX, RSI, eGlobalsLen)
	toSlow(CondAE)
	disp := op.Aux * valSize
	a.MovRegMem(RDX, RSI, eGlobals)
	a.MovRegImm32(RAX, int32(value.Number))
	a.MovMem8Reg(RDX, disp+valTyp, RAX)
	a.MovRegMem(RCX, RBX, slot(op.A))
	a.MovMemReg(RDX, disp+valNum, RCX)
	a.XorRegReg32(RAX, RAX)
	a.MovMem32Reg(RDX, disp+valRef, RAX)
}

// emitElemsRaw inlines KElemsRaw's success path: operand integral (the
// 64-bit truncate round-trips) and the int32-wrapped handle valid — the
// exact condition under which the reference op returns the elements
// pointer. Anything else (invalid handle, fractional operand, float out of
// int64 range) runtime-exits to the reference code, which reproduces the
// crash / truncate fallbacks bit-for-bit.
func (lo *lowerer) emitElemsRaw(pc int32, op *lir.Op) {
	a := &lo.a
	lo.flush(0)
	lo.hybrid[pc] = true
	toSlow := lo.slowPath(pc)

	a.Cvttsd2siRegMem(RAX, RBX, slot(op.A), true)
	a.Cvtsi2sdXmmReg(X1, RAX, true)
	a.UcomisdXmmMem(X1, RBX, slot(op.A))
	toSlow(CondNE)           // not integral (or beyond int64)
	toSlow(CondP)            // NaN
	a.MovsxdRegReg(RCX, RAX) // Go's int32(hnd) wrap, sign-extended
	a.CmpRegMem(RCX, RSI, eHandleLen)
	toSlow(CondAE) // invalid handle (negative is huge unsigned)
	a.MovRegMem(RDX, RSI, eHandles)
	a.MovRegMemIdx(RAX, RDX, RCX, 8, 0)
	a.AddRegImm(RAX, heap.HeaderCells)
	a.Cvtsi2sdXmmReg(X0, RAX, true)
	a.MovsdMemXmm(RBX, slot(op.Dst), X0)
}

// emitCall inlines KCall / KCallSpec for a callee that has machine code of
// its own: a direct native→native call that never leaves generated code.
// The callee is resolved through the environment's call table (the code
// stays position-independent and knows nothing about its callee but the
// index), and the sequence makes, before its first side effect, every check
// the Go path — RuntimeOp → CallFunction → dispatch → Env.Call — makes; a
// failed check is the op's runtime exit, so Go does the whole call exactly
// as it would have:
//
//   - the index is inside the table (hooks without an environment: length 0);
//   - the slot has an entry: the engine publishes one only while the
//     function has a unit, no compilation of it is in flight (dispatch
//     installs a finished one at the call boundary) and no fault injector
//     wants to see the dispatch;
//   - arity: the site passes exactly the callee's parameters (BoxParams
//     fills missing ones and drops surplus ones in Go);
//   - call depth below interp.MaxCallDepth (EnterCall raises the error);
//   - the callee's arena code pointer is intact (dispatch raises
//     HijackError — the control-flow-hijack oracle);
//   - the remaining step budget covers the callee's entry block (dispatch
//     reports exhaustion, the entry delegates a block that cannot finish);
//   - the callee's window fits the pool's current chunk behind the
//     caller's, and the frame stack has a free record (Go opens the next
//     chunk, and its next entry into generated code starts a new machine
//     stack budget).
//
// The commit charges what dispatch charges (depth, the function's call
// counter), carves the window, fills the callee's record, copies the
// arguments with the tags boxing would have produced, and calls. On exitRet
// the return sequence does the rest of dispatch (steps into the VM's
// counters, checks into the caller's, depth and window back) and stores a
// result FinishCall would store unchanged: a Number for a number call, an
// array for an object call. Any other result is exitCallRet; any other exit
// of the callee is exitUnwind.
func (lo *lowerer) emitCall(pc int32, op *lir.Op) {
	a := &lo.a
	args := lo.code.ArgLists[op.A]
	lo.flush(0)
	lo.hybrid[pc] = true
	toSlow := lo.slowPath(pc)
	n := int32(lo.code.NumRegs) // the callee's window starts behind ours
	sl := op.Aux * slotSize

	a.CmpMemImm(RSI, eTableLen, op.Aux)
	toSlow(CondBE)
	a.MovRegMem(RDX, RSI, eTable)
	a.MovRegMem(R8, RDX, sl+cEntry)
	a.TestRegReg(R8, R8)
	toSlow(CondE)
	a.CmpMemImm(RDX, sl+cNumParams, int32(len(args)))
	toSlow(CondNE)
	a.MovRegMem(R9, RSI, eDepth)
	a.CmpMemImm(R9, 0, interp.MaxCallDepth)
	toSlow(CondGE)
	if op.Aux < heap.CodeRegionCells {
		a.MovRegMem(RAX, RSI, eCode)
		a.MovRegMem(RAX, RAX, op.Aux*8)
		a.MovRegImm64(RCX, math.Float64bits(heap.CodeSentinel(int(op.Aux))))
		a.CmpRegReg(RAX, RCX)
		toSlow(CondNE)
	}
	a.MovRegMem(R10, RSI, eMaxSteps) // R10 = MaxSteps − steps: the callee's budget
	a.MovRegMem(R10, R10, 0)
	a.MovRegMem(RAX, RSI, eSteps)
	a.SubRegMem(R10, RAX, 0)
	a.CmpRegMem(R10, RDX, sl+cCost0)
	toSlow(CondL)
	a.MovRegMem(RCX, RSI, ePoolTop) // R11 = window offset, RAX = new top
	a.MovRegMem(R11, RCX, 0)
	a.MovRegMem(RAX, RDX, sl+cNumRegs)
	a.AddRegReg(RAX, R11)
	a.CmpRegMem(RAX, RSI, eChunkLen)
	toSlow(CondA)
	a.CmpMemImm(RSI, eNFrames, frameDepth)
	toSlow(CondAE)

	// Commit.
	a.MovMemReg(RCX, 0, RAX)
	a.AddMemImm(R9, 0, 1)
	a.MovRegMem(RAX, RDX, sl+cCalls)
	a.AddMemImm(RAX, 0, 1)
	a.AddMemImm(RSI, eNFrames, 1)
	a.AddMemImm(RSI, eDirect, 1)
	a.MovMemReg(RDI, fSteps, R15)
	a.MovMemReg(RDI, frameSize+fMaxOps, R10)
	a.MovMemReg(RDI, frameSize+fRegsOff, R11)
	a.MovRegImm32(RAX, 1) // the entry check just made
	a.MovMemReg(RDI, frameSize+fChecks, RAX)
	tag := native.TagOther // no argument has it: the first one loads RCX
	for i, ar := range args {
		dst, want := n+int32(i), native.TagNumber
		if op.C&(1<<i) != 0 {
			want = native.TagObject
			lo.copyHandle(dst, ar)
		} else {
			a.MovRegMem(RAX, RBX, slot(ar))
			a.MovMemReg(RBX, slot(dst), RAX)
		}
		if tag != want {
			tag = want
			a.MovRegImm32(RCX, int32(tag))
		}
		a.MovMem8Reg(R13, dst, RCX)
	}
	a.AddRegImm(RBX, slot(n))
	a.AddRegImm(R13, n)
	a.AddRegImm(RDI, frameSize)
	a.XorRegReg32(R15, R15)
	a.CallReg(R8)

	// Return: RDI, RBX, R13 and R15 are the callee's.
	a.CmpRegImm(RAX, exitRet)
	lo.toStub(CondNE, pc, exitUnwind)
	a.MovRegMem(RAX, RSI, eSteps)
	a.AddMemReg(RAX, 0, R15)
	a.MovRegMem(RAX, RSI, eNatSteps)
	a.AddMemReg(RAX, 0, R15)
	a.MovRegMem(RAX, RDI, fChecks)
	a.MovRegMem(RCX, RDI, fResKind)
	a.MovRegMem(RDX, RDI, fResVal)
	a.MovRegMem(R8, RDI, fRegsOff)
	a.SubRegImm(RDI, frameSize)
	a.SubRegImm(RBX, slot(n))
	a.SubRegImm(R13, n)
	a.AddMemReg(RDI, fChecks, RAX)
	a.MovRegMem(R15, RDI, fSteps)
	a.MovRegMem(RAX, RSI, eDepth)
	a.AddMemImm(RAX, 0, -1)
	a.MovRegMem(RAX, RSI, ePoolTop)
	a.MovMemReg(RAX, 0, R8)
	a.AddMemImm(RSI, eNFrames, -1)
	want, tag := native.ResNum, native.TagNumber
	if op.Kind == lir.KCall && op.B == 1 {
		want, tag = native.ResObject, native.TagObject
	}
	a.CmpRegImm(RCX, int32(want))
	lo.toStub(CondNE, pc, exitCallRet)
	a.MovMemReg(RBX, slot(op.Dst), RDX)
	if want == native.ResObject {
		lo.copyHandle(op.Dst, op.Dst)
	}
	a.MovRegImm32(RAX, int32(tag))
	a.MovMem8Reg(R13, op.Dst, RAX)
	lo.pend++
}

// copyHandle stores float64(int32(regs[src])) in regs[dst]: what an array
// handle becomes on its way through a boxed value (value.ArrayRef takes the
// int32, the unboxing side converts it back), with Go's exact conversions.
func (lo *lowerer) copyHandle(dst, src int32) {
	lo.a.Cvttsd2siRegMem(RAX, RBX, slot(src), false)
	lo.a.Cvtsi2sdXmmReg(X0, RAX, false)
	lo.a.MovsdMemXmm(RBX, slot(dst), X0)
}

// emitMod inlines value.Mod's int fast path under exactly its condition —
// both operands integral (cvttsd2si round-trip), divisor nonzero, both
// magnitudes under 2^53 — and runtime-exits to the full value.Mod
// otherwise. Both routes produce value.Mod's bits.
func (lo *lowerer) emitMod(pc int32, op *lir.Op) {
	a := &lo.a
	lo.flush(0)
	lo.hybrid[pc] = true // only the slow path exits; the fast path's step is in pend
	toSlow := lo.slowPath(pc)

	a.Cvttsd2siRegMem(RAX, RBX, slot(op.A), true)
	a.Cvtsi2sdXmmReg(X1, RAX, true)
	a.UcomisdXmmMem(X1, RBX, slot(op.A))
	toSlow(CondNE)
	toSlow(CondP)
	a.Cvttsd2siRegMem(RCX, RBX, slot(op.B), true)
	a.Cvtsi2sdXmmReg(X1, RCX, true)
	a.UcomisdXmmMem(X1, RBX, slot(op.B))
	toSlow(CondNE)
	toSlow(CondP)
	a.TestRegReg(RCX, RCX)
	toSlow(CondE) // y == 0 (incl. -0.0, which truncates to 0)
	a.MovRegImm64(RDX, maxExactInt)
	a.CmpRegReg(RAX, RDX)
	toSlow(CondGE)
	a.CmpRegReg(RCX, RDX)
	toSlow(CondGE)
	a.NegReg(RDX)
	a.CmpRegReg(RAX, RDX)
	toSlow(CondLE)
	a.CmpRegReg(RCX, RDX)
	toSlow(CondLE)
	a.MovRegReg(R8, RCX)
	a.Cqo()
	a.IdivReg(R8)
	a.Cvtsi2sdXmmReg(X0, RDX, true)
	a.MovsdMemXmm(RBX, slot(op.Dst), X0)
}
