// Package native executes LIR code — the "machine code" tier of the
// simulated engine. It runs over unboxed float64 registers and the shared
// heap arena. Guards (unbox, bounds checks, ...) bail out to the caller,
// which re-executes the call in the interpreter; raw memory operations
// whose guards were (possibly wrongly) eliminated go straight to the
// arena, where an unmapped access is a simulated segfault.
package native

import (
	"fmt"
	"math"

	"github.com/jitbull/jitbull/internal/bytecode"
	"github.com/jitbull/jitbull/internal/faults"
	"github.com/jitbull/jitbull/internal/heap"
	"github.com/jitbull/jitbull/internal/lir"
	"github.com/jitbull/jitbull/internal/value"
)

// Tag is the runtime type tag carried alongside boxed registers
// (parameters, global loads, call results).
type Tag uint8

// Register tags.
const (
	TagOther Tag = iota
	TagNumber
	TagBoolean
	TagObject
	TagUndefined
)

// Status reports how a native execution ended.
type Status int

// Execution outcomes. StatusBail means a guard failed: the caller must
// re-execute the call in the interpreter. StatusDeopt means a speculative
// type guard (KCallSpec) failed mid-execution: Result.Deopt carries the
// reconstructed interpreter frame and the caller resumes interpreting at
// the matching bytecode pc — unlike a bail, the work done so far is kept.
const (
	StatusOK Status = iota
	StatusBail
	StatusDeopt
)

// ResultKind tags the returned value.
type ResultKind int

// Result kinds.
const (
	ResUndef ResultKind = iota
	ResNum
	ResObject
)

// Result is the value returned by a native execution. Steps reports the
// number of LIR ops executed, for the caller's budget accounting — it is
// bit-identical between the fused and unfused executors. Checks counts the
// amortized budget checks the fused executor performed (0 for unfused
// runs): the observability hook behind native.block_budget_checks.
type Result struct {
	Kind   ResultKind
	Val    float64
	Steps  int64
	Checks int64
	// Deopt is the reconstructed interpreter frame when Status is
	// StatusDeopt, nil otherwise.
	Deopt *DeoptState
}

// DeoptState is the interpreter frame rebuilt at a failed speculation
// guard. Locals are boxed from the frame map's static slot kinds — runtime
// tags are never trusted at a frame boundary — except the guarded call's
// own result, which is passed through exactly as the callee returned it
// (the interpreter applies its own coercion at the resume point, so the
// deopt is semantically invisible).
type DeoptState struct {
	Exit   int32 // index into lir.Code.DeoptExits
	Locals []value.Value
}

// Value boxes the result.
func (r Result) Value() value.Value {
	switch r.Kind {
	case ResNum:
		return value.Num(r.Val)
	case ResObject:
		return value.ArrayRef(int32(r.Val))
	default:
		return value.Undef()
	}
}

// Hooks is the runtime interface native code calls back into; the engine
// implements it.
type Hooks interface {
	// Arena is the shared heap.
	Arena() *heap.Arena
	// GlobalGet/GlobalSet access global variable slots.
	GlobalGet(slot int) value.Value
	GlobalSet(slot int, v value.Value)
	// CallFunction dispatches a nanojs call (through engine tiering).
	CallFunction(fnIdx int, args []value.Value) (value.Value, error)
	// Random is the deterministic script RNG.
	Random() float64
}

// BudgetError is returned when native execution exceeds its op budget.
type BudgetError struct{ Fn string }

// Error implements the error interface.
func (e *BudgetError) Error() string {
	return fmt.Sprintf("native op budget exhausted in %s", e.Fn)
}

// Pool holds the register files and call-argument space of native
// activations. Calls nest strictly, so both are LIFO: a register file is a
// window carved off the top of a chunked register stack and given back
// when its activation ends — whatever sizes a call chain alternates
// between, a steady state allocates nothing — and the argument area is an
// arena. A window that does not fit opens the next chunk rather than
// growing this one, because live windows are slices into their chunk. The
// zero Pool is ready to use; a nil Pool falls back to per-call allocation.
type Pool struct {
	chunks []regChunk
	cur    int // the chunk windows are carved from
	args   []value.Value
}

// regChunk is one fixed block of the register stack; top is its first free
// register.
type regChunk struct {
	floats []float64
	tags   []Tag
	top    int
}

// regChunkRegs is the size of one register-stack chunk in registers (9 KB).
const regChunkRegs = 1024

// getRegs leases a register file of n registers. Contents are not zeroed.
func (p *Pool) getRegs(n int) ([]float64, []Tag) {
	if p == nil {
		return make([]float64, n), make([]Tag, n)
	}
	if len(p.chunks) == 0 || p.chunks[p.cur].top+n > len(p.chunks[p.cur].floats) {
		p.nextChunk(n)
	}
	c := &p.chunks[p.cur]
	lo := c.top
	c.top += n
	return c.floats[lo:c.top:c.top], c.tags[lo:c.top:c.top]
}

// nextChunk makes the chunk after the current one (the first, in an empty
// pool) the current one, sized to hold a window of n registers.
func (p *Pool) nextChunk(n int) {
	if len(p.chunks) > 0 {
		p.cur++
	}
	if n < regChunkRegs {
		n = regChunkRegs
	}
	switch {
	case p.cur == len(p.chunks):
		p.chunks = append(p.chunks, regChunk{floats: make([]float64, n), tags: make([]Tag, n)})
	case len(p.chunks[p.cur].floats) < n:
		// Nothing above the stack top is live, so the chunk can be replaced.
		p.chunks[p.cur] = regChunk{floats: make([]float64, n), tags: make([]Tag, n)}
	}
}

// putRegs gives back the most recently leased register file.
func (p *Pool) putRegs(f []float64, _ []Tag) {
	if p == nil {
		return
	}
	c := &p.chunks[p.cur]
	c.top -= len(f)
	if c.top == 0 && p.cur > 0 {
		p.cur--
	}
}

// ExecWith is Exec with a fault-injection point at the dispatch boundary:
// the injector (may be nil) is evaluated before the first op executes, so
// an injected dispatch failure is always side-effect-free and the caller
// can degrade it to an interpreter re-execution. A KindPanic fault panics
// from this frame — containment is the caller's supervisor's job.
func ExecWith(code *lir.Code, args []value.Value, h Hooks, maxOps int64, pool *Pool, inj *faults.Injector) (Result, Status, error) {
	if err := inj.Check(faults.PointNative, code.Name); err != nil {
		return Result{}, StatusBail, err
	}
	return Exec(code, args, h, maxOps, pool)
}

// Exec runs code with the given arguments. maxOps bounds the number of LIR
// ops executed (0 means a large default). pool may be nil. When the code
// carries a fused form (lir.Code.Fused) execution runs the fused stream
// (execFusedFrom); results, Steps accounting, bail and crash behavior are
// bit-identical either way.
func Exec(code *lir.Code, args []value.Value, h Hooks, maxOps int64, pool *Pool) (Result, Status, error) {
	if maxOps <= 0 {
		maxOps = 1 << 40
	}
	regs, tags := pool.getRegs(code.NumRegs)
	defer pool.putRegs(regs, tags)
	boxParams(code, args, regs, tags)
	if code.Fused != nil {
		return execFusedFrom(code, regs, tags, h, maxOps, pool, 0)
	}
	return execSwitch(code, regs, tags, h, maxOps, pool, 0, 0)
}

// ExecUnfused runs code through the monolithic switch loop even when a
// fused form is attached — the reference executor the fused tier is
// benchmarked and differentially tested against.
func ExecUnfused(code *lir.Code, args []value.Value, h Hooks, maxOps int64, pool *Pool) (Result, Status, error) {
	if maxOps <= 0 {
		maxOps = 1 << 40
	}
	regs, tags := pool.getRegs(code.NumRegs)
	defer pool.putRegs(regs, tags)
	boxParams(code, args, regs, tags)
	return execSwitch(code, regs, tags, h, maxOps, pool, 0, 0)
}

// boxParams copies the boxed arguments into the frame's registers. A number
// or a boolean — what nearly every call into compiled code passes — is its
// payload and a tag, read in place: copying the 32-byte Value out first
// would load across the separate stores that just wrote its type and
// payload. Everything else, and a missing argument, goes through boxOther.
func boxParams(code *lir.Code, args []value.Value, regs []float64, tags []Tag) {
	regs, tags = regs[:code.NumParams], tags[:code.NumParams]
	for i := range regs {
		if i < len(args) {
			if t := args[i].Type(); t == value.Number || t == value.Boolean {
				tag := TagNumber
				if t == value.Boolean {
					tag = TagBoolean
				}
				regs[i], tags[i] = args[i].AsNumber(), tag
				continue
			}
		}
		regs[i], tags[i] = boxOther(args, i)
	}
}

// boxOther is the register and tag of parameter i when its argument is
// neither a number nor a boolean, or missing (undefined).
func boxOther(args []value.Value, i int) (float64, Tag) {
	var v value.Value
	if i < len(args) {
		v = args[i]
	}
	switch v.Type() {
	case value.Array:
		return float64(v.Handle()), TagObject
	case value.Undefined:
		return math.NaN(), TagUndefined
	}
	return math.NaN(), TagOther
}

// execSwitch is the unfused reference loop: one budget check and one
// switch dispatch per op, starting at pc0 with steps0 already charged.
// The fused executor delegates here (over the same register file) when a
// block-level budget check finds the limit within reach, which is what
// keeps BudgetError timing and Steps accounting bit-identical.
func execSwitch(code *lir.Code, regs []float64, tags []Tag, h Hooks, maxOps int64, pool *Pool, pc0 int, steps0 int64) (res Result, status Status, err error) {
	arena := h.Arena()
	truthy := func(v float64) bool { return v != 0 && v == v }
	steps := steps0
	defer func() { res.Steps = steps }()

	// Keep the dispatch loop's live set small. Both slices are passed whole
	// to RuntimeOp below, so with cap == len each carries no separate
	// capacity; with the op stream hoisted, that is what lets the register
	// allocator keep pc and the budget in registers (it spilled them
	// otherwise: +13% ns/step on the bench stage kernels).
	regs, tags = regs[:len(regs):len(regs)], tags[:len(tags):len(tags)]
	ops := code.Ops
	n := len(ops)
	for pc := pc0; pc < n; pc++ {
		steps++
		if steps > maxOps {
			return Result{}, StatusOK, &BudgetError{Fn: code.Name}
		}
		op := &ops[pc]
		switch op.Kind {
		case lir.KNop:
		case lir.KOSRPoint:
			// Loop-header OSR marker: a nop that charges no step, so Steps
			// is bit-identical to code compiled without OSR support. (The
			// loop-top increment already ran; undo it. A budget trip at the
			// marker is indistinguishable from tripping at the next real op.)
			steps--
		case lir.KConst:
			regs[op.Dst] = op.Imm
		case lir.KMove, lir.KMoveTag:
			regs[op.Dst] = regs[op.A]
			if op.Kind == lir.KMoveTag {
				tags[op.Dst] = tags[op.A]
			}
		case lir.KAdd:
			regs[op.Dst] = regs[op.A] + regs[op.B]
		case lir.KSub:
			regs[op.Dst] = regs[op.A] - regs[op.B]
		case lir.KMul:
			regs[op.Dst] = regs[op.A] * regs[op.B]
		case lir.KDiv:
			regs[op.Dst] = regs[op.A] / regs[op.B]
		case lir.KMod:
			regs[op.Dst] = value.Mod(regs[op.A], regs[op.B])
		case lir.KPow:
			regs[op.Dst] = math.Pow(regs[op.A], regs[op.B])
		case lir.KBitAnd:
			regs[op.Dst] = float64(value.ToInt32(regs[op.A]) & value.ToInt32(regs[op.B]))
		case lir.KBitOr:
			regs[op.Dst] = float64(value.ToInt32(regs[op.A]) | value.ToInt32(regs[op.B]))
		case lir.KBitXor:
			regs[op.Dst] = float64(value.ToInt32(regs[op.A]) ^ value.ToInt32(regs[op.B]))
		case lir.KShl:
			regs[op.Dst] = float64(value.ToInt32(regs[op.A]) << (value.ToUint32(regs[op.B]) & 31))
		case lir.KShr:
			regs[op.Dst] = float64(value.ToInt32(regs[op.A]) >> (value.ToUint32(regs[op.B]) & 31))
		case lir.KUshr:
			regs[op.Dst] = float64(value.ToUint32(regs[op.A]) >> (value.ToUint32(regs[op.B]) & 31))
		case lir.KNeg:
			regs[op.Dst] = -regs[op.A]
		case lir.KNot:
			if truthy(regs[op.A]) {
				regs[op.Dst] = 0
			} else {
				regs[op.Dst] = 1
			}
		case lir.KCmp:
			a, b := regs[op.A], regs[op.B]
			var res bool
			switch int(op.Aux) {
			case 1: // CmpLt
				res = a < b
			case 2:
				res = a <= b
			case 3:
				res = a > b
			case 4:
				res = a >= b
			case 5:
				res = a == b
			case 6:
				res = a != b
			}
			if res {
				regs[op.Dst] = 1
			} else {
				regs[op.Dst] = 0
			}
		case lir.KMath:
			regs[op.Dst] = mathFunc(bytecode.Builtin(op.Aux), regs[op.A], regs[op.B], h)
		case lir.KJump:
			pc = int(op.Target) - 1
		case lir.KBranchFalse:
			if !truthy(regs[op.A]) {
				pc = int(op.Target) - 1
			}
		case lir.KUnbox, lir.KGuardType:
			tag := tags[op.A]
			if op.Aux == 1 {
				if tag != TagObject {
					return Result{}, StatusBail, nil
				}
			} else {
				if tag != TagNumber && tag != TagBoolean {
					return Result{}, StatusBail, nil
				}
			}
			regs[op.Dst] = regs[op.A]
			tags[op.Dst] = tag
		case lir.KElemsHandle:
			elems, ok := arena.Elems(int32(regs[op.A]))
			if !ok {
				return Result{}, StatusBail, nil
			}
			regs[op.Dst] = float64(elems)
		case lir.KInitLen:
			v, crash := arena.LengthAt(int(regs[op.A]))
			if crash != nil {
				return Result{}, StatusOK, crash
			}
			regs[op.Dst] = v
		case lir.KBoundsCheck:
			idx, length := regs[op.A], regs[op.B]
			if !(idx >= 0 && idx < length && idx == math.Trunc(idx)) {
				return Result{}, StatusBail, nil
			}
		case lir.KLoadElem:
			addr := int(regs[op.A]) + int(regs[op.B]) + int(op.Aux)
			v, crash := arena.RawLoad(addr)
			if crash != nil {
				return Result{}, StatusOK, crash
			}
			regs[op.Dst] = v
		case lir.KStoreElem:
			addr := int(regs[op.A]) + int(regs[op.B]) + int(op.Aux)
			if crash := arena.RawStore(addr, regs[op.C]); crash != nil {
				return Result{}, StatusOK, crash
			}
		case lir.KAddrOf:
			elems, ok := arena.Elems(int32(regs[op.A]))
			if !ok {
				return Result{}, StatusBail, nil
			}
			regs[op.Dst] = float64(elems)
		case lir.KCodeBase:
			regs[op.Dst] = float64(arena.CodeBase())
		case lir.KElemsRaw, lir.KSetLen, lir.KPush, lir.KPop, lir.KNewArr,
			lir.KLoadGlobal, lir.KStoreGlobalNum, lir.KStoreGlobalObj,
			lir.KCall, lir.KCallSpec:
			if status, err, deopt, done := RuntimeOp(code, op, regs, tags, h, pool); done {
				return Result{Deopt: deopt}, status, err
			}
		case lir.KRetNum:
			return Result{Kind: ResNum, Val: regs[op.A]}, StatusOK, nil
		case lir.KRetObj:
			return Result{Kind: ResObject, Val: regs[op.A]}, StatusOK, nil
		case lir.KRetUndef:
			return Result{Kind: ResUndef}, StatusOK, nil
		default:
			return Result{}, StatusOK, fmt.Errorf("native: unknown op %s", op.Kind)
		}
	}
	return Result{Kind: ResUndef}, StatusOK, nil
}

// RuntimeOp is the single definition of the runtime ops: the kinds that
// call back through Hooks or change the arena's layout, plus KMod, KPow
// and KMath, which the machine-code tier compiles inline with a slow exit.
// All three executors — execSwitch, the fused loop (on the pass-through
// op's source op) and the machine-code tier's runtime exits — call it, so
// call marshalling, the global tag rules and the deopt-frame build exist
// once. The caller charges the op's step and fills Result.Steps/Checks.
// done=true ends the activation with status/err (deopt is set exactly when
// status is StatusDeopt); done=false falls through to the next op.
func RuntimeOp(code *lir.Code, op *lir.Op, regs []float64, tags []Tag, h Hooks, pool *Pool) (status Status, err error, deopt *DeoptState, done bool) {
	switch op.Kind {
	case lir.KMod:
		regs[op.Dst] = value.Mod(regs[op.A], regs[op.B])
	case lir.KPow:
		regs[op.Dst] = math.Pow(regs[op.A], regs[op.B])
	case lir.KMath:
		regs[op.Dst] = mathFunc(bytecode.Builtin(op.Aux), regs[op.A], regs[op.B], h)
	case lir.KElemsRaw:
		// Type-confused path (unbox guard eliminated): the raw bits are
		// consumed as an object reference. For a genuine array the bits
		// *are* the reference, so well-typed callers are unaffected;
		// for an attacker-supplied number this is a wild pointer
		// dereference — a segfault.
		arena := h.Arena()
		hnd := int64(math.Trunc(regs[op.A]))
		elems, ok := arena.Elems(int32(hnd))
		if !ok || regs[op.A] != math.Trunc(regs[op.A]) {
			if _, crash := arena.RawLoad(int(hnd)); crash != nil {
				return StatusOK, crash, nil, true
			}
			// The forged reference happens to alias mapped memory:
			// consume it as an elements address (still corruptible).
			regs[op.Dst] = math.Trunc(regs[op.A])
			break
		}
		regs[op.Dst] = float64(elems)
	case lir.KSetLen:
		n := regs[op.B]
		if n < 0 || n != math.Trunc(n) || n > float64(math.MaxInt32) {
			return StatusBail, nil, nil, true
		}
		if err := h.Arena().SetLength(int32(regs[op.A]), int(n)); err != nil {
			return StatusOK, err, nil, true
		}
	case lir.KPush:
		n, err := h.Arena().Push(int32(regs[op.A]), regs[op.B])
		if err != nil {
			return StatusOK, err, nil, true
		}
		regs[op.Dst] = float64(n)
	case lir.KPop:
		v, ok := h.Arena().Pop(int32(regs[op.A]))
		if !ok {
			return StatusBail, nil, nil, true
		}
		regs[op.Dst] = v
	case lir.KNewArr:
		n := regs[op.A]
		if n < 0 || n != math.Trunc(n) || n > float64(math.MaxInt32) {
			return StatusBail, nil, nil, true
		}
		hnd, err := h.Arena().Alloc(int(n))
		if err != nil {
			return StatusOK, err, nil, true
		}
		regs[op.Dst] = float64(hnd)
	case lir.KLoadGlobal:
		v := h.GlobalGet(int(op.Aux))
		switch v.Type() {
		case value.Number:
			regs[op.Dst], tags[op.Dst] = v.AsNumber(), TagNumber
		case value.Boolean:
			regs[op.Dst], tags[op.Dst] = v.AsNumber(), TagBoolean
		case value.Array:
			regs[op.Dst], tags[op.Dst] = float64(v.Handle()), TagObject
		default:
			regs[op.Dst], tags[op.Dst] = math.NaN(), TagOther
		}
	case lir.KStoreGlobalNum:
		h.GlobalSet(int(op.Aux), value.Num(regs[op.A]))
	case lir.KStoreGlobalObj:
		h.GlobalSet(int(op.Aux), value.ArrayRef(int32(regs[op.A])))
	case lir.KCall, lir.KCallSpec:
		callArgs, mark := pool.CallArgs(code, op, regs)
		res, err := h.CallFunction(int(op.Aux), callArgs)
		pool.ReleaseArgs(mark)
		return FinishCall(code, op, regs, tags, res, err)
	default:
		// A bug-only state: every executor routes exactly the kinds above.
		return StatusOK, fmt.Errorf("native: %s is not a runtime op", op.Kind), nil, true
	}
	return StatusOK, nil, nil, false
}

// CallArgs boxes the arguments of the call op — a Number, or an array
// reference where op.C marks the argument as an object — into the pool's
// LIFO argument arena (calls nest strictly); a nil pool allocates per call.
// The caller hands mark to ReleaseArgs once the call is over.
func (p *Pool) CallArgs(code *lir.Code, op *lir.Op, regs []float64) (args []value.Value, mark int) {
	argRegs := code.ArgLists[op.A]
	mark = -1
	if p != nil {
		mark = len(p.args)
		for range argRegs {
			p.args = append(p.args, value.Value{})
		}
		args = p.args[mark : mark+len(argRegs)]
	} else {
		args = make([]value.Value, len(argRegs))
	}
	for i, ar := range argRegs {
		if op.C&(1<<i) != 0 {
			args[i] = value.ArrayRef(int32(regs[ar]))
		} else {
			args[i] = value.Num(regs[ar])
		}
	}
	return args, mark
}

// ReleaseArgs gives back the argument space CallArgs leased at mark.
func (p *Pool) ReleaseArgs(mark int) {
	if mark >= 0 {
		p.args = p.args[:mark]
	}
}

// FinishCall is the second half of a call op, the only definition of what
// a caller accepts from its callee: given what the call produced, it
// stores the result in op.Dst or ends the caller's activation. KCall
// coerces booleans and undefined to numbers (or, expecting an object,
// takes exactly an array) and bails on anything else; KCallSpec accepts
// exactly a Number and deoptimizes otherwise. RuntimeOp calls it after
// Hooks.CallFunction; the machine-code tier calls it for a direct call
// that its inline result check would not take, or whose callee Go had to
// finish. The return values are RuntimeOp's.
func FinishCall(code *lir.Code, op *lir.Op, regs []float64, tags []Tag, res value.Value, err error) (Status, error, *DeoptState, bool) {
	if err != nil {
		return StatusOK, err, nil, true
	}
	switch {
	case op.Kind == lir.KCallSpec:
		// Strict return-type guard: exactly a Number is accepted (where
		// KCall silently coerces booleans/undefined). Anything else
		// deoptimizes: the interpreter frame is rebuilt from the deopt
		// exit's frame map and the raw callee result.
		if res.Type() == value.Number {
			regs[op.Dst], tags[op.Dst] = res.AsNumber(), TagNumber
			break
		}
		if op.Target < 0 || int(op.Target) >= len(code.DeoptExits) {
			return StatusBail, nil, nil, true // orphan guard; treat as bail
		}
		return StatusDeopt, nil, buildDeopt(code, op.Target, regs, res), true
	case op.B == 1: // expect object
		if !res.IsArray() {
			return StatusBail, nil, nil, true
		}
		regs[op.Dst], tags[op.Dst] = float64(res.Handle()), TagObject
	default:
		switch res.Type() {
		case value.Number, value.Boolean:
			regs[op.Dst], tags[op.Dst] = res.ToNumber(), TagNumber
		case value.Undefined:
			regs[op.Dst], tags[op.Dst] = math.NaN(), TagNumber
		default:
			return StatusBail, nil, nil, true
		}
	}
	return StatusOK, nil, nil, false
}

// buildDeopt boxes the interpreter locals for deopt exit exitIdx from the
// current register state, placing the guarded call's raw result in its
// destination slot.
func buildDeopt(code *lir.Code, exitIdx int32, regs []float64, result value.Value) *DeoptState {
	exit := &code.DeoptExits[exitIdx]
	n := int(exit.ResultSlot) + 1
	for _, s := range exit.Slots {
		if int(s.Slot)+1 > n {
			n = int(s.Slot) + 1
		}
	}
	locals := make([]value.Value, n)
	for _, s := range exit.Slots {
		switch s.Kind {
		case lir.SlotBool:
			locals[s.Slot] = value.Bool(regs[s.Reg] != 0)
		case lir.SlotObj:
			locals[s.Slot] = value.ArrayRef(int32(regs[s.Reg]))
		default:
			locals[s.Slot] = value.Num(regs[s.Reg])
		}
	}
	locals[exit.ResultSlot] = result
	return &DeoptState{Exit: exitIdx, Locals: locals}
}

// ExecOSR transfers execution into code mid-loop: the interpreter's locals
// are materialized into a fresh register frame per the OSR entry's frame
// map and execution starts at the loop-header marker. entered=false means
// the transfer was refused (ineligible entry, or a local's runtime type
// does not match the frame map's static kind) — the caller keeps
// interpreting; nothing has run.
//
// Materialization is strict: a number slot accepts exactly a Number (a
// boolean or undefined local would be silently renumbered by the frame's
// untagged registers, diverging from the interpreter after a later deopt),
// a boolean slot exactly a Boolean, an object slot exactly an Array.
func ExecOSR(code *lir.Code, entryIdx int, locals []value.Value, h Hooks, maxOps int64, pool *Pool, unfused bool) (Result, Status, error, bool) {
	if entryIdx < 0 || entryIdx >= len(code.OSREntries) {
		return Result{}, StatusOK, nil, false
	}
	e := &code.OSREntries[entryIdx]
	if !e.Eligible {
		return Result{}, StatusOK, nil, false
	}
	if maxOps <= 0 {
		maxOps = 1 << 40
	}
	regs, tags := pool.getRegs(code.NumRegs)
	defer pool.putRegs(regs, tags)
	// Zeroing, strict slot materialization, hoisted-constant and
	// preheader-value rematerialization are shared with the machine-code
	// tier's OSR entry (see bridge.go) so the two can never diverge.
	if _, ok := MaterializeOSR(code, entryIdx, locals, h.Arena(), regs, tags); !ok {
		return Result{}, StatusOK, nil, false
	}
	if code.Fused != nil && !unfused {
		if fi := fusedIdxForPC(code.Fused, e.PC); fi >= 0 {
			res, st, err := execFusedFrom(code, regs, tags, h, maxOps, pool, int32(fi))
			return res, st, err, true
		}
	}
	res, st, err := execSwitch(code, regs, tags, h, maxOps, pool, int(e.PC), 0)
	return res, st, err, true
}

// fusedIdxForPC finds the fused op whose first constituent is source pc
// (-1 when pc is interior to a superinstruction — cannot happen for OSR
// markers, which are block leaders, but the fallback keeps this total).
func fusedIdxForPC(f *lir.FusedCode, pc int32) int {
	lo, hi := 0, len(f.SrcPC)-1
	for lo <= hi {
		mid := (lo + hi) / 2
		switch {
		case f.SrcPC[mid] < pc:
			lo = mid + 1
		case f.SrcPC[mid] > pc:
			hi = mid - 1
		default:
			return mid
		}
	}
	return -1
}

func mathFunc(b bytecode.Builtin, a, c float64, h Hooks) float64 {
	switch b {
	case bytecode.BMathAbs:
		return math.Abs(a)
	case bytecode.BMathFloor:
		return math.Floor(a)
	case bytecode.BMathCeil:
		return math.Ceil(a)
	case bytecode.BMathRound:
		return math.Floor(a + 0.5)
	case bytecode.BMathSqrt:
		return math.Sqrt(a)
	case bytecode.BMathMin:
		return math.Min(a, c)
	case bytecode.BMathMax:
		return math.Max(a, c)
	case bytecode.BMathPow:
		return math.Pow(a, c)
	case bytecode.BMathSin:
		return math.Sin(a)
	case bytecode.BMathCos:
		return math.Cos(a)
	case bytecode.BMathTan:
		return math.Tan(a)
	case bytecode.BMathAtan:
		return math.Atan(a)
	case bytecode.BMathAtan2:
		return math.Atan2(a, c)
	case bytecode.BMathExp:
		return math.Exp(a)
	case bytecode.BMathLog:
		return math.Log(a)
	case bytecode.BMathRandom:
		return h.Random()
	default:
		return math.NaN()
	}
}
