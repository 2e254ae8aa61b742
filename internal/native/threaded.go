// The fused executor: every lir.FOp is dispatched by one constant-case
// switch (a jump table) in execFusedFrom — the only dispatch form of this
// tier. Superinstruction cases replay their constituent source ops' reads,
// writes and step charges in original order, so execution is bit-identical
// to the unfused loop, including register aliasing, bail points, crash
// points and Result.Steps. Pure register ops are spelled out inline; the
// runtime ops (Hooks callbacks, arena layout changes) are pass-through
// kinds whose case hands the *source* op to RuntimeOp, the one definition
// all executors share.
//
// The step budget is amortized to one check per basic block: cases charge
// steps without comparing against the budget, and only function entry and
// taken jumps/branches check — against the precomputed worst-case
// straight-line cost to the next check point (FusedCode.Cost). When the
// budget might be exceeded before the next check, the executor delegates
// the rest of the run to execSwitch over the same register file at the
// equivalent source pc, so budget exhaustion fires on exactly the op (and
// step count) the unfused executor would fail on.
package native

import (
	"fmt"
	"math"

	"github.com/jitbull/jitbull/internal/bytecode"
	"github.com/jitbull/jitbull/internal/lir"
	"github.com/jitbull/jitbull/internal/value"
)

// Constant pass-through kinds for the dispatch switch: case values must be
// constants to compile into a jump table, and lir.PassThrough is a
// function. TestFastPathConstants pins each to lir.PassThrough of its kind.
const (
	fpConst       = lir.FKind(lir.KConst) + 1
	fpMove        = lir.FKind(lir.KMove) + 1
	fpAdd         = lir.FKind(lir.KAdd) + 1
	fpSub         = lir.FKind(lir.KSub) + 1
	fpMul         = lir.FKind(lir.KMul) + 1
	fpDiv         = lir.FKind(lir.KDiv) + 1
	fpCmp         = lir.FKind(lir.KCmp) + 1
	fpJump        = lir.FKind(lir.KJump) + 1
	fpBranchFalse = lir.FKind(lir.KBranchFalse) + 1
	fpUnbox       = lir.FKind(lir.KUnbox) + 1
	fpGuardType   = lir.FKind(lir.KGuardType) + 1
	fpElems       = lir.FKind(lir.KElemsHandle) + 1
	fpInitLen     = lir.FKind(lir.KInitLen) + 1
	fpBounds      = lir.FKind(lir.KBoundsCheck) + 1
	fpLoadElem    = lir.FKind(lir.KLoadElem) + 1
	fpStoreElem   = lir.FKind(lir.KStoreElem) + 1
	fpRetNum      = lir.FKind(lir.KRetNum) + 1
	fpRetObj      = lir.FKind(lir.KRetObj) + 1
	fpRetUndef    = lir.FKind(lir.KRetUndef) + 1
	fpNop         = lir.FKind(lir.KNop) + 1
	fpMoveTag     = lir.FKind(lir.KMoveTag) + 1
	fpLoadGlobal  = lir.FKind(lir.KLoadGlobal) + 1
	fpStoreGNum   = lir.FKind(lir.KStoreGlobalNum) + 1
	fpStoreGObj   = lir.FKind(lir.KStoreGlobalObj) + 1
	fpCall        = lir.FKind(lir.KCall) + 1
	fpCallSpec    = lir.FKind(lir.KCallSpec) + 1
	fpOSRPoint    = lir.FKind(lir.KOSRPoint) + 1
	fpMod         = lir.FKind(lir.KMod) + 1
	fpPow         = lir.FKind(lir.KPow) + 1
	fpBitAnd      = lir.FKind(lir.KBitAnd) + 1
	fpBitOr       = lir.FKind(lir.KBitOr) + 1
	fpBitXor      = lir.FKind(lir.KBitXor) + 1
	fpShl         = lir.FKind(lir.KShl) + 1
	fpShr         = lir.FKind(lir.KShr) + 1
	fpUshr        = lir.FKind(lir.KUshr) + 1
	fpNeg         = lir.FKind(lir.KNeg) + 1
	fpNot         = lir.FKind(lir.KNot) + 1
	fpMath        = lir.FKind(lir.KMath) + 1
	fpElemsRaw    = lir.FKind(lir.KElemsRaw) + 1
	fpSetLen      = lir.FKind(lir.KSetLen) + 1
	fpPush        = lir.FKind(lir.KPush) + 1
	fpPop         = lir.FKind(lir.KPop) + 1
	fpNewArr      = lir.FKind(lir.KNewArr) + 1
	fpAddrOf      = lir.FKind(lir.KAddrOf) + 1
	fpCodeBase    = lir.FKind(lir.KCodeBase) + 1
)

func truthyF(v float64) bool { return v != 0 && v == v }

// execFusedFrom runs the fused stream over an already-boxed register file,
// starting at fused op pc0: 0 for a normal call, an OSR entry's fused index
// for a mid-loop transfer (ExecOSR). The dispatch loop keeps the hot state
// — steps, checks, pc and the exit state — in locals so the compiler can
// register-allocate it, exactly like the unfused switch loop does.
func execFusedFrom(code *lir.Code, regs []float64, tags []Tag, h Hooks, maxOps int64, pool *Pool, pc0 int32) (Result, Status, error) {
	f := code.Fused
	ops := f.Ops
	cost := f.Cost
	arena := h.Arena()
	var res Result
	var status Status
	var errv error
	delegate := int32(-1)
	var steps int64
	checks := int64(1)
	pc := pc0
	// Entry check: the first check point covers the straight-line prefix.
	// When pc0 is an OSR entry this can delegate onto the KOSRPoint marker
	// itself; that is safe by construction — materialization already
	// happened on the shared register file before dispatch, the marker is a
	// zero-step nop in both executors, and the unfused loop resumes at the
	// same source pc with identical state, so the frame is never
	// re-materialized (see TestDelegationOntoOSREntry).
	if int64(cost[pc0]) > maxOps {
		delegate = f.SrcPC[pc0]
		pc = -1
	}
	for pc >= 0 {
		op := &ops[pc]
		switch op.Kind {
		case fpConst:
			steps++
			regs[op.Dst] = op.Imm
			pc++
		case fpMove:
			steps++
			regs[op.Dst] = regs[op.A]
			pc++
		case fpAdd:
			steps++
			regs[op.Dst] = regs[op.A] + regs[op.B]
			pc++
		case fpSub:
			steps++
			regs[op.Dst] = regs[op.A] - regs[op.B]
			pc++
		case fpMul:
			steps++
			regs[op.Dst] = regs[op.A] * regs[op.B]
			pc++
		case fpDiv:
			steps++
			regs[op.Dst] = regs[op.A] / regs[op.B]
			pc++
		case fpCmp:
			steps++
			regs[op.Dst] = cmpEval(op.Aux, regs[op.A], regs[op.B])
			pc++
		case fpJump:
			steps++
			checks++
			t := op.Target
			if steps+int64(cost[t]) > maxOps {
				delegate = f.SrcPC[t]
				pc = -1
			} else {
				pc = t
			}
		case fpBranchFalse:
			steps++
			if !truthyF(regs[op.A]) {
				checks++
				t := op.Target
				if steps+int64(cost[t]) > maxOps {
					delegate = f.SrcPC[t]
					pc = -1
				} else {
					pc = t
				}
			} else {
				pc++
			}
		case fpUnbox, fpGuardType:
			steps++
			tag := tags[op.A]
			if op.Aux == 1 {
				if tag != TagObject {
					status = StatusBail
					pc = -1
					break
				}
			} else {
				if tag != TagNumber && tag != TagBoolean {
					status = StatusBail
					pc = -1
					break
				}
			}
			regs[op.Dst] = regs[op.A]
			tags[op.Dst] = tag
			pc++
		case fpElems:
			steps++
			elems, ok := arena.Elems(int32(regs[op.A]))
			if !ok {
				status = StatusBail
				pc = -1
				break
			}
			regs[op.Dst] = float64(elems)
			pc++
		case fpInitLen:
			steps++
			v, crash := arena.LengthAt(int(regs[op.A]))
			if crash != nil {
				errv = crash
				pc = -1
				break
			}
			regs[op.Dst] = v
			pc++
		case fpBounds:
			steps++
			idx, length := regs[op.A], regs[op.B]
			if !(idx >= 0 && idx < length && idx == math.Trunc(idx)) {
				status = StatusBail
				pc = -1
				break
			}
			pc++
		case fpLoadElem:
			steps++
			addr := int(regs[op.A]) + int(regs[op.B]) + int(op.Aux)
			v, crash := arena.RawLoad(addr)
			if crash != nil {
				errv = crash
				pc = -1
				break
			}
			regs[op.Dst] = v
			pc++
		case fpStoreElem:
			steps++
			addr := int(regs[op.A]) + int(regs[op.B]) + int(op.Aux)
			if crash := arena.RawStore(addr, regs[op.C]); crash != nil {
				errv = crash
				pc = -1
				break
			}
			pc++
		case fpRetNum:
			steps++
			res = Result{Kind: ResNum, Val: regs[op.A]}
			pc = -1
		case fpRetObj:
			steps++
			res = Result{Kind: ResObject, Val: regs[op.A]}
			pc = -1
		case fpRetUndef:
			steps++
			res = Result{Kind: ResUndef}
			pc = -1
		case fpNop:
			steps++
			pc++
		case fpMod:
			steps++
			regs[op.Dst] = value.Mod(regs[op.A], regs[op.B])
			pc++
		case fpPow:
			steps++
			regs[op.Dst] = math.Pow(regs[op.A], regs[op.B])
			pc++
		case fpBitAnd:
			steps++
			regs[op.Dst] = float64(value.ToInt32(regs[op.A]) & value.ToInt32(regs[op.B]))
			pc++
		case fpBitOr:
			steps++
			regs[op.Dst] = float64(value.ToInt32(regs[op.A]) | value.ToInt32(regs[op.B]))
			pc++
		case fpBitXor:
			steps++
			regs[op.Dst] = float64(value.ToInt32(regs[op.A]) ^ value.ToInt32(regs[op.B]))
			pc++
		case fpShl:
			steps++
			regs[op.Dst] = float64(value.ToInt32(regs[op.A]) << (value.ToUint32(regs[op.B]) & 31))
			pc++
		case fpShr:
			steps++
			regs[op.Dst] = float64(value.ToInt32(regs[op.A]) >> (value.ToUint32(regs[op.B]) & 31))
			pc++
		case fpUshr:
			steps++
			regs[op.Dst] = float64(value.ToUint32(regs[op.A]) >> (value.ToUint32(regs[op.B]) & 31))
			pc++
		case fpNeg:
			steps++
			regs[op.Dst] = -regs[op.A]
			pc++
		case fpNot:
			steps++
			if truthyF(regs[op.A]) {
				regs[op.Dst] = 0
			} else {
				regs[op.Dst] = 1
			}
			pc++
		case fpMath:
			steps++
			regs[op.Dst] = mathFunc(bytecode.Builtin(op.Aux), regs[op.A], regs[op.B], h)
			pc++
		case fpAddrOf:
			steps++
			elems, ok := arena.Elems(int32(regs[op.A]))
			if !ok {
				status = StatusBail
				pc = -1
				break
			}
			regs[op.Dst] = float64(elems)
			pc++
		case fpCodeBase:
			steps++
			regs[op.Dst] = float64(arena.CodeBase())
			pc++
		case fpMoveTag:
			steps++
			regs[op.Dst] = regs[op.A]
			tags[op.Dst] = tags[op.A]
			pc++
		case fpOSRPoint:
			// Loop-header OSR marker: a nop charging no step (its NSteps is 0
			// in the fused stream too), keeping Result.Steps bit-identical to
			// code compiled without OSR support.
			pc++
		case fpElemsRaw, fpSetLen, fpPush, fpPop, fpNewArr,
			fpLoadGlobal, fpStoreGNum, fpStoreGObj, fpCall, fpCallSpec:
			// Pass-through runtime op: execute the source op itself.
			steps++
			rstatus, rerr, deopt, done := RuntimeOp(code, &code.Ops[f.SrcPC[pc]], regs, tags, h, pool)
			if done {
				res.Deopt, status, errv = deopt, rstatus, rerr
				pc = -1
				break
			}
			pc++
		case lir.FAddImm:
			steps += 2
			regs[op.C] = op.Imm
			regs[op.Dst] = regs[op.A] + regs[op.B]
			pc++
		case lir.FSubImm:
			steps += 2
			regs[op.C] = op.Imm
			regs[op.Dst] = regs[op.A] - regs[op.B]
			pc++
		case lir.FMulImm:
			steps += 2
			regs[op.C] = op.Imm
			regs[op.Dst] = regs[op.A] * regs[op.B]
			pc++
		case lir.FCmpImm:
			steps += 2
			regs[op.C] = op.Imm
			regs[op.Dst] = cmpEval(op.Aux, regs[op.A], regs[op.B])
			pc++
		case lir.FCmpBranch:
			steps += 2
			r := cmpEval(op.Aux, regs[op.A], regs[op.B])
			regs[op.Dst] = r
			if r == 0 {
				checks++
				t := op.Target
				if steps+int64(cost[t]) > maxOps {
					delegate = f.SrcPC[t]
					pc = -1
				} else {
					pc = t
				}
			} else {
				pc++
			}
		case lir.FCmpImmBranch:
			steps += 3
			regs[op.C] = op.Imm
			r := cmpEval(op.Aux, regs[op.A], regs[op.B])
			regs[op.Dst] = r
			if r == 0 {
				checks++
				t := op.Target
				if steps+int64(cost[t]) > maxOps {
					delegate = f.SrcPC[t]
					pc = -1
				} else {
					pc = t
				}
			} else {
				pc++
			}
		case lir.FIncCmpBranch:
			steps += 3
			regs[op.D] = regs[op.A] + regs[op.B]
			l, r := regs[op.D], regs[op.E]
			if op.Aux2&1 != 0 {
				l, r = r, l
			}
			v := cmpEval(op.Aux, l, r)
			regs[op.Dst] = v
			if v == 0 {
				checks++
				t := op.Target
				if steps+int64(cost[t]) > maxOps {
					delegate = f.SrcPC[t]
					pc = -1
				} else {
					pc = t
				}
			} else {
				pc++
			}
		case lir.FAddImmCmpBranch:
			steps += 4
			regs[op.C] = op.Imm
			regs[op.D] = regs[op.A] + regs[op.B]
			l, r := regs[op.D], regs[op.E]
			if op.Aux2&1 != 0 {
				l, r = r, l
			}
			v := cmpEval(op.Aux, l, r)
			regs[op.Dst] = v
			if v == 0 {
				checks++
				t := op.Target
				if steps+int64(cost[t]) > maxOps {
					delegate = f.SrcPC[t]
					pc = -1
				} else {
					pc = t
				}
			} else {
				pc++
			}
		case lir.FBoundsLoad:
			steps++
			idx, length := regs[op.A], regs[op.B]
			if !(idx >= 0 && idx < length && idx == math.Trunc(idx)) {
				status = StatusBail
				pc = -1
				break
			}
			steps++
			addr := int(regs[op.C]) + int(regs[op.D]) + int(op.Aux)
			v, crash := arena.RawLoad(addr)
			if crash != nil {
				errv = crash
				pc = -1
				break
			}
			regs[op.Dst] = v
			pc++
		case lir.FBoundsStore:
			steps++
			idx, length := regs[op.A], regs[op.B]
			if !(idx >= 0 && idx < length && idx == math.Trunc(idx)) {
				status = StatusBail
				pc = -1
				break
			}
			steps++
			addr := int(regs[op.C]) + int(regs[op.D]) + int(op.Aux)
			if crash := arena.RawStore(addr, regs[op.E]); crash != nil {
				errv = crash
				pc = -1
				break
			}
			pc++
		case lir.FLenBoundsLoad:
			steps++
			length, crash := arena.LengthAt(int(regs[op.D]))
			if crash != nil {
				errv = crash
				pc = -1
				break
			}
			regs[op.C] = length
			steps++
			idx := regs[op.A]
			if !(idx >= 0 && idx < regs[op.C] && idx == math.Trunc(idx)) {
				status = StatusBail
				pc = -1
				break
			}
			steps++
			addr := int(regs[op.D]) + int(regs[op.A]) + int(op.Aux)
			v, crash := arena.RawLoad(addr)
			if crash != nil {
				errv = crash
				pc = -1
				break
			}
			regs[op.Dst] = v
			pc++
		case lir.FLenBoundsStore:
			steps++
			length, crash := arena.LengthAt(int(regs[op.D]))
			if crash != nil {
				errv = crash
				pc = -1
				break
			}
			regs[op.C] = length
			steps++
			idx := regs[op.A]
			if !(idx >= 0 && idx < regs[op.C] && idx == math.Trunc(idx)) {
				status = StatusBail
				pc = -1
				break
			}
			steps++
			addr := int(regs[op.D]) + int(regs[op.A]) + int(op.Aux)
			if crash := arena.RawStore(addr, regs[op.E]); crash != nil {
				errv = crash
				pc = -1
				break
			}
			pc++
		case lir.FMove2:
			steps += 2
			regs[op.Dst] = regs[op.A]
			regs[op.C] = regs[op.D]
			pc++
		case lir.FMoveN:
			k := op.Aux2
			steps += int64(k)
			pairs := f.MovePairs[op.Aux : op.Aux+k*2]
			for i := 0; i < len(pairs); i += 2 {
				regs[pairs[i]] = regs[pairs[i+1]]
			}
			pc++
		case lir.FMoveNJump:
			k := op.Aux2
			steps += int64(k) + 1
			pairs := f.MovePairs[op.Aux : op.Aux+k*2]
			for i := 0; i < len(pairs); i += 2 {
				regs[pairs[i]] = regs[pairs[i+1]]
			}
			checks++
			t := op.Target
			if steps+int64(cost[t]) > maxOps {
				delegate = f.SrcPC[t]
				pc = -1
			} else {
				pc = t
			}
		case lir.FAdd2:
			steps += 2
			regs[op.Dst] = regs[op.A] + regs[op.B]
			regs[op.C] = regs[op.D] + regs[op.E]
			pc++
		case lir.FAddMoveNJump:
			m := op.Aux2
			steps += int64(m) + 2
			regs[op.Dst] = regs[op.A] + regs[op.B]
			pairs := f.MovePairs[op.Aux : op.Aux+m*2]
			for i := 0; i < len(pairs); i += 2 {
				regs[pairs[i]] = regs[pairs[i+1]]
			}
			checks++
			t := op.Target
			if steps+int64(cost[t]) > maxOps {
				delegate = f.SrcPC[t]
				pc = -1
			} else {
				pc = t
			}
		case lir.FAdd2MoveNJump:
			m := op.Aux2
			steps += int64(m) + 3
			regs[op.Dst] = regs[op.A] + regs[op.B]
			regs[op.C] = regs[op.D] + regs[op.E]
			pairs := f.MovePairs[op.Aux : op.Aux+m*2]
			for i := 0; i < len(pairs); i += 2 {
				regs[pairs[i]] = regs[pairs[i+1]]
			}
			checks++
			t := op.Target
			if steps+int64(cost[t]) > maxOps {
				delegate = f.SrcPC[t]
				pc = -1
			} else {
				pc = t
			}
		case lir.FArithN:
			steps += int64(op.Aux2)
			runArithChain(f, regs, op)
			pc++
		case lir.FArithNJump:
			steps += int64(op.Aux2) + 1
			runArithChain(f, regs, op)
			checks++
			t := op.Target
			if steps+int64(cost[t]) > maxOps {
				delegate = f.SrcPC[t]
				pc = -1
			} else {
				pc = t
			}
		case lir.FCmpBranchJump:
			r := cmpEval(op.Aux, regs[op.A], regs[op.B])
			regs[op.Dst] = r
			t := op.C
			if r == 0 {
				steps += 2
				t = op.Target
			} else {
				steps += 3
			}
			checks++
			if steps+int64(cost[t]) > maxOps {
				delegate = f.SrcPC[t]
				pc = -1
			} else {
				pc = t
			}
		case lir.FEnd:
			res = Result{Kind: ResUndef}
			pc = -1
		default:
			errv = fmt.Errorf("native: invalid fused op at %d in %s", pc, code.Name)
			pc = -1
		}
	}
	if delegate >= 0 {
		dres, dstatus, derr := execSwitch(code, regs, tags, h, maxOps, pool, int(delegate), steps)
		dres.Checks += checks
		return dres, dstatus, derr
	}
	res.Steps = steps
	res.Checks = checks
	return res, status, errv
}

// runArithChain replays an FArithN run. Every constituent is pure and
// fall-through; each case is a verbatim copy of the corresponding unfused
// op, so the register file ends up bit-identical.
func runArithChain(f *lir.FusedCode, regs []float64, op *lir.FOp) {
	aops := f.ArithOps[op.Aux : op.Aux+op.Aux2]
	for i := range aops {
		a := &aops[i]
		switch a.Kind {
		case lir.KConst:
			regs[a.Dst] = a.Imm
		case lir.KMove:
			regs[a.Dst] = regs[a.A]
		case lir.KAdd:
			regs[a.Dst] = regs[a.A] + regs[a.B]
		case lir.KSub:
			regs[a.Dst] = regs[a.A] - regs[a.B]
		case lir.KMul:
			regs[a.Dst] = regs[a.A] * regs[a.B]
		case lir.KDiv:
			regs[a.Dst] = regs[a.A] / regs[a.B]
		case lir.KMod:
			regs[a.Dst] = value.Mod(regs[a.A], regs[a.B])
		case lir.KPow:
			regs[a.Dst] = math.Pow(regs[a.A], regs[a.B])
		case lir.KBitAnd:
			regs[a.Dst] = float64(value.ToInt32(regs[a.A]) & value.ToInt32(regs[a.B]))
		case lir.KBitOr:
			regs[a.Dst] = float64(value.ToInt32(regs[a.A]) | value.ToInt32(regs[a.B]))
		case lir.KBitXor:
			regs[a.Dst] = float64(value.ToInt32(regs[a.A]) ^ value.ToInt32(regs[a.B]))
		case lir.KShl:
			regs[a.Dst] = float64(value.ToInt32(regs[a.A]) << (value.ToUint32(regs[a.B]) & 31))
		case lir.KShr:
			regs[a.Dst] = float64(value.ToInt32(regs[a.A]) >> (value.ToUint32(regs[a.B]) & 31))
		case lir.KUshr:
			regs[a.Dst] = float64(value.ToUint32(regs[a.A]) >> (value.ToUint32(regs[a.B]) & 31))
		case lir.KNeg:
			regs[a.Dst] = -regs[a.A]
		case lir.KNot:
			if truthyF(regs[a.A]) {
				regs[a.Dst] = 0
			} else {
				regs[a.Dst] = 1
			}
		case lir.KCmp:
			regs[a.Dst] = cmpEval(a.Aux, regs[a.A], regs[a.B])
		}
	}
}

// cmpEval evaluates a KCmp: Aux is the mir.CompareKind (1 <, 2 <=, 3 >,
// 4 >=, 5 ==, 6 !=), the result is 1 or 0. Identical to the unfused
// switch case, including the every-comparison-false NaN behavior.
func cmpEval(aux int32, a, b float64) float64 {
	var r bool
	switch aux {
	case 1:
		r = a < b
	case 2:
		r = a <= b
	case 3:
		r = a > b
	case 4:
		r = a >= b
	case 5:
		r = a == b
	case 6:
		r = a != b
	}
	if r {
		return 1
	}
	return 0
}
