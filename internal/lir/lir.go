// Package lir defines the low-level IR of the jitbull optimizing tier: a
// linear sequence of register-machine operations produced from optimized
// MIR (step 5 of the paper's Figure 1). The native executor
// (internal/native) runs this code directly over unboxed float64 registers
// and the shared heap arena — it is the "machine code" of the simulated
// engine.
package lir

import (
	"fmt"
	"strings"

	"github.com/jitbull/jitbull/internal/faults"
	"github.com/jitbull/jitbull/internal/mir"
	"github.com/jitbull/jitbull/internal/obs"
)

// Kind is a LIR operation kind.
type Kind uint8

// LIR operation kinds. Registers are indexes into the frame's float64
// register file; Dst/A/B/C are registers unless noted.
const (
	KNop     Kind = iota
	KConst        // Dst = Imm
	KMove         // Dst = A
	KMoveTag      // Dst = A, and the type tag moves along (boxed values)
	KAdd          // Dst = A + B
	KSub
	KMul
	KDiv
	KMod
	KPow
	KBitAnd
	KBitOr
	KBitXor
	KShl
	KShr
	KUshr
	KNeg  // Dst = -A
	KNot  // Dst = !truthy(A)
	KCmp  // Dst = A <op> B; Aux = mir.CompareKind
	KMath // Dst = builtin(A[, B]); Aux = bytecode.Builtin

	KJump        // jump to op index Target
	KBranchFalse // if !truthy(A) jump to Target

	KUnbox     // Dst = A with tag check; Aux: 0 = numeric, 1 = object. Bails on mismatch.
	KGuardType // same checks as KUnbox, for already-loaded boxed values

	KElemsHandle // Dst = elements address of array handle in A (verified object)
	KElemsRaw    // Dst = A interpreted as a raw address (type-confused path)
	KInitLen     // Dst = length cell at elements address A
	KBoundsCheck // bail unless 0 <= A < B and A integral
	KLoadElem    // Dst = heap[A + int(B) + Aux]
	KStoreElem   // heap[A + int(B) + Aux] = C
	KSetLen      // setlength(handle A, B); bails on invalid length
	KPush        // Dst = new length after pushing B onto handle A
	KPop         // Dst = pop from handle A; bails when empty
	KNewArr      // Dst = new array handle of length A; bails on invalid length
	KAddrOf      // Dst = elements address of handle A
	KCodeBase    // Dst = arena code base address

	KLoadGlobal     // Dst = globals[Aux] (value + tag)
	KStoreGlobalNum // globals[Aux] = Num(A)
	KStoreGlobalObj // globals[Aux] = ArrayRef(A)

	KCall // Dst = call fn Aux with args ArgLists[A]; B = expected kind (0 num, 1 object)

	// KCallSpec is KCall with a speculative type guard on the return value:
	// it accepts exactly a Number (no boolean/undefined coercion) and
	// triggers deoptimization — returning StatusDeopt with the interpreter
	// frame rebuilt from the DeoptExits side table — on anything else.
	// Target is an index into Code.DeoptExits, NOT a jump target. Aux/A/B/C
	// are as KCall (B is always 0: only number-typed calls are speculated).
	KCallSpec

	// KOSRPoint marks a loop-header on-stack-replacement entry (side table
	// Code.OSREntries, keyed by Aux = loop ordinal). At runtime it is a nop
	// and charges NO step, so Result.Steps is bit-identical to code compiled
	// without OSR support.
	KOSRPoint

	KRetNum   // return Num(A) (NaN result means the JS value NaN)
	KRetObj   // return ArrayRef(A)
	KRetUndef // return undefined

	// KindCount is one past the last Kind. Exhaustiveness guards (the
	// unfused executor probe, the fused switch probe, the fuser's
	// pass-through table) iterate 0..KindCount-1.
	KindCount
)

var kindNames = map[Kind]string{
	KNop: "nop", KConst: "const", KMove: "move", KMoveTag: "movetag",
	KAdd: "add", KSub: "sub", KMul: "mul", KDiv: "div", KMod: "mod", KPow: "pow",
	KBitAnd: "bitand", KBitOr: "bitor", KBitXor: "bitxor",
	KShl: "shl", KShr: "shr", KUshr: "ushr",
	KNeg: "neg", KNot: "not", KCmp: "cmp", KMath: "math",
	KJump: "jump", KBranchFalse: "branchfalse",
	KUnbox: "unbox", KGuardType: "guardtype",
	KElemsHandle: "elemshandle", KElemsRaw: "elemsraw", KInitLen: "initlen",
	KBoundsCheck: "boundscheck", KLoadElem: "loadelem", KStoreElem: "storeelem",
	KSetLen: "setlen", KPush: "push", KPop: "pop", KNewArr: "newarr",
	KAddrOf: "addrof", KCodeBase: "codebase",
	KLoadGlobal: "loadglobal", KStoreGlobalNum: "storeglobalnum", KStoreGlobalObj: "storeglobalobj",
	KCall: "call", KCallSpec: "callspec", KOSRPoint: "osrpoint",
	KRetNum: "retnum", KRetObj: "retobj", KRetUndef: "retundef",
}

// String returns the mnemonic.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Op is one LIR operation.
type Op struct {
	Kind    Kind
	Dst     int32
	A, B, C int32
	Target  int32 // jump/branch target (op index)
	Imm     float64
	Aux     int32
}

// BlockMeta is the basic-block shape of a Code's linear op stream,
// computed by the register allocator (which already walks every branch for
// live-interval extension) and consumed by the superinstruction fuser:
// fusion patterns must not span a block leader, and the loop-tail patterns
// only apply to back edges.
type BlockMeta struct {
	// Leaders are the op indexes that start a basic block (index 0, every
	// jump/branch target, every op after a terminator), sorted ascending.
	Leaders []int32
	// LoopHeads are the leaders that are targets of back edges, sorted
	// ascending.
	LoopHeads []int32
}

// Frame-slot kinds for OSR/deopt frame maps. The kind is decided statically
// from the MIR type of the slot's definition; the runtime transfer trusts it
// (registers are raw float64s with no reliable tag at a frame boundary).
const (
	SlotNum  uint8 = iota // unboxed number
	SlotBool              // boolean materialized as 0/1
	SlotObj               // array handle
)

// slotKind maps a MIR value type to a frame-slot kind. ok is false for
// types that cannot cross an interpreter/native frame boundary.
func slotKind(t mir.Type) (uint8, bool) {
	switch t {
	case mir.TypeDouble:
		return SlotNum, true
	case mir.TypeBoolean:
		return SlotBool, true
	case mir.TypeObject:
		return SlotObj, true
	default:
		return 0, false
	}
}

// FrameSlot maps one interpreter local to a native register in an OSR or
// deopt frame map. Reg is a virtual register until regalloc.Allocate
// rewrites the side tables along with the op stream.
type FrameSlot struct {
	Slot int32 // interpreter local slot index
	Reg  int32 // native register holding the slot's value
	Kind uint8 // SlotNum/SlotBool/SlotObj
}

// ConstSlot is one loop-invariant constant the OSR prologue must
// rematerialize: GVN/LICM hoist constants out of loops, leaving their
// registers live across the header without any interpreter local backing
// them. Regalloc records (register, immediate) here when the register has
// exactly one definition in the whole stream and it is a KConst; anything
// else live outside the frame map makes the entry ineligible.
type ConstSlot struct {
	Reg int32
	Imm float64
}

// Rematerialization kinds for RematOp. The bounds-check pass caches an
// array's elements address (KElemsHandle) and length (KInitLen) in the
// preheader; both registers stay live across the loop header with no
// interpreter local backing them, so the OSR prologue recomputes them.
const (
	RematElems uint8 = iota // Reg ← arena elements address of the array handle in Src
	RematLen                // Reg ← length header at the elements address in Src
)

// RematOp is one derived loop-invariant value the OSR prologue recomputes
// before dispatch. Regalloc records one when an uncovered live register's
// unique reaching definition at the header is a KElemsHandle over a
// frame-map object slot (RematElems) or a KInitLen over such an elements
// register (RematLen) — re-deriving from the just-materialized array
// handle computes exactly what straight-line execution from the preheader
// cached, since the hoist is only performed for loop-invariant arrays.
// The list is in dependency order: a RematLen's Src is defined by an
// earlier RematElems.
type RematOp struct {
	Kind uint8
	Reg  int32 // register to write
	Src  int32 // source register: array handle (RematElems) or elems address (RematLen)
}

// OSREntry describes one loop-header on-stack-replacement entry point.
type OSREntry struct {
	Ordinal  int32       // loop ordinal (matches bytecode.OSRSite.Ordinal)
	PC       int32       // op index of the KOSRPoint marker
	Slots    []FrameSlot // frame map: interpreter locals → registers
	Consts   []ConstSlot // hoisted constants to rematerialize at entry
	Remats   []RematOp   // hoisted derived values (elems handles, lengths) to recompute
	Eligible bool        // set by regalloc: everything live here is covered by Slots+Consts+Remats
}

// DeoptExit describes the interpreter frame to rebuild when a KCallSpec
// guard fails. The guarded call's result lands in local ResultSlot (boxed
// exactly, no coercion); every other local comes from Slots.
type DeoptExit struct {
	Ordinal    int32 // speculation ordinal (matches bytecode.SpecSite.Ordinal)
	ResultSlot int32
	Slots      []FrameSlot
}

// Code is the compiled form of one function. The struct tags are its wire
// form (wire.go): the plain fields travel, the derived ones do not.
type Code struct {
	Name      string    `json:"name"`
	FuncIndex int       `json:"func_index"`
	NumParams int       `json:"num_params"`
	NumRegs   int       `json:"num_regs"`
	Ops       []Op      `json:"ops"`
	ArgLists  [][]int32 `json:"arg_lists"` // call argument register lists

	// OSREntries and DeoptExits are the OSR/deopt side tables, in emission
	// order. Register references inside them are rewritten by
	// regalloc.Allocate together with the op stream.
	OSREntries []OSREntry  `json:"osr_entries"`
	DeoptExits []DeoptExit `json:"deopt_exits"`

	// Blocks is the basic-block metadata attached by regalloc.Allocate and
	// consumed by Fuse. Nil until allocation has run; Fuse recomputes it
	// on demand when absent.
	Blocks *BlockMeta `json:"-"`
	// Fused is the superinstruction form of Ops, attached by the fuse
	// compile stage. The native executor dispatches through it when
	// non-nil; semantics (results, Result.Steps, bail/crash behavior) are
	// bit-identical to executing Ops directly. Immutable after publish, so
	// it rides through the shared compilation cache with the Code pointer.
	Fused *FusedCode `json:"-"`
}

// String disassembles the code for diagnostics.
func (c *Code) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "LIR %s (fn #%d, %d regs)\n", c.Name, c.FuncIndex, c.NumRegs)
	for i, op := range c.Ops {
		fmt.Fprintf(&sb, "%4d  %-14s dst=r%d a=r%d b=r%d c=r%d tgt=%d imm=%v aux=%d\n",
			i, op.Kind, op.Dst, op.A, op.B, op.C, op.Target, op.Imm, op.Aux)
	}
	return sb.String()
}

// Lower translates an optimized MIR graph into LIR. Critical edges must be
// split (the standard pipeline guarantees it): phi moves are emitted at the
// end of single-successor predecessor blocks.
func Lower(g *mir.Graph) (*Code, error) { return LowerWith(g, nil) }

// LowerWith is Lower under a compile supervisor context (step budget and
// fault injection); fctx may be nil.
func LowerWith(g *mir.Graph, fctx *faults.CompileCtx) (*Code, error) {
	sp := fctx.Span(obs.CatCompile, "lir")
	if fctx != nil {
		if err := fctx.Step(faults.PointLower, g.Name, int64(g.InstrCount())); err != nil {
			sp.EndErr(err)
			return nil, err
		}
	}
	l := &lowerer{
		g:       g,
		code:    &Code{Name: g.Name, FuncIndex: g.FuncIndex, NumParams: g.NumParams},
		reg:     map[*mir.Instr]int32{},
		callOps: map[*mir.Instr]int{},
	}
	code, err := l.lower()
	if err != nil {
		sp.EndErr(err)
		return nil, err
	}
	sp.End(obs.I("ops", int64(len(code.Ops))), obs.I("regs", int64(code.NumRegs)))
	return code, nil
}

type lowerer struct {
	g       *mir.Graph
	code    *Code
	reg     map[*mir.Instr]int32
	nextReg int32

	blockStart map[*mir.Block]int32
	// fixups: op indexes whose Target must be patched to a block start.
	fixups []fixup
	// callOps: op index of each lowered KCallSpec, so the OpSnapshot that
	// references the call can patch its Target to the DeoptExits index.
	callOps map[*mir.Instr]int
}

type fixup struct {
	opIdx int
	block *mir.Block
}

func (l *lowerer) regOf(in *mir.Instr) int32 {
	if r, ok := l.reg[in]; ok {
		return r
	}
	r := l.nextReg
	l.nextReg++
	l.reg[in] = r
	return r
}

func (l *lowerer) freshReg() int32 {
	r := l.nextReg
	l.nextReg++
	return r
}

func (l *lowerer) emit(op Op) int {
	l.code.Ops = append(l.code.Ops, op)
	return len(l.code.Ops) - 1
}

func (l *lowerer) lower() (*Code, error) {
	order := l.g.ReversePostorder()
	l.blockStart = make(map[*mir.Block]int32, len(order))

	// Parameters occupy the first registers so the executor can copy
	// arguments straight into the frame. (There is exactly one OpParameter
	// per index, in the entry block.)
	paramRegs := make([]int32, l.g.NumParams)
	for i := range paramRegs {
		paramRegs[i] = l.freshReg()
	}
	for _, in := range l.g.Entry().Instrs {
		if in.Op == mir.OpParameter {
			if in.Aux < 0 || in.Aux >= len(paramRegs) {
				return nil, fmt.Errorf("parameter index %d out of range", in.Aux)
			}
			l.reg[in] = paramRegs[in.Aux]
		}
	}

	for bi, b := range order {
		l.blockStart[b] = int32(len(l.code.Ops))
		for _, in := range b.Instrs {
			if in.Dead {
				continue
			}
			if err := l.lowerInstr(b, in, bi, order); err != nil {
				return nil, err
			}
		}
	}
	for _, f := range l.fixups {
		start, ok := l.blockStart[f.block]
		if !ok {
			return nil, fmt.Errorf("jump to unlowered block%d", f.block.ID)
		}
		l.code.Ops[f.opIdx].Target = start
	}
	// Downgrade orphaned speculative calls: a KCallSpec whose OpSnapshot never
	// produced a deopt exit (unreconstructible frame) still carries the -1
	// sentinel in Target and must run as a plain coercing call.
	for i := range l.code.Ops {
		if l.code.Ops[i].Kind == KCallSpec && l.code.Ops[i].Target < 0 {
			l.code.Ops[i].Kind = KCall
			l.code.Ops[i].Target = 0
		}
	}
	l.code.NumRegs = int(l.nextReg)
	return l.code, nil
}

// jumpTo emits a jump to block t unless t is the fall-through block.
func (l *lowerer) jumpTo(t *mir.Block, bi int, order []*mir.Block) {
	if bi+1 < len(order) && order[bi+1] == t {
		return // fall through
	}
	idx := l.emit(Op{Kind: KJump})
	l.fixups = append(l.fixups, fixup{opIdx: idx, block: t})
}

// emitPhiMoves materializes the phi inputs of succ along the edge from
// pred. It uses the simple two-phase scheme (all sources to fresh temps,
// then temps to destinations), which trivially handles parallel-copy
// cycles.
func (l *lowerer) emitPhiMoves(pred, succ *mir.Block) {
	phis := succ.Phis()
	if len(phis) == 0 {
		return
	}
	predIdx := -1
	for i, p := range succ.Preds {
		if p == pred {
			predIdx = i
			break
		}
	}
	if predIdx < 0 {
		return
	}
	type mv struct{ src, tmp, dst int32 }
	var moves []mv
	for _, phi := range phis {
		if phi.Op != mir.OpPhi || phi.Dead {
			continue
		}
		src := l.regOf(phi.Operands[predIdx])
		dst := l.regOf(phi)
		if src == dst {
			continue
		}
		moves = append(moves, mv{src: src, dst: dst})
	}
	if len(moves) == 1 {
		l.emit(Op{Kind: KMove, Dst: moves[0].dst, A: moves[0].src})
		return
	}
	for i := range moves {
		moves[i].tmp = l.freshReg()
		l.emit(Op{Kind: KMove, Dst: moves[i].tmp, A: moves[i].src})
	}
	for _, m := range moves {
		l.emit(Op{Kind: KMove, Dst: m.dst, A: m.tmp})
	}
}

var arithKinds = map[mir.Op]Kind{
	mir.OpAdd: KAdd, mir.OpSub: KSub, mir.OpMul: KMul, mir.OpDiv: KDiv,
	mir.OpMod: KMod, mir.OpPow: KPow, mir.OpBitAnd: KBitAnd,
	mir.OpBitOr: KBitOr, mir.OpBitXor: KBitXor, mir.OpShl: KShl,
	mir.OpShr: KShr, mir.OpUshr: KUshr,
}

func (l *lowerer) lowerInstr(b *mir.Block, in *mir.Instr, bi int, order []*mir.Block) error {
	r := func(i int) int32 { return l.regOf(in.Operands[i]) }
	switch in.Op {
	case mir.OpParameter, mir.OpPhi, mir.OpKeepAlive, mir.OpNop:
		// Parameters are pre-assigned; phis are materialized by edge moves;
		// keepalive is a GC artifact with no runtime effect here.
		return nil
	case mir.OpConstant, mir.OpMagic:
		l.emit(Op{Kind: KConst, Dst: l.regOf(in), Imm: in.Num})
	case mir.OpUnbox:
		aux := int32(0)
		if in.Type == mir.TypeObject {
			aux = 1
		}
		l.emit(Op{Kind: KUnbox, Dst: l.regOf(in), A: r(0), Aux: aux})
	case mir.OpGuardType:
		aux := int32(0)
		if in.Type == mir.TypeObject {
			aux = 1
		}
		l.emit(Op{Kind: KGuardType, Dst: l.regOf(in), A: r(0), Aux: aux})
	case mir.OpAdd, mir.OpSub, mir.OpMul, mir.OpDiv, mir.OpMod, mir.OpPow,
		mir.OpBitAnd, mir.OpBitOr, mir.OpBitXor, mir.OpShl, mir.OpShr, mir.OpUshr:
		l.emit(Op{Kind: arithKinds[in.Op], Dst: l.regOf(in), A: r(0), B: r(1)})
	case mir.OpNeg:
		l.emit(Op{Kind: KNeg, Dst: l.regOf(in), A: r(0)})
	case mir.OpNot:
		l.emit(Op{Kind: KNot, Dst: l.regOf(in), A: r(0)})
	case mir.OpCompare:
		l.emit(Op{Kind: KCmp, Dst: l.regOf(in), A: r(0), B: r(1), Aux: int32(in.Aux)})
	case mir.OpMathFunc:
		op := Op{Kind: KMath, Dst: l.regOf(in), Aux: int32(in.Aux)}
		if len(in.Operands) > 0 {
			op.A = r(0)
		}
		if len(in.Operands) > 1 {
			op.B = r(1)
		}
		l.emit(op)
	case mir.OpElements:
		kind := KElemsHandle
		if in.Operands[0].Type != mir.TypeObject {
			// Type-confused path: the operand was never verified to be an
			// object (e.g. the CVE-2019-9791 bug removed the unbox), so
			// the value is consumed as a raw address.
			kind = KElemsRaw
		}
		l.emit(Op{Kind: kind, Dst: l.regOf(in), A: r(0)})
	case mir.OpInitializedLength:
		l.emit(Op{Kind: KInitLen, Dst: l.regOf(in), A: r(0)})
	case mir.OpBoundsCheck:
		l.emit(Op{Kind: KBoundsCheck, A: r(0), B: r(1)})
	case mir.OpLoadElement:
		l.emit(Op{Kind: KLoadElem, Dst: l.regOf(in), A: r(0), B: r(1), Aux: int32(in.Aux)})
	case mir.OpStoreElement:
		l.emit(Op{Kind: KStoreElem, A: r(0), B: r(1), C: r(2), Aux: int32(in.Aux)})
	case mir.OpSetLength:
		l.emit(Op{Kind: KSetLen, A: r(0), B: r(1)})
	case mir.OpArrayPush:
		l.emit(Op{Kind: KPush, Dst: l.regOf(in), A: r(0), B: r(1)})
	case mir.OpArrayPop:
		l.emit(Op{Kind: KPop, Dst: l.regOf(in), A: r(0)})
	case mir.OpNewArray:
		l.emit(Op{Kind: KNewArr, Dst: l.regOf(in), A: r(0)})
	case mir.OpAddrOf:
		l.emit(Op{Kind: KAddrOf, Dst: l.regOf(in), A: r(0)})
	case mir.OpCodeBase:
		l.emit(Op{Kind: KCodeBase, Dst: l.regOf(in)})
	case mir.OpLoadGlobal:
		l.emit(Op{Kind: KLoadGlobal, Dst: l.regOf(in), Aux: int32(in.Aux)})
	case mir.OpStoreGlobal:
		kind := KStoreGlobalNum
		if in.Operands[0].Type == mir.TypeObject {
			kind = KStoreGlobalObj
		}
		l.emit(Op{Kind: kind, A: r(0), Aux: int32(in.Aux)})
	case mir.OpCall, mir.OpCallSpec:
		args := make([]int32, len(in.Operands))
		objMask := int32(0)
		for i := range in.Operands {
			args[i] = r(i)
			if in.Operands[i].Type == mir.TypeObject {
				if i >= 31 {
					return fmt.Errorf("call with more than 31 args")
				}
				objMask |= 1 << i
			}
		}
		l.code.ArgLists = append(l.code.ArgLists, args)
		expect := int32(0)
		if in.Type == mir.TypeObject {
			expect = 1
		}
		kind := KCall
		target := int32(0)
		if in.Op == mir.OpCallSpec {
			// Target is the DeoptExits index, patched when the matching
			// OpSnapshot lowers; -1 marks an orphan for the downgrade sweep.
			kind, target = KCallSpec, -1
		}
		idx := l.emit(Op{
			Kind: kind, Dst: l.regOf(in),
			A:      int32(len(l.code.ArgLists) - 1),
			B:      expect,
			C:      objMask,
			Aux:    int32(in.Aux),
			Target: target,
		})
		if in.Op == mir.OpCallSpec {
			l.callOps[in] = idx
		}
	case mir.OpOSREntry:
		// Record the OSR entry (skipped when any live-in local has a type
		// that cannot cross the frame boundary) and always emit the marker —
		// the op stream must be identical whether or not the entry is usable,
		// and the marker charges no step either way.
		pc := int32(len(l.code.Ops))
		entry := OSREntry{Ordinal: int32(in.Aux), PC: pc}
		ok := true
		for i, def := range in.Operands {
			k, valid := slotKind(def.Type)
			if !valid {
				ok = false
				break
			}
			entry.Slots = append(entry.Slots, FrameSlot{Slot: int32(i), Reg: l.regOf(def), Kind: k})
		}
		if ok {
			l.code.OSREntries = append(l.code.OSREntries, entry)
		}
		l.emit(Op{Kind: KOSRPoint, Aux: int32(in.Aux)})
	case mir.OpSnapshot:
		// No op is emitted: the snapshot only feeds the deopt side table of
		// the speculated call it references. A snapshot over a plain OpCall
		// (speculation pass declined or disabled) lowers to nothing.
		if len(in.Operands) == 0 {
			return nil
		}
		call := in.Operands[0]
		idx, speculated := l.callOps[call]
		if !speculated {
			return nil
		}
		exit := DeoptExit{Ordinal: int32(in.Num) - 1, ResultSlot: -1}
		ok := true
		for i, def := range in.Operands[1:] {
			if def == call {
				if exit.ResultSlot >= 0 {
					ok = false // ambiguous result slot; leave the call orphaned
					break
				}
				exit.ResultSlot = int32(i)
				continue
			}
			k, valid := slotKind(def.Type)
			if !valid {
				ok = false
				break
			}
			exit.Slots = append(exit.Slots, FrameSlot{Slot: int32(i), Reg: l.regOf(def), Kind: k})
		}
		if !ok || exit.ResultSlot < 0 {
			return nil // downgrade sweep reverts the orphan KCallSpec
		}
		l.code.Ops[idx].Target = int32(len(l.code.DeoptExits))
		l.code.DeoptExits = append(l.code.DeoptExits, exit)
	case mir.OpGoto:
		l.emitPhiMoves(b, b.Succs[0])
		l.jumpTo(b.Succs[0], bi, order)
	case mir.OpTest:
		// Post-split, Test successors hold no phis.
		cond := l.regOf(in.Operands[0])
		idx := l.emit(Op{Kind: KBranchFalse, A: cond})
		l.fixups = append(l.fixups, fixup{opIdx: idx, block: b.Succs[1]})
		l.jumpTo(b.Succs[0], bi, order)
	case mir.OpReturn:
		kind := KRetNum
		if in.Operands[0].Type == mir.TypeObject {
			kind = KRetObj
		}
		l.emit(Op{Kind: kind, A: r(0)})
	case mir.OpReturnUndef:
		l.emit(Op{Kind: KRetUndef})
	default:
		return fmt.Errorf("cannot lower %s", in.Op)
	}
	return nil
}
