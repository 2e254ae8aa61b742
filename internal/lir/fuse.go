// Superinstruction fusion: a peephole pass over the linear op stream that
// collapses hot multi-op patterns — compare+branch, const+arith immediate
// forms, the canonical `i = i + 1; cmp; branch-back` loop tail, and
// boundscheck+load/store — into single fused ops the native tier dispatches
// through one switch (internal/native/threaded.go).
//
// The contract is bit-identical replay: every fused op's case performs the
// constituent ops' register reads, writes, heap effects and step charges in
// the original order, so results, Result.Steps, bail points and crash
// points are indistinguishable from executing Ops one by one. Fusion never
// spans a basic-block leader (a jump target must begin a fused op), which
// keeps every branch target representable in the fused stream.
//
// The step budget is amortized: instead of one check per op, the fused
// executor checks only at function entry and at taken jumps/branches,
// using the precomputed worst-case straight-line cost (Cost) to the next
// check point. When a check finds the budget *might* be exceeded before
// the next one, execution is delegated to the unfused switch executor at
// the equivalent source pc — the reference semantics — so budget errors
// fire on exactly the same op with exactly the same step count.
package lir

import (
	"sort"

	"github.com/jitbull/jitbull/internal/faults"
	"github.com/jitbull/jitbull/internal/obs"
)

// FKind is a fused operation kind: either the pass-through form of one
// lir.Kind or a superinstruction covering several.
type FKind uint8

// FInvalid is the zero FKind; it never appears in a well-formed fused
// stream (the executor's default case reports a corrupt-code error).
const FInvalid FKind = 0

// PassThrough returns the fused pass-through kind of k. Pass-through kinds
// occupy 1..KindCount so the mapping is total by construction; the
// exhaustiveness guard verifies every one has a case.
func PassThrough(k Kind) FKind { return FKind(k) + 1 }

// Superinstructions. Field packing is documented per kind in terms of the
// constituent source ops; NSteps is the number of source ops covered.
const (
	// FAddImm / FSubImm / FMulImm: KConst{Dst:C, Imm} + K{Add,Sub,Mul}{Dst, A, B}.
	FAddImm FKind = FKind(KindCount) + 1 + iota
	FSubImm
	FMulImm
	// FCmpImm: KConst{Dst:C, Imm} + KCmp{Dst, A, B, Aux}.
	FCmpImm
	// FCmpBranch: KCmp{Dst, A, B, Aux} + KBranchFalse{A: Dst, Target}.
	FCmpBranch
	// FCmpImmBranch: KConst{Dst:C, Imm} + KCmp{Dst, A, B, Aux} +
	// KBranchFalse{A: Dst, Target}.
	FCmpImmBranch
	// FIncCmpBranch: KAdd{Dst:D, A, B} + KCmp{Dst, D/E per Aux2, Aux} +
	// KBranchFalse{A: Dst, Target}. Aux2 bit 0 set means the add result is
	// the cmp's right operand (cmp = E <op> D), clear means the left.
	FIncCmpBranch
	// FAddImmCmpBranch: KConst{Dst:C, Imm} + KAdd{Dst:D, A, B} +
	// KCmp{Dst, D/E per Aux2, Aux} + KBranchFalse{A: Dst, Target} — the
	// canonical loop tail `i = i + 1; cmp i, n; branch-back`.
	FAddImmCmpBranch
	// FBoundsLoad: KBoundsCheck{A, B} + KLoadElem{Dst, C, D, Aux}.
	FBoundsLoad
	// FBoundsStore: KBoundsCheck{A, B} + KStoreElem{C, D, E, Aux}.
	FBoundsStore
	// FLenBoundsLoad: KInitLen{Dst:C, A:D} + KBoundsCheck{A, B:C} +
	// KLoadElem{Dst, A:D, B:A, Aux}.
	FLenBoundsLoad
	// FLenBoundsStore: KInitLen{Dst:C, A:D} + KBoundsCheck{A, B:C} +
	// KStoreElem{A:D, B:A, C:E, Aux}.
	FLenBoundsStore
	// FMove2: KMove{Dst, A} + KMove{Dst:C, A:D} (parallel-copy pairs from
	// phi materialization).
	FMove2
	// FMoveN: KMove x k (3 <= k <= 8), the phi-resolution shuffle lowering
	// emits before every block exit. Aux is the offset of the k (dst, src)
	// pairs in FusedCode.MovePairs; Aux2 = k. Replayed in source order, so
	// chained shuffles (move a<-b; move b<-c) resolve exactly as unfused.
	FMoveN
	// FMoveNJump: KMove x k (2 <= k <= 8) + KJump{Target} — the shuffle
	// plus the loop back edge it almost always precedes. One dispatch and
	// one budget check replace k+1 of each.
	FMoveNJump
	// FAdd2: KAdd{Dst, A, B} + KAdd{Dst: C, A: D, B: E} — back-to-back
	// adds (accumulate + increment), the body of every counting loop.
	// Sequential semantics: the second add sees the first's result.
	FAdd2
	// FAddMoveNJump: KAdd + KMove x m + KJump — a single-accumulator loop
	// body with its phi shuffle and back edge, one dispatch. Add in
	// Dst/A/B, moves in MovePairs (Aux offset, Aux2 count), jump Target.
	FAddMoveNJump
	// FAdd2MoveNJump: KAdd + KAdd + KMove x m + KJump — the complete
	// canonical while-loop body (accumulate, increment, shuffle, back
	// edge). Adds in Dst/A/B and C/D/E, moves and target as above.
	FAdd2MoveNJump
	// FArithN: a run of 4..12 pure fall-through ops (const, move, and all
	// float arithmetic/compare kinds) replayed verbatim from the
	// FusedCode.ArithOps side table. Aux is the offset of the run, Aux2 its
	// length. None of the constituents can branch, bail, or crash, so the
	// whole run is one dispatch and zero budget checks.
	FArithN
	// FArithNJump: FArithN + KJump{Target} — a full straight-line loop body
	// plus its back edge collapsed into a single dispatch.
	FArithNJump
	// FCmpBranchJump: KCmp{Dst, A, B, Aux} + KBranchFalse{A: Dst, Target} +
	// KJump{Target: C} — the loop-head `test; branch-exit; enter-body`
	// triple the while-loop lowering emits once per iteration. Exactly one
	// of the two transfers is taken, so exactly one budget check fires,
	// matching the unfused sequence.
	FCmpBranchJump
	// FEnd terminates every fused stream: falling off the end of the
	// source ops returns undefined. Jump targets equal to len(Ops) map
	// here. Charges no steps.
	FEnd

	// FKindCount is one past the last FKind.
	FKindCount
)

var fkindNames = map[FKind]string{
	FAddImm: "add.imm", FSubImm: "sub.imm", FMulImm: "mul.imm",
	FCmpImm: "cmp.imm", FCmpBranch: "cmp.br", FCmpImmBranch: "cmp.imm.br",
	FIncCmpBranch: "inc.cmp.br", FAddImmCmpBranch: "addimm.cmp.br",
	FBoundsLoad: "bounds.load", FBoundsStore: "bounds.store",
	FLenBoundsLoad: "len.bounds.load", FLenBoundsStore: "len.bounds.store",
	FMove2: "move2", FMoveN: "moveN", FMoveNJump: "moveN.jmp",
	FAdd2: "add2", FAddMoveNJump: "add.movN.jmp", FAdd2MoveNJump: "add2.movN.jmp",
	FArithN: "arithN", FArithNJump: "arithN.jmp",
	FCmpBranchJump: "cmp.br.jmp", FEnd: "end",
}

// String returns the mnemonic.
func (k FKind) String() string {
	if k == FInvalid {
		return "invalid"
	}
	if k >= 1 && k <= FKind(KindCount) {
		return Kind(k - 1).String()
	}
	if s, ok := fkindNames[k]; ok {
		return s
	}
	return "FKind(?)"
}

// IsSuper reports whether k is a superinstruction (covers > 1 source op).
func (k FKind) IsSuper() bool { return k > FKind(KindCount) && k < FEnd }

// FOp is one fused operation. Pass-through ops carry the source op's
// fields verbatim; superinstructions pack their constituents as documented
// on the FKind constants. Target is an index into the fused stream.
type FOp struct {
	Kind    FKind
	Dst     int32
	A, B, C int32
	D, E    int32
	Target  int32
	Imm     float64
	Aux     int32
	Aux2    int32
	// NSteps is the number of source LIR ops this fused op covers — the
	// step charge for full (non-bailing) execution.
	NSteps uint8
}

// FusedCode is the superinstruction form of a Code's op stream, executed
// by the native tier's threaded dispatcher. Immutable after Fuse returns.
type FusedCode struct {
	Ops []FOp
	// SrcPC maps each fused op to the source pc of its first constituent
	// (len(src) for FEnd): the resume point when the executor delegates to
	// the unfused reference loop near budget exhaustion.
	SrcPC []int32
	// Cost[i] is the worst-case number of steps charged from fused op i
	// until the next budget check point (a taken jump/branch or function
	// exit), following fall-through. The executor delegates when
	// steps+Cost[target] could exceed the budget, which is what makes the
	// amortized checking exact.
	Cost []int32

	// MovePairs backs FMoveN/FMoveNJump: flattened (dst, src) register
	// pairs, Aux2 pairs starting at offset Aux.
	MovePairs []int32
	// ArithOps backs FArithN/FArithNJump: the constituent source ops,
	// stored verbatim, Aux2 of them starting at offset Aux.
	ArithOps []Op

	SrcOps      int // source ops covered (len of the source stream)
	FusedSrcOps int // source ops absorbed into superinstructions
	Supers      int // superinstructions emitted
}

// passKind maps every Kind to its pass-through FKind. The indirection is
// deliberately a table (not arithmetic at the use site) so the
// exhaustiveness guard can fail when a new Kind is added without a fusion
// decision.
var passKind [KindCount]FKind

func init() {
	for k := Kind(0); k < KindCount; k++ {
		passKind[k] = PassThrough(k)
	}
}

// Fuse builds the superinstruction form of c's ops. It does not attach the
// result to c (FuseWith does, under the compile supervisor).
func Fuse(c *Code) *FusedCode {
	n := len(c.Ops)
	// A pattern is admissible only when no interior op is a branch target:
	// control must never enter the middle of a fused op. Fall-through
	// leaders (the op after a branch) may be interior — the only way to
	// reach one is through the preceding constituent, which the fused op
	// replays. Block metadata (c.Blocks, attached by regalloc) marks both
	// kinds of leader, so the entry set is derived from the ops directly.
	entry := make([]bool, n+1)
	entry[0] = true
	for _, op := range c.Ops {
		if op.Kind == KJump || op.Kind == KBranchFalse {
			if int(op.Target) <= n {
				entry[op.Target] = true
			}
		}
	}

	f := &FusedCode{SrcOps: n}
	// fusedIdx[srcPC] is the fused index of the op starting at srcPC,
	// defined for every group start — in particular for every leader,
	// since no fused op spans one.
	fusedIdx := make([]int32, n+1)
	for i := range fusedIdx {
		fusedIdx[i] = -1
	}

	emit := func(op FOp, srcPC, width int) {
		fusedIdx[srcPC] = int32(len(f.Ops))
		op.NSteps = uint8(width)
		f.Ops = append(f.Ops, op)
		f.SrcPC = append(f.SrcPC, int32(srcPC))
		if width > 1 {
			f.Supers++
			f.FusedSrcOps += width
		}
	}

	for pc := 0; pc < n; {
		if op, width := matchSuper(c, f, pc, entry); width > 1 {
			emit(op, pc, width)
			pc += width
			continue
		}
		src := &c.Ops[pc]
		emit(FOp{
			Kind: passKind[src.Kind], Dst: src.Dst,
			A: src.A, B: src.B, C: src.C,
			Target: src.Target, Imm: src.Imm, Aux: src.Aux,
		}, pc, 1)
		if src.Kind == KOSRPoint {
			// OSR markers charge no step in either executor; Result.Steps
			// must be bit-identical to code compiled without OSR support.
			f.Ops[len(f.Ops)-1].NSteps = 0
		}
		pc++
	}
	emit(FOp{Kind: FEnd}, n, 1)
	// FEnd charges no steps; emit counted it as width 1 for bookkeeping
	// symmetry, undo the step charge.
	f.Ops[len(f.Ops)-1].NSteps = 0

	// Remap branch targets from source pcs to fused indexes. Every target
	// is a block leader, and leaders always start a fused op.
	for i := range f.Ops {
		op := &f.Ops[i]
		if !hasTarget(op.Kind) {
			continue
		}
		t := fusedIdx[op.Target]
		if t < 0 {
			// Unreachable for well-formed code (targets are leaders); fall
			// back to FEnd rather than corrupt control flow.
			t = int32(len(f.Ops) - 1)
		}
		op.Target = t
		if op.Kind == FCmpBranchJump {
			t2 := fusedIdx[op.C]
			if t2 < 0 {
				t2 = int32(len(f.Ops) - 1)
			}
			op.C = t2
		}
	}

	f.Cost = computeCost(f.Ops)
	return f
}

// hasTarget reports whether k transfers control through FOp.Target.
func hasTarget(k FKind) bool {
	switch k {
	case PassThrough(KJump), PassThrough(KBranchFalse),
		FCmpBranch, FCmpImmBranch, FIncCmpBranch, FAddImmCmpBranch,
		FMoveNJump, FCmpBranchJump, FArithNJump,
		FAddMoveNJump, FAdd2MoveNJump:
		return true
	}
	return false
}

// computeCost computes, backward over the fused stream, the worst-case
// step charge from each op to the next budget check point following
// fall-through. Taken branches check at their target; returns and FEnd
// terminate; everything else accumulates into its successor.
func computeCost(ops []FOp) []int32 {
	cost := make([]int32, len(ops))
	for i := len(ops) - 1; i >= 0; i-- {
		c := int32(ops[i].NSteps)
		switch ops[i].Kind {
		case PassThrough(KJump), PassThrough(KRetNum), PassThrough(KRetObj),
			PassThrough(KRetUndef), FEnd, FMoveNJump, FCmpBranchJump,
			FArithNJump, FAddMoveNJump, FAdd2MoveNJump:
			// Control always transfers (and checks at the target), or
			// nothing runs beyond a return.
		default:
			if i+1 < len(ops) {
				c += cost[i+1]
			}
		}
		cost[i] = c
	}
	return cost
}

// matchSuper tries every superinstruction pattern at pc, longest first,
// and returns the fused op plus the number of source ops covered (1 when
// nothing matches). A pattern is admissible only when no interior op is a
// branch target — control may never enter the middle of a fused op.
// Move-shuffle patterns append their register pairs to f.MovePairs.
func matchSuper(c *Code, f *FusedCode, pc int, entry []bool) (FOp, int) {
	ops := c.Ops
	n := len(ops)
	fits := func(width int) bool {
		if pc+width > n {
			return false
		}
		for i := 1; i < width; i++ {
			if entry[pc+i] {
				return false
			}
		}
		return true
	}

	// KMove x k [+ KJump]: the phi-resolution shuffle, with the back edge
	// folded in when it directly follows. Longest run first, capped at 8
	// pairs (longer shuffles chunk).
	if ops[pc].Kind == KMove {
		k := 1
		for k < 8 && fits(k+1) && ops[pc+k].Kind == KMove {
			k++
		}
		if k >= 2 {
			emitPairs := func() int32 {
				off := int32(len(f.MovePairs))
				for i := 0; i < k; i++ {
					f.MovePairs = append(f.MovePairs, ops[pc+i].Dst, ops[pc+i].A)
				}
				return off
			}
			if fits(k+1) && ops[pc+k].Kind == KJump {
				return FOp{
					Kind: FMoveNJump, Aux: emitPairs(), Aux2: int32(k),
					Target: ops[pc+k].Target,
				}, k + 1
			}
			if k >= 3 {
				return FOp{Kind: FMoveN, Aux: emitPairs(), Aux2: int32(k)}, k
			}
			// k == 2 without a jump: FMove2 (below) carries the pairs in
			// its own fields, no side table needed.
		}
	}

	// KCmp + KBranchFalse + KJump: the while-loop head. Both arms transfer,
	// so the pair of checked edges collapses into one dispatch.
	if fits(3) &&
		ops[pc].Kind == KCmp && ops[pc+1].Kind == KBranchFalse && ops[pc+2].Kind == KJump {
		cmp, br, jmp := &ops[pc], &ops[pc+1], &ops[pc+2]
		if br.A == cmp.Dst {
			return FOp{
				Kind: FCmpBranchJump, Dst: cmp.Dst, A: cmp.A, B: cmp.B, Aux: cmp.Aux,
				Target: br.Target, C: jmp.Target,
			}, 3
		}
	}

	// KAdd [+ KAdd] + KMove x m + KJump: the canonical while-loop body —
	// accumulate, increment, phi shuffle, back edge — as one branch-free
	// dispatch. The second add must not open a loop-tail pattern (add,
	// cmp, branchfalse), which chainable() also guards elsewhere.
	if ops[pc].Kind == KAdd && fits(2) {
		nAdds := 1
		if ops[pc+1].Kind == KAdd && !(pc+3 < n && ops[pc+2].Kind == KCmp && ops[pc+3].Kind == KBranchFalse) {
			nAdds = 2
		}
		m := 0
		for m < 8 && fits(nAdds+m+1) && ops[pc+nAdds+m].Kind == KMove {
			m++
		}
		if m >= 1 && fits(nAdds+m+1) && ops[pc+nAdds+m].Kind == KJump {
			off := int32(len(f.MovePairs))
			for i := 0; i < m; i++ {
				mv := &ops[pc+nAdds+i]
				f.MovePairs = append(f.MovePairs, mv.Dst, mv.A)
			}
			a1 := &ops[pc]
			op := FOp{
				Kind: FAddMoveNJump, Dst: a1.Dst, A: a1.A, B: a1.B,
				Aux: off, Aux2: int32(m), Target: ops[pc+nAdds+m].Target,
			}
			if nAdds == 2 {
				a2 := &ops[pc+1]
				op.Kind = FAdd2MoveNJump
				op.C, op.D, op.E = a2.Dst, a2.A, a2.B
			}
			return op, nAdds + m + 1
		}
		if nAdds == 2 {
			a1, a2 := &ops[pc], &ops[pc+1]
			return FOp{
				Kind: FAdd2, Dst: a1.Dst, A: a1.A, B: a1.B,
				C: a2.Dst, D: a2.A, E: a2.B,
			}, 2
		}
	}

	// KConst + KAdd + KCmp + KBranchFalse: the canonical loop tail.
	if fits(4) &&
		ops[pc].Kind == KConst && ops[pc+1].Kind == KAdd &&
		ops[pc+2].Kind == KCmp && ops[pc+3].Kind == KBranchFalse {
		cst, add, cmp, br := &ops[pc], &ops[pc+1], &ops[pc+2], &ops[pc+3]
		if feeds(cst.Dst, add) && br.A == cmp.Dst && int(br.Target) <= pc {
			if e, aux2, ok := cmpOther(cmp, add.Dst); ok {
				return FOp{
					Kind: FAddImmCmpBranch, C: cst.Dst, Imm: cst.Imm,
					D: add.Dst, A: add.A, B: add.B,
					Dst: cmp.Dst, E: e, Aux: cmp.Aux, Aux2: aux2,
					Target: br.Target,
				}, 4
			}
		}
	}

	// KAdd + KCmp + KBranchFalse: loop tail with the stride in a register.
	if fits(3) &&
		ops[pc].Kind == KAdd && ops[pc+1].Kind == KCmp && ops[pc+2].Kind == KBranchFalse {
		add, cmp, br := &ops[pc], &ops[pc+1], &ops[pc+2]
		if br.A == cmp.Dst && int(br.Target) <= pc {
			if e, aux2, ok := cmpOther(cmp, add.Dst); ok {
				return FOp{
					Kind: FIncCmpBranch,
					D:    add.Dst, A: add.A, B: add.B,
					Dst: cmp.Dst, E: e, Aux: cmp.Aux, Aux2: aux2,
					Target: br.Target,
				}, 3
			}
		}
	}

	// KConst + KCmp + KBranchFalse.
	if fits(3) &&
		ops[pc].Kind == KConst && ops[pc+1].Kind == KCmp && ops[pc+2].Kind == KBranchFalse {
		cst, cmp, br := &ops[pc], &ops[pc+1], &ops[pc+2]
		if feeds(cst.Dst, cmp) && br.A == cmp.Dst {
			return FOp{
				Kind: FCmpImmBranch, C: cst.Dst, Imm: cst.Imm,
				Dst: cmp.Dst, A: cmp.A, B: cmp.B, Aux: cmp.Aux,
				Target: br.Target,
			}, 3
		}
	}

	// KInitLen + KBoundsCheck + KLoad/KStoreElem: the array-access triple.
	if fits(3) && ops[pc].Kind == KInitLen && ops[pc+1].Kind == KBoundsCheck {
		il, bc := &ops[pc], &ops[pc+1]
		if bc.B == il.Dst {
			switch third := &ops[pc+2]; third.Kind {
			case KLoadElem:
				if third.A == il.A && third.B == bc.A {
					return FOp{
						Kind: FLenBoundsLoad, C: il.Dst, D: il.A,
						A: bc.A, Dst: third.Dst, Aux: third.Aux,
					}, 3
				}
			case KStoreElem:
				if third.A == il.A && third.B == bc.A {
					return FOp{
						Kind: FLenBoundsStore, C: il.Dst, D: il.A,
						A: bc.A, E: third.C, Aux: third.Aux,
					}, 3
				}
			}
		}
	}

	// A run of pure fall-through ops (const/move/arithmetic), optionally
	// folding the KJump that ends the block: the whole straight-line loop
	// body becomes one dispatch. Runs stop before a KCmp feeding a
	// KBranchFalse so the denser compare-and-branch supers keep priority.
	if chainable(ops, pc) {
		k := 1
		for k < 12 && fits(k+1) && chainable(ops, pc+k) {
			k++
		}
		if k >= 4 {
			emitRun := func() int32 {
				off := int32(len(f.ArithOps))
				f.ArithOps = append(f.ArithOps, ops[pc:pc+k]...)
				return off
			}
			if fits(k+1) && ops[pc+k].Kind == KJump {
				return FOp{
					Kind: FArithNJump, Aux: emitRun(), Aux2: int32(k),
					Target: ops[pc+k].Target,
				}, k + 1
			}
			return FOp{Kind: FArithN, Aux: emitRun(), Aux2: int32(k)}, k
		}
	}

	// Two-op patterns.
	if fits(2) {
		a, b := &ops[pc], &ops[pc+1]
		switch {
		case a.Kind == KCmp && b.Kind == KBranchFalse && b.A == a.Dst:
			return FOp{
				Kind: FCmpBranch, Dst: a.Dst, A: a.A, B: a.B, Aux: a.Aux,
				Target: b.Target,
			}, 2
		case a.Kind == KConst && feeds(a.Dst, b):
			switch b.Kind {
			case KAdd:
				return constArith(FAddImm, a, b), 2
			case KSub:
				return constArith(FSubImm, a, b), 2
			case KMul:
				return constArith(FMulImm, a, b), 2
			case KCmp:
				op := constArith(FCmpImm, a, b)
				op.Aux = b.Aux
				return op, 2
			}
		case a.Kind == KBoundsCheck && b.Kind == KLoadElem:
			return FOp{
				Kind: FBoundsLoad, A: a.A, B: a.B,
				Dst: b.Dst, C: b.A, D: b.B, Aux: b.Aux,
			}, 2
		case a.Kind == KBoundsCheck && b.Kind == KStoreElem:
			return FOp{
				Kind: FBoundsStore, A: a.A, B: a.B,
				C: b.A, D: b.B, E: b.C, Aux: b.Aux,
			}, 2
		case a.Kind == KMove && b.Kind == KMove:
			return FOp{
				Kind: FMove2, Dst: a.Dst, A: a.A, C: b.Dst, D: b.A,
			}, 2
		}
	}

	return FOp{}, 1
}

// chainable reports whether the op at pc can join an FArithN run: pure,
// crash-free, fall-through, and touching only the float register file. Ops
// that open a compare-and-branch super (cmp+branch and the loop-tail
// shapes ending in one) are excluded so those denser patterns, which also
// amortize the budget check, keep priority over the generic chain. KMove
// is excluded too: move runs belong to FMoveN/FMoveNJump, whose flat
// pair-table loop replays a move in about half the time of the generic
// switch.
func chainable(ops []Op, pc int) bool {
	n := len(ops)
	at := func(i int, k Kind) bool { return i < n && ops[i].Kind == k }
	switch ops[pc].Kind {
	case KSub, KMul, KDiv, KMod, KPow,
		KBitAnd, KBitOr, KBitXor, KShl, KShr, KUshr, KNeg, KNot:
		return true
	case KConst:
		if at(pc+1, KCmp) && at(pc+2, KBranchFalse) {
			return false // FCmpImmBranch
		}
		if at(pc+1, KAdd) && at(pc+2, KCmp) && at(pc+3, KBranchFalse) {
			return false // FAddImmCmpBranch
		}
		return true
	case KAdd:
		return !(at(pc+1, KCmp) && at(pc+2, KBranchFalse)) // FIncCmpBranch
	case KCmp:
		return !at(pc+1, KBranchFalse) // FCmpBranch[Jump]
	}
	return false
}

// feeds reports whether register r is a source operand of the binary op.
func feeds(r int32, op *Op) bool { return op.A == r || op.B == r }

// constArith packs a KConst + binary-op pair into an immediate-form fused
// op: the constant write (C, Imm) is replayed before the operation, so
// any aliasing between the constant register and the operands resolves
// exactly as in the unfused sequence.
func constArith(kind FKind, cst, arith *Op) FOp {
	return FOp{Kind: kind, C: cst.Dst, Imm: cst.Imm, Dst: arith.Dst, A: arith.A, B: arith.B}
}

// cmpOther returns the cmp operand that is not the add result d, plus the
// Aux2 side bit (set when d is the cmp's right operand). ok=false when the
// cmp does not read d at all — the pattern is then not a loop tail.
func cmpOther(cmp *Op, d int32) (other int32, aux2 int32, ok bool) {
	switch d {
	case cmp.A:
		return cmp.B, 0, true
	case cmp.B:
		return cmp.A, 1, true
	}
	return 0, 0, false
}

// ComputeBlocks derives the basic-block metadata of c's op stream: leaders
// (index 0, every branch target, every post-terminator op) and loop heads
// (targets of back edges). regalloc.Allocate attaches the same shape to
// Code.Blocks so a standard pipeline never recomputes it.
func ComputeBlocks(c *Code) *BlockMeta {
	leaders := map[int32]bool{0: true}
	loop := map[int32]bool{}
	for pc, op := range c.Ops {
		switch op.Kind {
		case KJump, KBranchFalse:
			leaders[op.Target] = true
			if int(op.Target) <= pc {
				loop[op.Target] = true
			}
			leaders[int32(pc+1)] = true
		case KRetNum, KRetObj, KRetUndef:
			leaders[int32(pc+1)] = true
		}
	}
	m := &BlockMeta{}
	for l := range leaders {
		if int(l) <= len(c.Ops) {
			m.Leaders = append(m.Leaders, l)
		}
	}
	for l := range loop {
		m.LoopHeads = append(m.LoopHeads, l)
	}
	sort.Slice(m.Leaders, func(i, j int) bool { return m.Leaders[i] < m.Leaders[j] })
	sort.Slice(m.LoopHeads, func(i, j int) bool { return m.LoopHeads[i] < m.LoopHeads[j] })
	return m
}

// FuseWith runs the fusion stage under the compile supervisor: a
// native.fuse span, a step charge + fault roll at faults.PointFuse, and
// fusion metrics into reg (all nil-safe). On success c.Fused is attached;
// on a (necessarily injected or budget) failure c is left unfused.
func FuseWith(c *Code, fctx *faults.CompileCtx, reg *obs.Registry) error {
	sp := fctx.Span(obs.CatCompile, "native.fuse")
	if fctx != nil {
		if err := fctx.Step(faults.PointFuse, c.Name, int64(len(c.Ops))); err != nil {
			sp.EndErr(err)
			return err
		}
	}
	f := Fuse(c)
	c.Fused = f
	reg.Counter("native.fused_ops").Add(int64(f.FusedSrcOps))
	reg.Counter("native.fuse_supers").Add(int64(f.Supers))
	if f.SrcOps > 0 {
		// Percentage of source ops absorbed into superinstructions.
		reg.Histogram("native.fusion_ratio", []int64{10, 25, 50, 75, 90}).
			Observe(int64(f.FusedSrcOps * 100 / f.SrcOps))
	}
	sp.End(obs.I("ops_in", int64(f.SrcOps)),
		obs.I("ops_out", int64(len(f.Ops))),
		obs.I("fused", int64(f.FusedSrcOps)))
	return nil
}
