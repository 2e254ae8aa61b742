package native

import (
	"errors"
	"math"
	"testing"

	"github.com/jitbull/jitbull/internal/heap"
	"github.com/jitbull/jitbull/internal/lir"
	"github.com/jitbull/jitbull/internal/value"
)

// resEq compares results modulo Checks (the fused executor's amortized
// check count is observability, not semantics) with NaN-exact values.
func resEq(a, b Result) bool {
	return a.Kind == b.Kind &&
		math.Float64bits(a.Val) == math.Float64bits(b.Val) &&
		a.Steps == b.Steps
}

func errEq(a, b error) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	return a == nil || a.Error() == b.Error()
}

// runBoth executes code fused and unfused in two identical fresh stub
// environments and asserts bit-identical results, steps, status, error,
// globals and heap effects.
func runBoth(t *testing.T, code *lir.Code, args []value.Value, maxOps int64, setup func(h *stubHooks)) (Result, Status, error) {
	t.Helper()
	if code.Fused == nil {
		code.Fused = lir.Fuse(code)
	}
	hu, hf := newStub(), newStub()
	if setup != nil {
		setup(hu)
		setup(hf)
	}
	ru, su, eu := ExecUnfused(code, args, hu, maxOps, nil)
	rf, sf, ef := Exec(code, args, hf, maxOps, nil)
	if !resEq(ru, rf) || su != sf || !errEq(eu, ef) {
		t.Fatalf("fused/unfused diverged (maxOps=%d):\nunfused (%+v, %v, %v)\nfused   (%+v, %v, %v)",
			maxOps, ru, su, eu, rf, sf, ef)
	}
	for i := range hu.globals {
		gu, gf := hu.globals[i], hf.globals[i]
		if gu.Type() != gf.Type() || (gu.Type() == value.Number && math.Float64bits(gu.AsNumber()) != math.Float64bits(gf.AsNumber())) {
			t.Fatalf("global %d diverged: unfused %v fused %v", i, gu, gf)
		}
	}
	return rf, sf, ef
}

// loopCode is the canonical fusion target: a do-while summing integers
// 0..n-1 whose tail is the exact `const; i = i + 1; cmp; branch-back`
// shape the 4-op superinstruction covers (the conditional branch IS the
// back edge: branch-false on `i >= n` loops while i < n).
func loopCode() *lir.Code {
	// r0 = n (param), r1 = i, r2 = acc, r3 = const, r4 = cmp
	return &lir.Code{
		Name: "loop", NumParams: 1, NumRegs: 6,
		Ops: []lir.Op{
			{Kind: lir.KUnbox, Dst: 0, A: 0},             // 0
			{Kind: lir.KConst, Dst: 1, Imm: 0},           // 1: i = 0
			{Kind: lir.KConst, Dst: 2, Imm: 0},           // 2: acc = 0
			{Kind: lir.KAdd, Dst: 2, A: 2, B: 1},         // 3: head: acc += i
			{Kind: lir.KConst, Dst: 3, Imm: 1},           // 4
			{Kind: lir.KAdd, Dst: 1, A: 1, B: 3},         // 5: i = i + 1
			{Kind: lir.KCmp, Dst: 4, A: 1, B: 0, Aux: 4}, // 6: i >= n
			{Kind: lir.KBranchFalse, A: 4, Target: 3},    // 7: back edge
			{Kind: lir.KRetNum, A: 2},                    // 8
		},
	}
}

func TestFusedLoopEquivalence(t *testing.T) {
	code := loopCode()
	for _, n := range []float64{0, 1, 2, 10, 1000} {
		res, status, err := runBoth(t, code, []value.Value{value.Num(n)}, 0, nil)
		if err != nil || status != StatusOK {
			t.Fatalf("n=%v: %v %v", n, status, err)
		}
		want := n * (n - 1) / 2
		if n == 0 {
			want = 0
		}
		if res.Val != want {
			t.Fatalf("sum(%v) = %v, want %v", n, res.Val, want)
		}
	}
	// The loop tail must actually have fused into the 4-op superinstruction.
	found := false
	for _, op := range code.Fused.Ops {
		if op.Kind == lir.FAddImmCmpBranch {
			found = true
		}
	}
	if !found {
		t.Fatalf("loop tail did not fuse into FAddImmCmpBranch:\n%v", code.Fused.Ops)
	}
}

// TestFusedBudgetSweep is the exactness proof for amortized budget checks:
// for every budget from 1 to beyond the loop's full step count, the fused
// executor must return the same result/status/error *and the same
// Result.Steps* as the per-op-checked reference loop — including the
// BudgetError cut-off point.
func TestFusedBudgetSweep(t *testing.T) {
	code := loopCode()
	code.Fused = lir.Fuse(code)
	args := []value.Value{value.Num(12)}
	full, _, err := ExecUnfused(code, args, newStub(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for max := int64(1); max <= full.Steps+2; max++ {
		runBoth(t, code, args, max, nil)
	}
}

func TestFusedArrayPatterns(t *testing.T) {
	// initlen + boundscheck + loadelem / storeelem triples over a real
	// array: copy arr[i] -> arr[i+off] style traffic.
	c := &lir.Code{
		Name: "arr", NumParams: 2, NumRegs: 10,
		Ops: []lir.Op{
			{Kind: lir.KUnbox, Dst: 0, A: 0, Aux: 1},  // arr handle
			{Kind: lir.KUnbox, Dst: 1, A: 1},          // idx
			{Kind: lir.KElemsHandle, Dst: 2, A: 0},    // elems addr
			{Kind: lir.KInitLen, Dst: 3, A: 2},        // len
			{Kind: lir.KBoundsCheck, A: 1, B: 3},      // 0 <= idx < len
			{Kind: lir.KLoadElem, Dst: 4, A: 2, B: 1}, // v = arr[idx]
			{Kind: lir.KConst, Dst: 5, Imm: 2},        //
			{Kind: lir.KMul, Dst: 6, A: 4, B: 5},      // v*2
			{Kind: lir.KInitLen, Dst: 7, A: 2},        //
			{Kind: lir.KBoundsCheck, A: 1, B: 7},      //
			{Kind: lir.KStoreElem, A: 2, B: 1, C: 6},  // arr[idx] = v*2
			{Kind: lir.KRetNum, A: 6},                 //
		},
	}
	// The stub arenas are deterministic, so the handle the setup allocation
	// yields is learned from a probe arena and baked into the arguments.
	probe := heap.New(1 << 10)
	handle, _ := probe.Alloc(8)
	setup := func(h *stubHooks) {
		arr, _ := h.arena.Alloc(8)
		elems, _ := h.arena.Elems(arr)
		for i := 0; i < 8; i++ {
			h.arena.RawStore(elems+i, float64(10+i))
		}
	}
	// In-bounds, out-of-bounds (bail), fractional index (bail).
	for _, idx := range []float64{3, 7, 8, -1, 2.5} {
		runBoth(t, c, []value.Value{value.ArrayRef(handle), value.Num(idx)}, 0, setup)
	}
	c.Fused = nil
	f := lir.Fuse(c)
	var kinds []lir.FKind
	for _, op := range f.Ops {
		if op.Kind.IsSuper() {
			kinds = append(kinds, op.Kind)
		}
	}
	has := func(k lir.FKind) bool {
		for _, x := range kinds {
			if x == k {
				return true
			}
		}
		return false
	}
	if !has(lir.FLenBoundsLoad) || !has(lir.FLenBoundsStore) {
		t.Fatalf("array triples did not fuse: supers = %v in\n%v", kinds, f.Ops)
	}
}

func TestFusedAliasingEdges(t *testing.T) {
	// Const register aliases the arith destination and sources: the fused
	// handlers replay the const write first, so reads must observe it.
	cases := [][]lir.Op{
		{ // dst == const reg
			{Kind: lir.KConst, Dst: 1, Imm: 7},
			{Kind: lir.KAdd, Dst: 1, A: 1, B: 1},
			{Kind: lir.KRetNum, A: 1},
		},
		{ // cmp reads the const it overwrites
			{Kind: lir.KConst, Dst: 1, Imm: 3},
			{Kind: lir.KCmp, Dst: 1, A: 1, B: 1, Aux: 5},
			{Kind: lir.KRetNum, A: 1},
		},
		{ // move pair with overlapping registers
			{Kind: lir.KConst, Dst: 1, Imm: 5},
			{Kind: lir.KConst, Dst: 2, Imm: 9},
			{Kind: lir.KMove, Dst: 3, A: 1},
			{Kind: lir.KMove, Dst: 1, A: 2},
			{Kind: lir.KAdd, Dst: 4, A: 3, B: 1},
			{Kind: lir.KRetNum, A: 4},
		},
		{ // sub with const on the right
			{Kind: lir.KConst, Dst: 2, Imm: 4},
			{Kind: lir.KSub, Dst: 3, A: 0, B: 2},
			{Kind: lir.KRetNum, A: 3},
		},
	}
	for i, ops := range cases {
		c := &lir.Code{Name: "alias", NumParams: 1, NumRegs: 8, Ops: ops}
		res, _, err := runBoth(t, c, []value.Value{value.Num(100)}, 0, nil)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		_ = res
	}
}

// TestFusedBranchTargetsMidStream pins target remapping: a branch into a
// region whose surrounding ops fused must land on the fused op that
// starts at the target, never inside one.
func TestFusedBranchTargetsMidStream(t *testing.T) {
	// Jump target 4 lands between two fusable pairs; the leader must keep
	// ops 4.. from being absorbed into the pair at 2..3.
	c := &lir.Code{
		Name: "split", NumParams: 1, NumRegs: 8,
		Ops: []lir.Op{
			{Kind: lir.KUnbox, Dst: 0, A: 0},     // 0
			{Kind: lir.KJump, Target: 4},         // 1
			{Kind: lir.KConst, Dst: 1, Imm: 99},  // 2 (dead)
			{Kind: lir.KAdd, Dst: 0, A: 0, B: 1}, // 3 (dead)
			{Kind: lir.KConst, Dst: 2, Imm: 1},   // 4: leader
			{Kind: lir.KAdd, Dst: 3, A: 0, B: 2}, // 5
			{Kind: lir.KRetNum, A: 3},            // 6
		},
	}
	res, _, err := runBoth(t, c, []value.Value{value.Num(41)}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Val != 42 {
		t.Fatalf("res = %v, want 42", res.Val)
	}
}

// TestFusedCallAndBail: calls dispatch through hooks with LIFO argument
// space, and an expect-object miss bails identically.
func TestFusedCallAndBail(t *testing.T) {
	c := &lir.Code{
		Name: "call", NumParams: 1, NumRegs: 6,
		ArgLists: [][]int32{{0}},
		Ops: []lir.Op{
			{Kind: lir.KUnbox, Dst: 0, A: 0},
			{Kind: lir.KCall, Dst: 1, A: 0, B: 0, Aux: 7},
			{Kind: lir.KConst, Dst: 2, Imm: 1},
			{Kind: lir.KAdd, Dst: 3, A: 1, B: 2},
			{Kind: lir.KRetNum, A: 3},
		},
	}
	setup := func(h *stubHooks) {
		h.callFn = func(idx int, args []value.Value) (value.Value, error) {
			return value.Num(args[0].AsNumber() * 2), nil
		}
	}
	res, _, err := runBoth(t, c, []value.Value{value.Num(20)}, 0, setup)
	if err != nil {
		t.Fatal(err)
	}
	if res.Val != 41 {
		t.Fatalf("res = %v, want 41", res.Val)
	}
	// Call error propagates identically.
	boom := errors.New("boom")
	runBoth(t, c, []value.Value{value.Num(20)}, 0, func(h *stubHooks) {
		h.callFn = func(int, []value.Value) (value.Value, error) { return value.Value{}, boom }
	})
	// Expect-object miss bails identically.
	c2 := &lir.Code{
		Name: "callobj", NumParams: 1, NumRegs: 6,
		ArgLists: [][]int32{{0}},
		Ops: []lir.Op{
			{Kind: lir.KUnbox, Dst: 0, A: 0},
			{Kind: lir.KCall, Dst: 1, A: 0, B: 1, Aux: 7},
			{Kind: lir.KRetObj, A: 1},
		},
	}
	_, status, err := runBoth(t, c2, []value.Value{value.Num(1)}, 0, nil)
	if err != nil || status != StatusBail {
		t.Fatalf("expect-object miss: status=%v err=%v, want bail", status, err)
	}
}

// TestFusedStepsAcrossBails: guard bailouts must report identical partial
// step counts (the engine bills them to the VM budget).
func TestFusedStepsAcrossBails(t *testing.T) {
	c := &lir.Code{
		Name: "bail", NumParams: 1, NumRegs: 6,
		Ops: []lir.Op{
			{Kind: lir.KConst, Dst: 1, Imm: 5},
			{Kind: lir.KAdd, Dst: 2, A: 1, B: 1},
			{Kind: lir.KUnbox, Dst: 3, A: 0, Aux: 1}, // object guard: Num arg bails
			{Kind: lir.KRetNum, A: 2},
		},
	}
	res, status, err := runBoth(t, c, []value.Value{value.Num(1)}, 0, nil)
	if err != nil || status != StatusBail {
		t.Fatalf("status=%v err=%v, want bail", status, err)
	}
	if res.Steps != 3 {
		t.Fatalf("bail steps = %d, want 3 (const+add+guard)", res.Steps)
	}
}

// whileCode is the forward-branch loop shape: `while (i < n)` compiles to
// a cmp + branch-false-exit at the head (fusing to FCmpBranch) and an
// unconditional back-edge jump, with a `const; add` pair (FAddImm) in the
// body.
func whileCode() *lir.Code {
	// r0 = n (param), r1 = i, r2 = acc, r3 = cmp, r4 = const
	return &lir.Code{
		Name: "while", NumParams: 1, NumRegs: 6,
		Ops: []lir.Op{
			{Kind: lir.KUnbox, Dst: 0, A: 0},             // 0
			{Kind: lir.KConst, Dst: 1, Imm: 0},           // 1: i = 0
			{Kind: lir.KConst, Dst: 2, Imm: 0},           // 2: acc = 0
			{Kind: lir.KCmp, Dst: 3, A: 1, B: 0, Aux: 1}, // 3: head: i < n
			{Kind: lir.KBranchFalse, A: 3, Target: 9},    // 4: exit
			{Kind: lir.KAdd, Dst: 2, A: 2, B: 1},         // 5: acc += i
			{Kind: lir.KConst, Dst: 4, Imm: 1},           // 6
			{Kind: lir.KAdd, Dst: 1, A: 1, B: 4},         // 7: i = i + 1
			{Kind: lir.KJump, Target: 3},                 // 8: back edge
			{Kind: lir.KRetNum, A: 2},                    // 9
		},
	}
}

func TestFusedWhileLoopEquivalence(t *testing.T) {
	code := whileCode()
	for _, n := range []float64{0, 1, 2, 10, 500} {
		res, status, err := runBoth(t, code, []value.Value{value.Num(n)}, 0, nil)
		if err != nil || status != StatusOK {
			t.Fatalf("n=%v: %v %v", n, status, err)
		}
		if want := n * (n - 1) / 2; res.Val != want {
			t.Fatalf("sum(%v) = %v, want %v", n, res.Val, want)
		}
	}
	has := map[lir.FKind]bool{}
	for _, op := range code.Fused.Ops {
		has[op.Kind] = true
	}
	if !has[lir.FCmpBranch] || !has[lir.FAddImm] {
		t.Fatalf("while shape did not fuse FCmpBranch+FAddImm:\n%v", code.Fused.Ops)
	}
	// Budget sweep over the forward-branch shape too.
	args := []value.Value{value.Num(7)}
	full, _, err := ExecUnfused(code, args, newStub(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for max := int64(1); max <= full.Steps+2; max++ {
		runBoth(t, code, args, max, nil)
	}
}

// shuffleCode is the shape the production pipeline emits for a while
// loop after SSA destruction: a `cmp; branch-exit; enter-body` head
// triple, an accumulate+increment body, a phi-resolution move shuffle,
// and the back edge. It exercises FCmpBranchJump and FAdd2MoveNJump.
func shuffleCode() *lir.Code {
	// r0 = n, r1 = i, r2 = acc, r3 = cmp, r4/r5 = shuffle temps
	return &lir.Code{
		Name: "shuffle", NumParams: 1, NumRegs: 8,
		Ops: []lir.Op{
			{Kind: lir.KUnbox, Dst: 0, A: 0},             // 0
			{Kind: lir.KConst, Dst: 1, Imm: 0},           // 1: i = 0
			{Kind: lir.KConst, Dst: 2, Imm: 0},           // 2: acc = 0
			{Kind: lir.KConst, Dst: 6, Imm: 1},           // 3: stride
			{Kind: lir.KCmp, Dst: 3, A: 1, B: 0, Aux: 1}, // 4: head: i < n
			{Kind: lir.KBranchFalse, A: 3, Target: 12},   // 5: exit
			{Kind: lir.KJump, Target: 7},                 // 6: enter body
			{Kind: lir.KAdd, Dst: 4, A: 2, B: 1},         // 7: acc' = acc + i
			{Kind: lir.KAdd, Dst: 5, A: 1, B: 6},         // 8: i' = i + 1
			{Kind: lir.KMove, Dst: 2, A: 4},              // 9: acc = acc'
			{Kind: lir.KMove, Dst: 1, A: 5},              // 10: i = i'
			{Kind: lir.KJump, Target: 4},                 // 11: back edge
			{Kind: lir.KRetNum, A: 2},                    // 12
		},
	}
}

func TestFusedShuffleLoopEquivalence(t *testing.T) {
	code := shuffleCode()
	for _, n := range []float64{0, 1, 2, 10, 500} {
		res, status, err := runBoth(t, code, []value.Value{value.Num(n)}, 0, nil)
		if err != nil || status != StatusOK {
			t.Fatalf("n=%v: %v %v", n, status, err)
		}
		if want := n * (n - 1) / 2; res.Val != want {
			t.Fatalf("sum(%v) = %v, want %v", n, res.Val, want)
		}
	}
	has := map[lir.FKind]bool{}
	for _, op := range code.Fused.Ops {
		has[op.Kind] = true
	}
	if !has[lir.FCmpBranchJump] || !has[lir.FAdd2MoveNJump] {
		t.Fatalf("pipeline while shape did not fuse head triple + full body:\n%v", code.Fused.Ops)
	}
	// Budget sweep: identical results, steps, status at every cut-off.
	args := []value.Value{value.Num(7)}
	full, _, err := ExecUnfused(code, args, newStub(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for max := int64(1); max <= full.Steps+2; max++ {
		runBoth(t, code, args, max, nil)
	}
}

// moveChainCode exercises FMoveN (a bare shuffle, no back edge) and
// FArithN (a straight-line arithmetic run of four or more ops).
func moveChainCode() *lir.Code {
	return &lir.Code{
		Name: "movechain", NumParams: 1, NumRegs: 10,
		Ops: []lir.Op{
			{Kind: lir.KUnbox, Dst: 0, A: 0},     // 0: x
			{Kind: lir.KConst, Dst: 1, Imm: 3},   // 1
			{Kind: lir.KMul, Dst: 2, A: 0, B: 1}, // 2: 3x — chain start
			{Kind: lir.KSub, Dst: 3, A: 2, B: 0}, // 3: 2x
			{Kind: lir.KMul, Dst: 4, A: 3, B: 3}, // 4: 4x^2
			{Kind: lir.KDiv, Dst: 5, A: 4, B: 1}, // 5: 4x^2/3
			{Kind: lir.KNeg, Dst: 6, A: 5},       // 6: chain of 5
			{Kind: lir.KMove, Dst: 7, A: 6},      // 7: shuffle of 3
			{Kind: lir.KMove, Dst: 8, A: 2},      // 8
			{Kind: lir.KMove, Dst: 9, A: 7},      // 9
			{Kind: lir.KAdd, Dst: 9, A: 9, B: 8}, // 10
			{Kind: lir.KRetNum, A: 9},            // 11
		},
	}
}

func TestFusedMoveAndArithChains(t *testing.T) {
	code := moveChainCode()
	for _, x := range []float64{0, 1, -2.5, 1e9} {
		res, status, err := runBoth(t, code, []value.Value{value.Num(x)}, 0, nil)
		if err != nil || status != StatusOK {
			t.Fatalf("x=%v: %v %v", x, status, err)
		}
		if want := -(4 * x * x / 3) + 3*x; res.Val != want {
			t.Fatalf("f(%v) = %v, want %v", x, res.Val, want)
		}
	}
	has := map[lir.FKind]bool{}
	for _, op := range code.Fused.Ops {
		has[op.Kind] = true
	}
	if !has[lir.FArithN] || !has[lir.FMoveN] {
		t.Fatalf("chain shapes did not fuse FArithN+FMoveN:\n%v", code.Fused.Ops)
	}
	args := []value.Value{value.Num(4)}
	full, _, err := ExecUnfused(code, args, newStub(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for max := int64(1); max <= full.Steps+2; max++ {
		runBoth(t, code, args, max, nil)
	}
}

// TestFastPathConstants pins the fast-path case constants to the canonical
// pass-through mapping.
func TestFastPathConstants(t *testing.T) {
	pins := map[lir.FKind]lir.Kind{
		fpConst: lir.KConst, fpMove: lir.KMove, fpAdd: lir.KAdd,
		fpSub: lir.KSub, fpMul: lir.KMul, fpDiv: lir.KDiv,
		fpCmp: lir.KCmp, fpJump: lir.KJump, fpBranchFalse: lir.KBranchFalse,
		fpUnbox: lir.KUnbox, fpGuardType: lir.KGuardType,
		fpElems: lir.KElemsHandle, fpInitLen: lir.KInitLen,
		fpBounds: lir.KBoundsCheck, fpLoadElem: lir.KLoadElem,
		fpStoreElem: lir.KStoreElem, fpRetNum: lir.KRetNum,
		fpRetObj: lir.KRetObj, fpRetUndef: lir.KRetUndef,
		fpNop: lir.KNop, fpMoveTag: lir.KMoveTag,
		fpLoadGlobal: lir.KLoadGlobal, fpStoreGNum: lir.KStoreGlobalNum,
		fpStoreGObj: lir.KStoreGlobalObj, fpCall: lir.KCall,
		fpCallSpec: lir.KCallSpec, fpOSRPoint: lir.KOSRPoint,
		fpMod: lir.KMod, fpPow: lir.KPow, fpBitAnd: lir.KBitAnd,
		fpBitOr: lir.KBitOr, fpBitXor: lir.KBitXor, fpShl: lir.KShl,
		fpShr: lir.KShr, fpUshr: lir.KUshr, fpNeg: lir.KNeg,
		fpNot: lir.KNot, fpMath: lir.KMath, fpElemsRaw: lir.KElemsRaw,
		fpSetLen: lir.KSetLen, fpPush: lir.KPush, fpPop: lir.KPop,
		fpNewArr: lir.KNewArr, fpAddrOf: lir.KAddrOf, fpCodeBase: lir.KCodeBase,
	}
	for fk, k := range pins {
		if lir.PassThrough(k) != fk {
			t.Errorf("fast-path constant for %v is %d, want %d", k, fk, lir.PassThrough(k))
		}
	}
}

// TestFusedChecksReported: the fused executor reports its amortized check
// count; the reference loop reports none.
func TestFusedChecksReported(t *testing.T) {
	code := loopCode()
	code.Fused = lir.Fuse(code)
	args := []value.Value{value.Num(50)}
	rf, _, _ := Exec(code, args, newStub(), 0, nil)
	ru, _, _ := ExecUnfused(code, args, newStub(), 0, nil)
	if rf.Checks == 0 {
		t.Fatal("fused run reported no budget checks")
	}
	if ru.Checks != 0 {
		t.Fatalf("unfused run reported %d checks, want 0", ru.Checks)
	}
	// One check at entry plus one per taken back edge: far fewer than one
	// per op.
	if rf.Checks >= rf.Steps/2 {
		t.Fatalf("checks %d not amortized vs %d steps", rf.Checks, rf.Steps)
	}
}
