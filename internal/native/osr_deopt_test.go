package native

import (
	"reflect"
	"testing"

	"github.com/jitbull/jitbull/internal/heap"
	"github.com/jitbull/jitbull/internal/lir"
	"github.com/jitbull/jitbull/internal/value"
)

// osrLoopCode is the canonical OSR target: `while (i < n) { acc += i*7;
// i += 1 }` with the stride constant hoisted above the header (the GVN
// shape), so its register is live across the loop without any interpreter
// local backing it — the entry's Consts table must rematerialize it.
func osrLoopCode() *lir.Code {
	// r0 = n (param), r1 = i, r2 = acc, r3 = cmp, r4 = temp, r5 = stride
	return &lir.Code{
		Name: "osrloop", NumParams: 1, NumRegs: 8,
		Ops: []lir.Op{
			{Kind: lir.KUnbox, Dst: 0, A: 0},             // 0
			{Kind: lir.KConst, Dst: 1, Imm: 0},           // 1: i = 0
			{Kind: lir.KConst, Dst: 2, Imm: 0},           // 2: acc = 0
			{Kind: lir.KConst, Dst: 5, Imm: 7},           // 3: hoisted stride
			{Kind: lir.KOSRPoint, Aux: 0},                // 4: header marker
			{Kind: lir.KCmp, Dst: 3, A: 1, B: 0, Aux: 1}, // 5: i < n
			{Kind: lir.KBranchFalse, A: 3, Target: 12},   // 6: exit
			{Kind: lir.KMul, Dst: 4, A: 1, B: 5},         // 7: i*7
			{Kind: lir.KAdd, Dst: 2, A: 2, B: 4},         // 8: acc += i*7
			{Kind: lir.KConst, Dst: 4, Imm: 1},           // 9
			{Kind: lir.KAdd, Dst: 1, A: 1, B: 4},         // 10: i = i + 1
			{Kind: lir.KJump, Target: 4},                 // 11: back edge
			{Kind: lir.KRetNum, A: 2},                    // 12
		},
		OSREntries: []lir.OSREntry{{
			Ordinal: 0, PC: 4,
			Slots: []lir.FrameSlot{
				{Slot: 0, Reg: 0, Kind: lir.SlotNum},
				{Slot: 1, Reg: 1, Kind: lir.SlotNum},
				{Slot: 2, Reg: 2, Kind: lir.SlotNum},
			},
			Consts:   []lir.ConstSlot{{Reg: 5, Imm: 7}},
			Eligible: true,
		}},
	}
}

// osrSum is the loop's remainder from state (n, i, acc): acc + 7*Σ i..n-1.
func osrSum(n, i, acc float64) float64 {
	for ; i < n; i++ {
		acc += i * 7
	}
	return acc
}

// execOSRBoth performs the same mid-loop transfer through the fused and the
// unfused executor and asserts bit-identical outcomes — result, Steps,
// status, error, entered flag, and the reconstructed deopt frame.
func execOSRBoth(t *testing.T, code *lir.Code, entry int, locals []value.Value, maxOps int64) (Result, Status, error, bool) {
	t.Helper()
	return execOSRBothWith(t, code, entry, locals, maxOps, nil)
}

// execOSRBothWith is execOSRBoth with a pre-transfer heap setup (array
// programs need the handle the interpreter frame carries to exist in the
// stub arena), applied identically to both executors' environments.
func execOSRBothWith(t *testing.T, code *lir.Code, entry int, locals []value.Value, maxOps int64, setup func(h *stubHooks)) (Result, Status, error, bool) {
	t.Helper()
	if code.Fused == nil {
		code.Fused = lir.Fuse(code)
	}
	hu, hf := newStub(), newStub()
	if setup != nil {
		setup(hu)
		setup(hf)
	}
	ru, su, eu, ou := ExecOSR(code, entry, locals, hu, maxOps, nil, true)
	rf, sf, ef, of := ExecOSR(code, entry, locals, hf, maxOps, nil, false)
	if ou != of {
		t.Fatalf("entered flag diverged (maxOps=%d): unfused %v fused %v", maxOps, ou, of)
	}
	if !resEq(ru, rf) || su != sf || !errEq(eu, ef) {
		t.Fatalf("OSR fused/unfused diverged (maxOps=%d):\nunfused (%+v, %v, %v)\nfused   (%+v, %v, %v)",
			maxOps, ru, su, eu, rf, sf, ef)
	}
	if !reflect.DeepEqual(ru.Deopt, rf.Deopt) {
		t.Fatalf("OSR deopt state diverged (maxOps=%d): unfused %+v fused %+v", maxOps, ru.Deopt, rf.Deopt)
	}
	return rf, sf, ef, of
}

// TestExecOSREntersMidLoop: a transfer from interpreter state (i=4, acc=100)
// must produce exactly the loop's remainder, identically fused and unfused,
// and the normal call-boundary entry must be unaffected by the side tables.
func TestExecOSREntersMidLoop(t *testing.T) {
	code := osrLoopCode()
	locals := []value.Value{value.Num(10), value.Num(4), value.Num(100)}
	res, status, err, entered := execOSRBoth(t, code, 0, locals, 0)
	if !entered || err != nil || status != StatusOK {
		t.Fatalf("entered=%v status=%v err=%v", entered, status, err)
	}
	if want := osrSum(10, 4, 100); res.Val != want {
		t.Fatalf("OSR result = %v, want %v", res.Val, want)
	}
	// Call-boundary entry through the same code object.
	full, status, err := runBoth(t, code, []value.Value{value.Num(10)}, 0, nil)
	if err != nil || status != StatusOK {
		t.Fatalf("normal entry: %v %v", status, err)
	}
	if want := osrSum(10, 0, 0); full.Val != want {
		t.Fatalf("normal entry result = %v, want %v", full.Val, want)
	}
}

// TestExecOSRBudgetSweep is the budget-exactness proof across the OSR entry
// boundary: for every budget from 1 to beyond the remainder's step count,
// the fused transfer must return the same result/status/error *and the same
// Result.Steps* as the unfused one — including the BudgetError cut-off.
func TestExecOSRBudgetSweep(t *testing.T) {
	code := osrLoopCode()
	code.Fused = lir.Fuse(code)
	locals := []value.Value{value.Num(9), value.Num(3), value.Num(50)}
	full, status, err, entered := ExecOSR(code, 0, locals, newStub(), 0, nil, true)
	if !entered || err != nil || status != StatusOK {
		t.Fatalf("entered=%v status=%v err=%v", entered, status, err)
	}
	for max := int64(1); max <= full.Steps+2; max++ {
		execOSRBoth(t, code, 0, locals, max)
	}
}

// TestDelegationOntoOSREntry pins the entry-check delegation contract the
// threaded.go comment states: when the straight-line cost at the OSR
// entry's fused index already exceeds the budget, execFusedFrom delegates
// onto the KOSRPoint marker itself. That is only safe because the frame was
// materialized exactly once (on the shared register file, before dispatch)
// and the marker is a zero-step nop in both executors — so the sweep must
// observe bit-identical results, Steps, and BudgetError timing, with no
// sign of a re-materialized frame.
func TestDelegationOntoOSREntry(t *testing.T) {
	code := osrLoopCode()
	code.Fused = lir.Fuse(code)
	e := &code.OSREntries[0]
	fi := fusedIdxForPC(code.Fused, e.PC)
	if fi < 0 {
		t.Fatalf("OSR marker at pc %d is not a fused-op leader", e.PC)
	}
	// The delegation target of the entry check IS the marker's source pc.
	if code.Fused.SrcPC[fi] != e.PC {
		t.Fatalf("fused op %d maps to source pc %d, want the marker at %d", fi, code.Fused.SrcPC[fi], e.PC)
	}
	entryCost := int64(code.Fused.Cost[fi])
	if entryCost <= 1 {
		t.Fatalf("entry cost %d cannot force the entry check to delegate", entryCost)
	}
	locals := []value.Value{value.Num(11), value.Num(2), value.Num(1)}
	full, _, err, entered := ExecOSR(code, 0, locals, newStub(), 0, nil, true)
	if !entered || err != nil {
		t.Fatalf("entered=%v err=%v", entered, err)
	}
	delegated := 0
	for max := int64(1); max <= full.Steps+2; max++ {
		if max < entryCost {
			// This budget takes the entry-check path: the fused executor
			// delegates onto the marker before dispatching a single op.
			delegated++
		}
		execOSRBoth(t, code, 0, locals, max)
	}
	if delegated == 0 {
		t.Fatal("no budget in the sweep exercised entry-check delegation onto the marker")
	}
}

// TestExecOSRConstRematerialization proves the Consts table is load-bearing:
// stripping it (while leaving the entry eligible) silently zeroes the
// hoisted stride, so the transfer computes the wrong remainder. The frame
// map alone cannot carry loop-invariant constants.
func TestExecOSRConstRematerialization(t *testing.T) {
	code := osrLoopCode()
	locals := []value.Value{value.Num(8), value.Num(2), value.Num(30)}
	res, _, err, entered := execOSRBoth(t, code, 0, locals, 0)
	if !entered || err != nil {
		t.Fatalf("entered=%v err=%v", entered, err)
	}
	if want := osrSum(8, 2, 30); res.Val != want {
		t.Fatalf("with Consts: %v, want %v", res.Val, want)
	}
	stripped := osrLoopCode()
	stripped.OSREntries[0].Consts = nil
	sres, _, serr, sentered := execOSRBoth(t, stripped, 0, locals, 0)
	if !sentered || serr != nil {
		t.Fatalf("entered=%v err=%v", sentered, serr)
	}
	// Stride register zeroed by the fresh frame: every iteration adds 0.
	if sres.Val != 30 {
		t.Fatalf("without Consts: %v, want the untouched acc 30", sres.Val)
	}
}

// TestExecOSRRefusals: every refusal path must return entered=false with a
// zero result and no side effects — out-of-range entry, ineligible entry,
// and each strict-materialization mismatch (the frame map's static kinds
// are trusted over runtime tags, so a mismatch refuses rather than
// renumbers).
func TestExecOSRRefusals(t *testing.T) {
	code := osrLoopCode()
	code.Fused = lir.Fuse(code)
	good := []value.Value{value.Num(10), value.Num(4), value.Num(100)}
	cases := []struct {
		name   string
		entry  int
		locals []value.Value
		mutate func(c *lir.Code)
	}{
		{name: "entry-negative", entry: -1, locals: good},
		{name: "entry-out-of-range", entry: 99, locals: good},
		{name: "ineligible", entry: 0, locals: good,
			mutate: func(c *lir.Code) { c.OSREntries[0].Eligible = false }},
		{name: "bool-in-num-slot", entry: 0,
			locals: []value.Value{value.Num(10), value.Bool(true), value.Num(100)}},
		{name: "undefined-local", entry: 0,
			locals: []value.Value{value.Num(10), value.Undef(), value.Num(100)}},
		{name: "missing-local", entry: 0,
			locals: []value.Value{value.Num(10)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := code
			if tc.mutate != nil {
				c = osrLoopCode()
				c.Fused = lir.Fuse(c)
				tc.mutate(c)
			}
			for _, unfused := range []bool{true, false} {
				res, status, err, entered := ExecOSR(c, tc.entry, tc.locals, newStub(), 0, nil, unfused)
				if entered {
					t.Fatalf("unfused=%v: transfer was accepted", unfused)
				}
				if status != StatusOK || err != nil || res != (Result{}) {
					t.Fatalf("unfused=%v: refused entry leaked state: (%+v, %v, %v)", unfused, res, status, err)
				}
			}
		})
	}
}

// specCallCode is the deopt target: a straight line through a KCallSpec
// whose return-type guard rebuilds interpreter locals 0..2 from the frame
// map on failure.
func specCallCode() *lir.Code {
	return &lir.Code{
		Name: "spec", NumParams: 1, NumRegs: 6,
		ArgLists: [][]int32{{0}},
		Ops: []lir.Op{
			{Kind: lir.KUnbox, Dst: 0, A: 0},                             // 0
			{Kind: lir.KConst, Dst: 1, Imm: 5},                           // 1
			{Kind: lir.KCallSpec, Dst: 2, A: 0, B: 0, Aux: 7, Target: 0}, // 2
			{Kind: lir.KAdd, Dst: 3, A: 2, B: 1},                         // 3
			{Kind: lir.KRetNum, A: 3},                                    // 4
		},
		DeoptExits: []lir.DeoptExit{{
			Ordinal: 0, ResultSlot: 2,
			Slots: []lir.FrameSlot{
				{Slot: 0, Reg: 0, Kind: lir.SlotNum},
				{Slot: 1, Reg: 1, Kind: lir.SlotNum},
			},
		}},
	}
}

// runBothDeopt is runBoth plus deopt-frame equality: the reconstructed
// interpreter locals must match value-for-value between executors.
func runBothDeopt(t *testing.T, code *lir.Code, args []value.Value, maxOps int64, setup func(h *stubHooks)) (Result, Status, error) {
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
	if !reflect.DeepEqual(ru.Deopt, rf.Deopt) {
		t.Fatalf("deopt state diverged (maxOps=%d): unfused %+v fused %+v", maxOps, ru.Deopt, rf.Deopt)
	}
	return rf, sf, ef
}

// TestDeoptExitFusedUnfused covers the guard's three outcomes — pass,
// deopt with an exactly-boxed result, orphan-guard bail — identically in
// both executors.
func TestDeoptExitFusedUnfused(t *testing.T) {
	numCallee := func(h *stubHooks) {
		h.callFn = func(_ int, args []value.Value) (value.Value, error) {
			return value.Num(args[0].AsNumber() * 2), nil
		}
	}
	code := specCallCode()
	res, status, err := runBothDeopt(t, code, []value.Value{value.Num(20)}, 0, numCallee)
	if err != nil || status != StatusOK || res.Val != 45 {
		t.Fatalf("number path: (%+v, %v, %v), want 45", res, status, err)
	}

	// A boolean return fails the strict guard: the deopt frame must carry
	// the raw callee result (no coercion) plus the mapped locals.
	boolCallee := func(h *stubHooks) {
		h.callFn = func(int, []value.Value) (value.Value, error) { return value.Bool(true), nil }
	}
	res, status, err = runBothDeopt(t, code, []value.Value{value.Num(20)}, 0, boolCallee)
	if err != nil || status != StatusDeopt {
		t.Fatalf("boolean path: status=%v err=%v, want deopt", status, err)
	}
	want := &DeoptState{Exit: 0, Locals: []value.Value{value.Num(20), value.Num(5), value.Bool(true)}}
	if !reflect.DeepEqual(res.Deopt, want) {
		t.Fatalf("deopt frame = %+v, want %+v", res.Deopt, want)
	}
	if res.Steps != 3 {
		t.Fatalf("deopt steps = %d, want 3 (unbox+const+callspec)", res.Steps)
	}

	// An undefined return deopts too, passing undefined through raw.
	undefCallee := func(h *stubHooks) {
		h.callFn = func(int, []value.Value) (value.Value, error) { return value.Undef(), nil }
	}
	res, status, err = runBothDeopt(t, code, []value.Value{value.Num(20)}, 0, undefCallee)
	if err != nil || status != StatusDeopt {
		t.Fatalf("undefined path: status=%v err=%v, want deopt", status, err)
	}
	if !res.Deopt.Locals[2].IsUndefined() {
		t.Fatalf("deopt frame result = %v, want undefined passed through raw", res.Deopt.Locals[2])
	}

	// An orphan guard (no deopt exit) degrades to a bail in both executors.
	orphan := specCallCode()
	orphan.Ops[2].Target = -1
	orphan.DeoptExits = nil
	_, status, err = runBothDeopt(t, orphan, []value.Value{value.Num(20)}, 0, boolCallee)
	if err != nil || status != StatusBail {
		t.Fatalf("orphan guard: status=%v err=%v, want bail", status, err)
	}
}

// TestDeoptBudgetSweep sweeps every budget across the deopt boundary: the
// cut-off must land on the same op with the same Steps whether the fused
// executor ran the guard itself or delegated to the reference loop first.
func TestDeoptBudgetSweep(t *testing.T) {
	code := specCallCode()
	code.Fused = lir.Fuse(code)
	boolCallee := func(h *stubHooks) {
		h.callFn = func(int, []value.Value) (value.Value, error) { return value.Bool(false), nil }
	}
	args := []value.Value{value.Num(7)}
	h := newStub()
	boolCallee(h)
	full, status, err := ExecUnfused(code, args, h, 0, nil)
	if err != nil || status != StatusDeopt {
		t.Fatalf("reference run: status=%v err=%v, want deopt", status, err)
	}
	for max := int64(1); max <= full.Steps+4; max++ {
		runBothDeopt(t, code, args, max, boolCallee)
	}
}

// TestOSRPointChargesNoStep pins the marker's zero-step contract in both
// Go executors — the unfused switch and the fused switch — since Steps
// parity between tiers (and between code compiled with and without OSR
// support) depends on it.
func TestOSRPointChargesNoStep(t *testing.T) {
	code := &lir.Code{
		Name: "marker", NumParams: 0, NumRegs: 2,
		Ops: []lir.Op{
			{Kind: lir.KConst, Dst: 0, Imm: 9},
			{Kind: lir.KOSRPoint, Aux: 0},
			{Kind: lir.KRetNum, A: 0},
		},
	}
	ru, _, err := ExecUnfused(code, nil, newStub(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	code.Fused = lir.Fuse(code)
	rf, _, err := Exec(code, nil, newStub(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]Result{"unfused": ru, "fused": rf} {
		if r.Steps != 2 || r.Val != 9 {
			t.Errorf("%s: steps=%d val=%v, want 2 steps (const+ret) and 9", name, r.Steps, r.Val)
		}
	}
}

// osrArrayCode is the array-loop OSR target in the shape regalloc produces:
// the elements address and length are hoisted above the header, so the
// entry's Remats table must re-derive both from the frame map's array slot
// before dispatch. Loop: `while (i < len(a)) { s += a[i]; i += 1 }`.
func osrArrayCode() *lir.Code {
	// r0 = array handle, r1 = i, r2 = s, r3 = elems, r4 = len, r5/r6 = temps
	return &lir.Code{
		Name: "osrarray", NumParams: 1, NumRegs: 8,
		Ops: []lir.Op{
			{Kind: lir.KGuardType, Dst: 0, A: 0, Aux: 1}, // 0
			{Kind: lir.KConst, Dst: 1, Imm: 0},           // 1: i = 0
			{Kind: lir.KConst, Dst: 2, Imm: 0},           // 2: s = 0
			{Kind: lir.KElemsHandle, Dst: 3, A: 0},       // 3: hoisted elems
			{Kind: lir.KInitLen, Dst: 4, A: 3},           // 4: hoisted len
			{Kind: lir.KOSRPoint, Aux: 0},                // 5: header
			{Kind: lir.KCmp, Dst: 5, A: 1, B: 4, Aux: 1}, // 6: i < len
			{Kind: lir.KBranchFalse, A: 5, Target: 14},   // 7
			{Kind: lir.KBoundsCheck, A: 1, B: 4},         // 8
			{Kind: lir.KLoadElem, Dst: 6, A: 3, B: 1},    // 9
			{Kind: lir.KAdd, Dst: 2, A: 2, B: 6},         // 10: s += a[i]
			{Kind: lir.KConst, Dst: 6, Imm: 1},           // 11
			{Kind: lir.KAdd, Dst: 1, A: 1, B: 6},         // 12
			{Kind: lir.KJump, Target: 5},                 // 13
			{Kind: lir.KRetNum, A: 2},                    // 14
		},
		OSREntries: []lir.OSREntry{{
			Ordinal: 0, PC: 5,
			Slots: []lir.FrameSlot{
				{Slot: 0, Reg: 0, Kind: lir.SlotObj},
				{Slot: 1, Reg: 1, Kind: lir.SlotNum},
				{Slot: 2, Reg: 2, Kind: lir.SlotNum},
			},
			Remats: []lir.RematOp{
				{Kind: lir.RematElems, Reg: 3, Src: 0},
				{Kind: lir.RematLen, Reg: 4, Src: 3},
			},
			Eligible: true,
		}},
	}
}

// osrArrayEnv returns the handle an 8-element array will get in a fresh
// stub arena (the stub arenas are deterministic, so a probe allocation
// learns it) plus the setup that creates and fills it with 10+i.
func osrArrayEnv() (value.Value, func(h *stubHooks)) {
	probe := heap.New(1 << 10)
	handle, _ := probe.Alloc(8)
	setup := func(h *stubHooks) {
		arr, _ := h.arena.Alloc(8)
		elems, _ := h.arena.Elems(arr)
		for i := 0; i < 8; i++ {
			h.arena.RawStore(elems+i, float64(10+i))
		}
	}
	return value.ArrayRef(handle), setup
}

// TestExecOSRRematerializesArrayAccessors: a mid-loop transfer into the
// array loop must re-derive the hoisted elements address and length from
// the materialized handle and produce exactly the loop's remainder — and
// the Remats table is load-bearing: stripping it leaves the length register
// zeroed, so the loop exits immediately with the untouched accumulator.
func TestExecOSRRematerializesArrayAccessors(t *testing.T) {
	arr, setup := osrArrayEnv()
	// Transfer at i=3, s=100: remainder is Σ (10+i) for i in 3..7.
	locals := []value.Value{arr, value.Num(3), value.Num(100)}
	code := osrArrayCode()
	res, status, err, entered := execOSRBothWith(t, code, 0, locals, 0, setup)
	if !entered || err != nil || status != StatusOK {
		t.Fatalf("entered=%v status=%v err=%v", entered, status, err)
	}
	if want := float64(100 + 13 + 14 + 15 + 16 + 17); res.Val != want {
		t.Fatalf("OSR remainder = %v, want %v", res.Val, want)
	}
	// Budget exactness across the remat prologue and the array body.
	for max := int64(1); max <= res.Steps+2; max++ {
		execOSRBothWith(t, code, 0, locals, max, setup)
	}
	stripped := osrArrayCode()
	stripped.OSREntries[0].Remats = nil
	sres, _, serr, sentered := execOSRBothWith(t, stripped, 0, locals, 0, setup)
	if !sentered || serr != nil {
		t.Fatalf("stripped: entered=%v err=%v", sentered, serr)
	}
	if sres.Val != 100 {
		t.Fatalf("without Remats the zeroed length must end the loop at once: got %v, want 100", sres.Val)
	}
}

// TestExecOSRRematRefusals: the remat prologue must refuse the transfer —
// entered=false, zero result, nothing run — when the array handle is
// dangling in the target arena (nothing was allocated) or when the frame
// map's object slot holds a non-array local; and an unknown remat kind is
// a refusal, not a panic.
func TestExecOSRRematRefusals(t *testing.T) {
	arr, setup := osrArrayEnv()
	good := []value.Value{arr, value.Num(3), value.Num(100)}
	cases := []struct {
		name   string
		locals []value.Value
		setup  func(h *stubHooks)
		mutate func(c *lir.Code)
	}{
		{name: "dangling-handle", locals: good, setup: nil},
		{name: "number-in-obj-slot", setup: setup,
			locals: []value.Value{value.Num(7), value.Num(3), value.Num(100)}},
		{name: "unknown-remat-kind", locals: good, setup: setup,
			mutate: func(c *lir.Code) { c.OSREntries[0].Remats[0].Kind = 99 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code := osrArrayCode()
			code.Fused = lir.Fuse(code)
			if tc.mutate != nil {
				tc.mutate(code)
			}
			for _, unfused := range []bool{true, false} {
				h := newStub()
				if tc.setup != nil {
					tc.setup(h)
				}
				res, status, err, entered := ExecOSR(code, 0, tc.locals, h, 0, nil, unfused)
				if entered {
					t.Fatalf("unfused=%v: transfer was accepted", unfused)
				}
				if status != StatusOK || err != nil || res != (Result{}) {
					t.Fatalf("unfused=%v: refused entry leaked state: (%+v, %v, %v)", unfused, res, status, err)
				}
			}
		})
	}
}
