package regalloc

import (
	"testing"

	"github.com/jitbull/jitbull/internal/lir"
)

// mk builds a tiny LIR program by hand.
func mk(numParams int, ops ...lir.Op) *lir.Code {
	c := &lir.Code{Name: "t", NumParams: numParams, Ops: ops}
	max := int32(numParams)
	visit := func(r int32) {
		if r+1 > max {
			max = r + 1
		}
	}
	for _, op := range ops {
		visit(op.Dst)
		visit(op.A)
		visit(op.B)
		visit(op.C)
	}
	c.NumRegs = int(max)
	return c
}

func TestAllocateReusesDeadSlots(t *testing.T) {
	// r2 and r3 have disjoint lifetimes; they must share a slot.
	c := mk(1,
		lir.Op{Kind: lir.KConst, Dst: 2, Imm: 1},
		lir.Op{Kind: lir.KAdd, Dst: 4, A: 2, B: 0},
		lir.Op{Kind: lir.KConst, Dst: 3, Imm: 2}, // r2 dead here
		lir.Op{Kind: lir.KAdd, Dst: 5, A: 3, B: 4},
		lir.Op{Kind: lir.KRetNum, A: 5},
	)
	before := c.NumRegs
	Allocate(c)
	if c.NumRegs >= before {
		t.Fatalf("no compaction: %d -> %d", before, c.NumRegs)
	}
	// Semantics must be preserved: recompute manually.
	if c.Ops[0].Dst == c.Ops[1].Dst {
		t.Fatal("def of r2 clobbered by its user's dst")
	}
}

func TestAllocateKeepsParamSlots(t *testing.T) {
	c := mk(2,
		lir.Op{Kind: lir.KAdd, Dst: 3, A: 0, B: 1},
		lir.Op{Kind: lir.KRetNum, A: 3},
	)
	Allocate(c)
	if c.Ops[0].A != 0 || c.Ops[0].B != 1 {
		t.Fatalf("parameters must keep registers 0..n-1: %+v", c.Ops[0])
	}
}

func TestAllocateLoopLiveness(t *testing.T) {
	// r2 is defined before the loop and read inside it; it must not share
	// a slot with anything written inside the loop.
	c := mk(1,
		lir.Op{Kind: lir.KConst, Dst: 2, Imm: 7}, // loop-invariant
		lir.Op{Kind: lir.KConst, Dst: 3, Imm: 0}, // induction
		// pc 2: loop body
		lir.Op{Kind: lir.KAdd, Dst: 4, A: 3, B: 2},
		lir.Op{Kind: lir.KMove, Dst: 3, A: 4},
		lir.Op{Kind: lir.KCmp, Dst: 5, A: 3, B: 0, Aux: 1},
		lir.Op{Kind: lir.KBranchFalse, A: 5, Target: 7},
		lir.Op{Kind: lir.KJump, Target: 2},
		lir.Op{Kind: lir.KRetNum, A: 3},
	)
	Allocate(c)
	inv := c.Ops[0].Dst
	for pc := 2; pc <= 6; pc++ {
		if c.Ops[pc].Kind != lir.KBranchFalse && c.Ops[pc].Kind != lir.KJump &&
			c.Ops[pc].Dst == inv {
			t.Fatalf("loop-invariant slot %d clobbered at pc %d: %+v", inv, pc, c.Ops[pc])
		}
	}
}

func TestAllocateEmptyCode(t *testing.T) {
	c := &lir.Code{Name: "empty"}
	Allocate(c) // must not panic
	c2 := mk(0, lir.Op{Kind: lir.KRetUndef})
	Allocate(c2)
}

// arrayLoopOSR builds the GVN shape of an array loop: elements address,
// length, and a stride constant all hoisted to the preheader, so their
// registers are live across the header with no interpreter local backing
// them. The OSR entry's frame map carries only the real locals (array
// handle, induction variable, accumulator).
func arrayLoopOSR() *lir.Code {
	c := mk(1,
		lir.Op{Kind: lir.KGuardType, Dst: 0, A: 0, Aux: 1}, // 0: array param
		lir.Op{Kind: lir.KConst, Dst: 1, Imm: 0},           // 1: i = 0
		lir.Op{Kind: lir.KConst, Dst: 2, Imm: 0},           // 2: s = 0
		lir.Op{Kind: lir.KElemsHandle, Dst: 3, A: 0},       // 3: hoisted elems
		lir.Op{Kind: lir.KInitLen, Dst: 4, A: 3},           // 4: hoisted len
		lir.Op{Kind: lir.KConst, Dst: 5, Imm: 3},           // 5: hoisted stride
		lir.Op{Kind: lir.KOSRPoint, Aux: 0},                // 6: loop header
		lir.Op{Kind: lir.KCmp, Dst: 6, A: 1, B: 4, Aux: 1}, // 7: i < len
		lir.Op{Kind: lir.KBranchFalse, A: 6, Target: 16},   // 8
		lir.Op{Kind: lir.KBoundsCheck, A: 1, B: 4},         // 9
		lir.Op{Kind: lir.KLoadElem, Dst: 7, A: 3, B: 1},    // 10
		lir.Op{Kind: lir.KMul, Dst: 7, A: 7, B: 5},         // 11
		lir.Op{Kind: lir.KAdd, Dst: 2, A: 2, B: 7},         // 12
		lir.Op{Kind: lir.KConst, Dst: 7, Imm: 1},           // 13
		lir.Op{Kind: lir.KAdd, Dst: 1, A: 1, B: 7},         // 14
		lir.Op{Kind: lir.KJump, Target: 6},                 // 15: back edge
		lir.Op{Kind: lir.KRetNum, A: 2},                    // 16
	)
	c.OSREntries = []lir.OSREntry{{
		Ordinal: 0, PC: 6,
		Slots: []lir.FrameSlot{
			{Slot: 0, Reg: 0, Kind: lir.SlotObj},
			{Slot: 1, Reg: 1, Kind: lir.SlotNum},
			{Slot: 2, Reg: 2, Kind: lir.SlotNum},
		},
	}}
	return c
}

// TestMarkEligibleRematerializesArrayAccessors: the hoisted elems address
// and the length read through it must land in the entry's Remats table —
// in dependency order, rooted at the frame map's object slot — and the
// hoisted stride in Consts, leaving the entry eligible.
func TestMarkEligibleRematerializesArrayAccessors(t *testing.T) {
	c := arrayLoopOSR()
	Allocate(c)
	// Allocate rewrites registers in place; read the hoisted defs after.
	length, stride := c.Ops[4].Dst, c.Ops[5].Dst
	e := &c.OSREntries[0]
	if !e.Eligible {
		t.Fatalf("array loop with hoisted accessors must stay eligible: %+v", e)
	}
	if len(e.Consts) != 1 || e.Consts[0].Imm != 3 || e.Consts[0].Reg != stride {
		t.Fatalf("stride not rematerialized as a const: %+v", e.Consts)
	}
	if len(e.Remats) != 2 {
		t.Fatalf("want [elems, len] remats, got %+v", e.Remats)
	}
	if e.Remats[0].Kind != lir.RematElems || e.Remats[0].Reg != c.Ops[3].Dst ||
		e.Remats[0].Src != e.Slots[0].Reg {
		t.Fatalf("elems remat must re-derive from the frame map's array slot: %+v (slots %+v)",
			e.Remats[0], e.Slots)
	}
	if e.Remats[1].Kind != lir.RematLen || e.Remats[1].Reg != length ||
		e.Remats[1].Src != e.Remats[0].Reg {
		t.Fatalf("length remat must read through the re-derived elems register (dependency order): %+v",
			e.Remats)
	}
}

// TestMarkEligibleRejectsUnrootedElems: a KElemsHandle whose source is not
// an object slot in the frame map cannot be re-derived at entry (the
// prologue would read a number as an array handle) — the entry must be
// ineligible, not silently wrong.
func TestMarkEligibleRejectsUnrootedElems(t *testing.T) {
	c := arrayLoopOSR()
	c.OSREntries[0].Slots[0].Kind = lir.SlotNum
	Allocate(c)
	if c.OSREntries[0].Eligible {
		t.Fatalf("elems over a non-object slot must reject the entry: %+v", c.OSREntries[0])
	}
	if len(c.OSREntries[0].Remats) != 0 {
		t.Fatalf("rejected entry must not carry remats: %+v", c.OSREntries[0].Remats)
	}
}

// TestMarkEligibleRejectsNonRematerializable: a preheader temporary that is
// neither a constant nor an array accessor (here n+n) is live across the
// header with no way to reconstruct it — the entry must be ineligible.
func TestMarkEligibleRejectsNonRematerializable(t *testing.T) {
	c := mk(1,
		lir.Op{Kind: lir.KUnbox, Dst: 0, A: 0},             // 0
		lir.Op{Kind: lir.KConst, Dst: 1, Imm: 0},           // 1: i = 0
		lir.Op{Kind: lir.KAdd, Dst: 2, A: 0, B: 0},         // 2: hoisted n+n
		lir.Op{Kind: lir.KOSRPoint, Aux: 0},                // 3: header
		lir.Op{Kind: lir.KCmp, Dst: 3, A: 1, B: 0, Aux: 1}, // 4
		lir.Op{Kind: lir.KBranchFalse, A: 3, Target: 8},    // 5
		lir.Op{Kind: lir.KAdd, Dst: 1, A: 1, B: 2},         // 6
		lir.Op{Kind: lir.KJump, Target: 3},                 // 7
		lir.Op{Kind: lir.KRetNum, A: 1},                    // 8
	)
	c.OSREntries = []lir.OSREntry{{
		Ordinal: 0, PC: 3,
		Slots: []lir.FrameSlot{
			{Slot: 0, Reg: 0, Kind: lir.SlotNum},
			{Slot: 1, Reg: 1, Kind: lir.SlotNum},
		},
	}}
	Allocate(c)
	if c.OSREntries[0].Eligible {
		t.Fatal("uncoverable preheader temporary must reject the entry")
	}
}

func TestAllocateCallArgs(t *testing.T) {
	c := &lir.Code{
		Name:      "callargs",
		NumParams: 1,
		ArgLists:  [][]int32{{2, 3}},
		Ops: []lir.Op{
			{Kind: lir.KConst, Dst: 2, Imm: 1},
			{Kind: lir.KConst, Dst: 3, Imm: 2},
			{Kind: lir.KCall, Dst: 4, A: 0, Aux: 1},
			{Kind: lir.KRetNum, A: 4},
		},
		NumRegs: 5,
	}
	Allocate(c)
	// Both argument registers must stay distinct and alive up to the call.
	if c.ArgLists[0][0] == c.ArgLists[0][1] {
		t.Fatalf("call args merged: %v", c.ArgLists[0])
	}
}

// deoptLoopOSR builds a loop whose body starts with a guarded call: n and i
// drive the loop, k is left alone by the body but read by the call's deopt
// exit, and c takes the call's result before anything reads it.
func deoptLoopOSR() *lir.Code {
	c := mk(1,
		lir.Op{Kind: lir.KUnbox, Dst: 0, A: 0},                       // 0: n
		lir.Op{Kind: lir.KConst, Dst: 1, Imm: 0},                     // 1: i = 0
		lir.Op{Kind: lir.KConst, Dst: 2, Imm: 5},                     // 2: k = 5
		lir.Op{Kind: lir.KConst, Dst: 5, Imm: 0},                     // 3: c = 0
		lir.Op{Kind: lir.KOSRPoint, Aux: 0},                          // 4: loop header
		lir.Op{Kind: lir.KCmp, Dst: 3, A: 1, B: 0, Aux: 1},           // 5: i < n
		lir.Op{Kind: lir.KBranchFalse, A: 3, Target: 11},             // 6
		lir.Op{Kind: lir.KCallSpec, Dst: 4, A: 0, Aux: 1, Target: 0}, // 7: guarded call(i)
		lir.Op{Kind: lir.KMove, Dst: 5, A: 4},                        // 8: c = result
		lir.Op{Kind: lir.KAdd, Dst: 1, A: 1, B: 5},                   // 9: i = i + c
		lir.Op{Kind: lir.KJump, Target: 4},                           // 10: back edge
		lir.Op{Kind: lir.KRetNum, A: 1},                              // 11
	)
	c.ArgLists = [][]int32{{1}}
	c.DeoptExits = []lir.DeoptExit{{
		Ordinal: 0, ResultSlot: 3,
		Slots: []lir.FrameSlot{
			{Slot: 0, Reg: 0, Kind: lir.SlotNum},
			{Slot: 1, Reg: 1, Kind: lir.SlotNum},
			{Slot: 2, Reg: 2, Kind: lir.SlotNum},
		},
	}}
	c.OSREntries = []lir.OSREntry{{
		Ordinal: 0, PC: 4,
		Slots: []lir.FrameSlot{
			{Slot: 0, Reg: 0, Kind: lir.SlotNum},
			{Slot: 1, Reg: 1, Kind: lir.SlotNum},
			{Slot: 2, Reg: 2, Kind: lir.SlotNum},
			{Slot: 3, Reg: 5, Kind: lir.SlotNum},
		},
	}}
	return c
}

// frameLocals lists the interpreter locals an OSR entry's frame map holds.
func frameLocals(e *lir.OSREntry) map[int32]bool {
	out := map[int32]bool{}
	for _, s := range e.Slots {
		out[s.Slot] = true
	}
	return out
}

// TestMarkEligiblePrunesDeadLocals: c is assigned at the top of the loop
// body before any read, so its value at the header is dead. It must leave
// the frame map — after a deopt it holds whatever the guard saw, and
// materializing it would refuse every later entry — while the locals the
// loop reads stay.
func TestMarkEligiblePrunesDeadLocals(t *testing.T) {
	c := deoptLoopOSR()
	Allocate(c)
	e := &c.OSREntries[0]
	if !e.Eligible {
		t.Fatalf("entry must stay eligible: %+v", e)
	}
	got := frameLocals(e)
	if got[3] {
		t.Errorf("c is dead at the header but still in the frame map: %+v", e.Slots)
	}
	if !got[0] || !got[1] {
		t.Errorf("the loop's live locals n, i left the frame map: %+v", e.Slots)
	}
}

// TestMarkEligibleKeepsDeoptExitLocals: k is read by nothing in the loop
// but the guarded call's deopt exit, which hands it back to the
// interpreter. Pruning it would leave its register zeroed on entry and a
// deopt would rebuild k as 0.
func TestMarkEligibleKeepsDeoptExitLocals(t *testing.T) {
	c := deoptLoopOSR()
	Allocate(c)
	e := &c.OSREntries[0]
	var k *lir.FrameSlot
	for i := range e.Slots {
		if e.Slots[i].Slot == 2 {
			k = &e.Slots[i]
		}
	}
	if k == nil {
		t.Fatalf("k, read only by the deopt exit, left the frame map: %+v", e.Slots)
	}
	if exitReg := c.DeoptExits[0].Slots[2].Reg; k.Reg != exitReg {
		t.Fatalf("k materializes into r%d, the deopt exit reads r%d", k.Reg, exitReg)
	}
}

// TestMarkEligibleKeepsRematSource: the array handle is read inside the
// loop only through the preheader-cached elements address, so it is dead
// at the header — but the entry's RematElems re-derives that address from
// it, so its slot must stay.
func TestMarkEligibleKeepsRematSource(t *testing.T) {
	c := arrayLoopOSR()
	Allocate(c)
	e := &c.OSREntries[0]
	if got := frameLocals(e); !got[0] || !got[1] || !got[2] {
		t.Fatalf("frame map lost a local it needs: %+v", e.Slots)
	}
	if len(e.Remats) == 0 || e.Remats[0].Src != e.Slots[0].Reg {
		t.Fatalf("elems remat does not read the array slot: remats %+v, slots %+v", e.Remats, e.Slots)
	}
}
