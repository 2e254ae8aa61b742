//go:build amd64 && (linux || darwin)

// Register-resident loops: the failure modes of keeping a loop's values in
// XMMs while memory stays the source of truth. Every program runs through
// checkParity (or its OSR counterpart) against the fused tier: result,
// steps and block checks.
package mc

import (
	"testing"

	"github.com/jitbull/jitbull/internal/bytecode"
	"github.com/jitbull/jitbull/internal/lir"
	"github.com/jitbull/jitbull/internal/native"
	"github.com/jitbull/jitbull/internal/value"
)

// TestFindLoops pins which ranges get pins: innermost ones, entered from
// outside only at the header.
func TestFindLoops(t *testing.T) {
	jump := func(to int32) lir.Op { return lir.Op{Kind: lir.KJump, Target: to} }
	branch := func(to int32) lir.Op { return lir.Op{Kind: lir.KBranchFalse, A: 1, Target: to} }
	add := lir.Op{Kind: lir.KAdd, Dst: 2, A: 2, B: 1}
	cases := []struct {
		name string
		ops  []lir.Op
		want [][2]int32 // head, end of each pinned loop
	}{
		{"simple", []lir.Op{add, branch(4), add, jump(0), add}, [][2]int32{{0, 3}}},
		{"do-while", []lir.Op{add, add, branch(0), add}, [][2]int32{{0, 2}}},
		{"nested: the inner one", []lir.Op{add, add, branch(1), branch(0), add}, [][2]int32{{1, 2}}},
		{"two in a row", []lir.Op{add, branch(0), add, branch(2), add}, [][2]int32{{0, 1}, {2, 3}}},
		// A rotated loop like NavierStokes' linSolve: the ranges 1..3 and
		// 2..5 cross, and 5's back edge enters 1..3 in the middle.
		{"crossing: the later one", []lir.Op{add, add, add, jump(1), add, branch(2), add}, [][2]int32{{2, 5}}},
		{"entered mid-way", []lir.Op{jump(2), add, add, branch(1), add}, nil},
		{"no live-in reads", []lir.Op{{Kind: lir.KConst, Dst: 2}, jump(0)}, nil},
	}
	for _, tc := range cases {
		lo := &lowerer{code: &lir.Code{NumRegs: 3, Ops: tc.ops}}
		lo.findLoops()
		var got [][2]int32
		for _, l := range lo.loops {
			got = append(got, [2]int32{l.head, l.end})
		}
		if len(got) != len(tc.want) {
			t.Errorf("%s: loops %v, want %v", tc.name, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("%s: loops %v, want %v", tc.name, got, tc.want)
			}
		}
	}
}

// TestParityLoopRuntimeOps puts runtime ops (Math.floor, push) and a KMod
// whose slow path runs in Go inside a loop with pinned values: Go
// re-enters in the middle of the loop, through the entry stub that loads
// the pins, and must find every pinned value it left in memory.
func TestParityLoopRuntimeOps(t *testing.T) {
	code := &lir.Code{
		Name: "loop-rt", NumParams: 1, NumRegs: 14,
		Ops: []lir.Op{
			{Kind: lir.KUnbox, Dst: 1, A: 0},      // 0: n
			{Kind: lir.KConst, Dst: 2, Imm: 0.25}, // s
			{Kind: lir.KConst, Dst: 3, Imm: 0},    // i
			{Kind: lir.KConst, Dst: 4, Imm: 1},
			{Kind: lir.KConst, Dst: 5, Imm: 1.5},
			{Kind: lir.KConst, Dst: 6, Imm: 3},
			{Kind: lir.KNewArr, Dst: 7, A: 3},            // 6: [] (i is 0)
			{Kind: lir.KCmp, Dst: 8, A: 3, B: 1, Aux: 1}, // 7: head: i < n
			{Kind: lir.KBranchFalse, A: 8, Target: 19},   // 8
			{Kind: lir.KMath, Dst: 9, A: 2, Aux: int32(bytecode.BMathFloor)},
			{Kind: lir.KPush, Dst: 10, A: 7, B: 9}, // 10: new length
			{Kind: lir.KAdd, Dst: 2, A: 2, B: 9},   // 11
			{Kind: lir.KMul, Dst: 2, A: 2, B: 5},   // 12
			{Kind: lir.KMod, Dst: 11, A: 2, B: 5},  // 13: fractional: slow path
			{Kind: lir.KAdd, Dst: 2, A: 2, B: 11},  // 14
			{Kind: lir.KMod, Dst: 12, A: 10, B: 6}, // 15: integral: fast path
			{Kind: lir.KAdd, Dst: 3, A: 3, B: 4},   // 16
			{Kind: lir.KAdd, Dst: 2, A: 2, B: 12},  // 17
			{Kind: lir.KJump, Target: 7},           // 18
			{Kind: lir.KAdd, Dst: 13, A: 2, B: 3},  // 19
			{Kind: lir.KRetNum, A: 13},
		},
	}
	for _, n := range []float64{0, 1, 4} {
		sweepBudgets(t, code, numArgs(n), newStub, 70)
	}
}

// TestParityLoopBudgetMidLoop trips the budget at every op of a loop whose
// body branches (taken jumps inside the loop, each a budget check): the
// delegate must hand the reference loop a complete register file.
func TestParityLoopBudgetMidLoop(t *testing.T) {
	code := &lir.Code{
		Name: "loop-budget", NumParams: 1, NumRegs: 9,
		Ops: []lir.Op{
			{Kind: lir.KUnbox, Dst: 1, A: 0},   // 0: n
			{Kind: lir.KConst, Dst: 2, Imm: 0}, // i
			{Kind: lir.KConst, Dst: 3, Imm: 1},
			{Kind: lir.KConst, Dst: 4, Imm: 0.5}, // acc
			{Kind: lir.KConst, Dst: 5, Imm: 2},
			{Kind: lir.KCmp, Dst: 6, A: 2, B: 1, Aux: 1}, // 5: head
			{Kind: lir.KBranchFalse, A: 6, Target: 15},   // 6
			{Kind: lir.KMod, Dst: 7, A: 2, B: 5},         // 7: i % 2
			{Kind: lir.KBranchFalse, A: 7, Target: 12},   // 8
			{Kind: lir.KMul, Dst: 4, A: 4, B: 5},         // 9: odd
			{Kind: lir.KSub, Dst: 4, A: 4, B: 2},         // 10
			{Kind: lir.KJump, Target: 13},                // 11
			{Kind: lir.KAdd, Dst: 4, A: 4, B: 3},         // 12: even
			{Kind: lir.KAdd, Dst: 2, A: 2, B: 3},         // 13
			{Kind: lir.KJump, Target: 5},                 // 14
			{Kind: lir.KDiv, Dst: 8, A: 4, B: 5},         // 15
			{Kind: lir.KRetNum, A: 8},
		},
	}
	for _, n := range []float64{0, 1, 6} {
		sweepBudgets(t, code, numArgs(n), newStub, 75)
	}
}

// TestParityLoopDeopt deoptimizes from inside a loop: a speculated call
// returns a non-number on the k-th iteration, and the frame rebuilt for
// the interpreter reads the loop-carried values from memory.
func TestParityLoopDeopt(t *testing.T) {
	code := &lir.Code{
		Name: "loop-deopt", NumParams: 1, NumRegs: 8,
		Ops: []lir.Op{
			{Kind: lir.KUnbox, Dst: 1, A: 0},   // 0: n
			{Kind: lir.KConst, Dst: 2, Imm: 0}, // i
			{Kind: lir.KConst, Dst: 3, Imm: 1},
			{Kind: lir.KConst, Dst: 4, Imm: 0.5},                   // s
			{Kind: lir.KCmp, Dst: 5, A: 2, B: 1, Aux: 1},           // 4: head
			{Kind: lir.KBranchFalse, A: 5, Target: 11},             // 5
			{Kind: lir.KCallSpec, Dst: 6, A: 0, Aux: 1, Target: 0}, // 6
			{Kind: lir.KMul, Dst: 4, A: 4, B: 6},                   // 7
			{Kind: lir.KAdd, Dst: 4, A: 4, B: 2},                   // 8
			{Kind: lir.KAdd, Dst: 2, A: 2, B: 3},                   // 9
			{Kind: lir.KJump, Target: 4},                           // 10
			{Kind: lir.KRetNum, A: 4},                              // 11
		},
		ArgLists: [][]int32{{2}},
		DeoptExits: []lir.DeoptExit{{
			Ordinal: 0, ResultSlot: 2,
			Slots: []lir.FrameSlot{
				{Slot: 0, Reg: 1, Kind: lir.SlotNum},
				{Slot: 1, Reg: 2, Kind: lir.SlotNum},
				{Slot: 3, Reg: 4, Kind: lir.SlotNum},
			},
		}},
	}
	for _, k := range []int{0, 2, 5} {
		k := k
		mk := func() *stubHooks {
			s := newStub()
			calls := 0
			s.callFn = func(idx int, args []value.Value) (value.Value, error) {
				if calls++; calls > k {
					return value.Bool(true), nil
				}
				return value.Num(1.25 + args[0].ToNumber()*0.5), nil
			}
			return s
		}
		sweepBudgets(t, code, numArgs(6), mk, 60)
	}
}

// TestExecOSRPinnedHeader enters a register-resident loop at its header
// through OSR — the pad that loads the pins — and holds the run to the
// fused tier's, block checks included.
func TestExecOSRPinnedHeader(t *testing.T) {
	code := &lir.Code{
		Name: "osr-pins", NumParams: 1, NumRegs: 10,
		Ops: []lir.Op{
			{Kind: lir.KUnbox, Dst: 1, A: 0},     // 0: n
			{Kind: lir.KConst, Dst: 2, Imm: 0.5}, // s
			{Kind: lir.KConst, Dst: 3, Imm: 0},   // i
			{Kind: lir.KConst, Dst: 4, Imm: 1},
			{Kind: lir.KConst, Dst: 5, Imm: 1.5},
			{Kind: lir.KOSRPoint, Aux: 0},                // 5: head
			{Kind: lir.KCmp, Dst: 6, A: 3, B: 1, Aux: 1}, // 6
			{Kind: lir.KBranchFalse, A: 6, Target: 13},   // 7
			{Kind: lir.KMul, Dst: 7, A: 2, B: 5},         // 8
			{Kind: lir.KAdd, Dst: 2, A: 7, B: 3},         // 9
			{Kind: lir.KAdd, Dst: 3, A: 3, B: 4},         // 10
			{Kind: lir.KSub, Dst: 8, A: 2, B: 3},         // 11
			{Kind: lir.KJump, Target: 5},                 // 12
			{Kind: lir.KAdd, Dst: 9, A: 2, B: 8},         // 13
			{Kind: lir.KRetNum, A: 9},
		},
		OSREntries: []lir.OSREntry{{
			Ordinal: 0, PC: 5, Eligible: true,
			Slots: []lir.FrameSlot{
				{Slot: 0, Reg: 1, Kind: lir.SlotNum},
				{Slot: 1, Reg: 2, Kind: lir.SlotNum},
				{Slot: 2, Reg: 3, Kind: lir.SlotNum},
			},
			Consts: []lir.ConstSlot{{Reg: 4, Imm: 1}, {Reg: 5, Imm: 1.5}},
		}},
	}
	code.Fused = lir.Fuse(code)
	u, err := Compile(code)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	var pool native.Pool
	for _, locals := range [][]value.Value{
		{value.Num(8), value.Num(0.75), value.Num(3)},
		{value.Num(2), value.Num(-1), value.Num(2)},
	} {
		// Budgets up to past the whole run, and no unlimited one: a pad that
		// is skipped leaves the loop running on whatever the XMMs held.
		for maxOps := int64(1); maxOps <= 80; maxOps++ {
			mr, ms, merr, mok := u.ExecOSR(0, locals, newStub(), maxOps, &pool)
			rr, rs, rerr, rok := native.ExecOSR(code, 0, locals, newStub(), maxOps, &pool, false)
			if mok != rok {
				t.Fatalf("locals=%v maxOps=%d: entered %v vs %v", locals, maxOps, mok, rok)
			}
			mcr, fur := observe(mr, ms, merr), observe(rr, rs, rerr)
			if !sameRun(mcr, fur) || mcr.checks != fur.checks {
				t.Errorf("locals=%v maxOps=%d: mc %+v != fused %+v", locals, maxOps, mcr, fur)
			}
		}
	}
}
