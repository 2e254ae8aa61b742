package native

import (
	"strings"
	"testing"

	"github.com/jitbull/jitbull/internal/lir"
	"github.com/jitbull/jitbull/internal/value"
)

// TestEveryKindWired is the exhaustiveness guard: adding a lir.Kind or
// lir.FKind without wiring the unfused executor, the fused switch, and the
// fuser's pass-through table must fail here, not silently execute as a
// nop or an invalid-op error in production.
func TestEveryKindWired(t *testing.T) {
	// 1. The fused switch has a case for every pass-through kind and every
	// superinstruction: a hand-built one-op stream per FKind (targets point
	// at the FEnd terminator, so jumps leave instead of spinning) must never
	// reach the invalid-op default. Pass-through runtime kinds execute their
	// source op, so the source stream carries the matching Kind.
	probe := func(fk lir.FKind) error {
		src := lir.Op{Kind: lir.KNop}
		if fk >= 1 && fk <= lir.FKind(lir.KindCount) {
			src.Kind = lir.Kind(fk - 1)
		}
		code := &lir.Code{
			Name: "probe", NumRegs: 4,
			Ops:      []lir.Op{src},
			ArgLists: [][]int32{{}},
			Fused: &lir.FusedCode{
				Ops:   []lir.FOp{{Kind: fk, C: 1, Target: 1}, {Kind: lir.FEnd}},
				SrcPC: []int32{0, 1},
				Cost:  []int32{0, 0},
			},
		}
		_, _, err := Exec(code, nil, newStub(), 0, nil)
		return err
	}
	for fk := lir.FInvalid + 1; fk < lir.FKindCount; fk++ {
		if err := probe(fk); err != nil && strings.Contains(err.Error(), "invalid fused op") {
			t.Errorf("fused switch: no case for %v (FKind %d): %v", fk, fk, err)
		}
	}
	// The probe can see the default arm: FInvalid must land there.
	if err := probe(lir.FInvalid); err == nil || !strings.Contains(err.Error(), "invalid fused op") {
		t.Errorf("FInvalid executed without the invalid-op error: %v", err)
	}

	// 2. The fuser translates every kind (pass-through at minimum): a
	// one-op stream must never fuse to FInvalid.
	for k := lir.Kind(0); k < lir.KindCount; k++ {
		code := &lir.Code{Name: "probe", NumRegs: 4, Ops: []lir.Op{{Kind: k}}}
		f := lir.Fuse(code)
		if len(f.Ops) == 0 || f.Ops[0].Kind == lir.FInvalid {
			t.Errorf("fuser: kind %v translated to FInvalid", k)
		}
	}

	// 3. Both executors accept every kind: a single-op function per kind
	// must never hit the unknown-op default (bails, crashes and budget
	// exhaustion from the stub environment are all fine).
	for k := lir.Kind(0); k < lir.KindCount; k++ {
		code := &lir.Code{
			Name: "probe", NumRegs: 4,
			Ops:      []lir.Op{{Kind: k}},
			ArgLists: [][]int32{{}}, // KCall's operand list
		}
		for _, fused := range []bool{false, true} {
			h := newStub()
			run := ExecUnfused
			if fused {
				code.Fused = lir.Fuse(code)
				run = Exec
			}
			// maxOps 4 stops the KJump self-loop via the budget.
			_, _, err := run(code, nil, h, 4, nil)
			if err != nil && (strings.Contains(err.Error(), "unknown") ||
				strings.Contains(err.Error(), "invalid fused op") ||
				strings.Contains(err.Error(), "not a runtime op")) {
				t.Errorf("kind %v (fused=%v): executor rejected it: %v", k, fused, err)
			}
		}
	}
}

// TestFusedTagFlowMatches spot-checks that the fused switch carries type
// tags exactly like the unfused loop across the tag-writing kinds (the
// runtime-op parity table in internal/mc pins each kind's own tag write).
func TestFusedTagFlowMatches(t *testing.T) {
	h := newStub()
	arr, _ := h.arena.Alloc(3)
	h.globals[2] = value.ArrayRef(arr)
	code := &lir.Code{
		Name: "tags", NumParams: 1, NumRegs: 6,
		Ops: []lir.Op{
			{Kind: lir.KLoadGlobal, Dst: 1, Aux: 2},
			{Kind: lir.KMoveTag, Dst: 2, A: 1},
			{Kind: lir.KGuardType, Dst: 3, A: 2, Aux: 1},
			{Kind: lir.KUnbox, Dst: 4, A: 0},
			{Kind: lir.KAdd, Dst: 5, A: 4, B: 4},
			{Kind: lir.KRetNum, A: 5},
		},
	}
	args := []value.Value{value.Num(21)}
	ru, su, eu := ExecUnfused(code, args, h, 0, nil)
	code.Fused = lir.Fuse(code)
	rf, sf, ef := Exec(code, args, h, 0, nil)
	if !resEq(ru, rf) || su != sf || !errEq(eu, ef) {
		t.Fatalf("tag flow diverged: unfused (%+v,%v,%v) fused (%+v,%v,%v)", ru, su, eu, rf, sf, ef)
	}
	if rf.Kind != ResNum || rf.Val != 42 {
		t.Fatalf("result = %+v, want 42", rf)
	}
}
