//go:build amd64 && (linux || darwin)

// Runtime-op parity: every kind native.RuntimeOp defines — each with its
// fall-through, bail, crash/error and deopt arms — runs as a single-op
// program through the unfused switch loop, the fused switch and the
// machine-code tier. All three call the same function, so beyond the
// activation outcome this pins what surrounds the call in each executor:
// the step charge, the terminal Result, and the register file and tags the
// op leaves behind.
package mc

import (
	"errors"
	"math"
	"testing"

	"github.com/jitbull/jitbull/internal/bytecode"
	"github.com/jitbull/jitbull/internal/lir"
	"github.com/jitbull/jitbull/internal/native"
	"github.com/jitbull/jitbull/internal/value"
)

// frameRun is one tier's activation plus everything it left behind.
type frameRun struct {
	tierRun
	regs    []uint64
	tags    []native.Tag
	globals []value.Value
	calls   [][]value.Value // arguments each CallFunction received
}

// runFrame executes one tier in a fresh environment with a private pool.
// The pool's register leases are LIFO and never zeroed, so the first lease
// after the run is the frame the executor just returned.
func runFrame(code *lir.Code, args []value.Value, setup func(*stubHooks),
	exec func(h native.Hooks, pool *native.Pool) (native.Result, native.Status, error)) frameRun {
	h := newStub()
	if setup != nil {
		setup(h)
	}
	var calls [][]value.Value
	inner := h.callFn
	h.callFn = func(idx int, a []value.Value) (value.Value, error) {
		calls = append(calls, append([]value.Value(nil), a...))
		if inner != nil {
			return inner(idx, a)
		}
		return value.Num(42), nil
	}
	pool := &native.Pool{}
	fr := frameRun{tierRun: observe(exec(h, pool))}
	regs, tags := pool.GetRegs(code.NumRegs)
	for _, r := range regs {
		fr.regs = append(fr.regs, math.Float64bits(r))
	}
	fr.tags = append(fr.tags, tags...)
	fr.globals = h.globals
	fr.calls = calls
	return fr
}

func sameFrame(a, b frameRun) bool {
	if !sameRun(a.tierRun, b.tierRun) || len(a.regs) != len(b.regs) || len(a.calls) != len(b.calls) {
		return false
	}
	for i := range a.regs {
		if a.regs[i] != b.regs[i] || a.tags[i] != b.tags[i] {
			return false
		}
	}
	for i := range a.globals {
		ga, gb := a.globals[i], b.globals[i]
		if ga.Type() != gb.Type() || math.Float64bits(ga.ToNumber()) != math.Float64bits(gb.ToNumber()) ||
			(ga.IsArray() && ga.Handle() != gb.Handle()) {
			return false
		}
	}
	for i := range a.calls {
		if len(a.calls[i]) != len(b.calls[i]) {
			return false
		}
		for j := range a.calls[i] {
			if a.calls[i][j] != b.calls[i][j] {
				return false
			}
		}
	}
	return true
}

func TestRuntimeOpParity(t *testing.T) {
	// withArray allocates a 3-element array [7,8,9]; its handle is 0.
	withArray := func(h *stubHooks) {
		hnd, _ := h.arena.Alloc(3)
		for i, v := range []float64{7, 8, 9} {
			_ = h.arena.Set(hnd, i, v)
		}
	}
	withEmptyArray := func(h *stubHooks) { _, _ = h.arena.Alloc(0) }
	returns := func(v value.Value, err error) func(*stubHooks) {
		return func(h *stubHooks) {
			h.callFn = func(int, []value.Value) (value.Value, error) { return v, err }
		}
	}
	global := func(slot int, v value.Value) func(*stubHooks) {
		return func(h *stubHooks) { withArray(h); h.globals[slot] = v }
	}
	callArgs := [][]int32{{0, 1}}
	specExits := []lir.DeoptExit{{ResultSlot: 2, Slots: []lir.FrameSlot{
		{Slot: 0, Reg: 0, Kind: lir.SlotNum}, {Slot: 1, Reg: 1, Kind: lir.SlotObj},
	}}}
	arr0 := value.ArrayRef(0)
	// Calls pass (number, array): register 1 is marshalled as an object.
	numArr := []value.Value{value.Num(3), arr0}
	call := func(kind lir.Kind, wantObj, target int32) lir.Op {
		return lir.Op{Kind: kind, Dst: 2, A: 0, B: wantObj, C: 0b10, Aux: 1, Target: target}
	}
	calleeFails := returns(value.Undef(), errors.New("callee failed"))

	cases := []struct {
		name   string
		op     lir.Op
		args   []value.Value // boxed into registers 0..len-1
		setup  func(*stubHooks)
		status native.Status
		failed bool // ends with an error
	}{
		{name: "mod/integral", op: lir.Op{Kind: lir.KMod, Dst: 2, A: 0, B: 1}, args: numArgs(17, 5)},
		{name: "mod/fractional", op: lir.Op{Kind: lir.KMod, Dst: 2, A: 0, B: 1}, args: numArgs(-7.5, 2)},
		{name: "mod/zero", op: lir.Op{Kind: lir.KMod, Dst: 2, A: 0, B: 1}, args: numArgs(3, 0)},
		{name: "pow", op: lir.Op{Kind: lir.KPow, Dst: 2, A: 0, B: 1}, args: numArgs(2, 0.5)},
		{name: "math/sqrt", op: lir.Op{Kind: lir.KMath, Dst: 2, A: 0, B: 1, Aux: int32(bytecode.BMathSqrt)}, args: numArgs(2, 0)},
		{name: "math/random", op: lir.Op{Kind: lir.KMath, Dst: 2, A: 0, B: 1, Aux: int32(bytecode.BMathRandom)}, args: numArgs(0, 0)},

		{name: "elemsraw/array", op: lir.Op{Kind: lir.KElemsRaw, Dst: 2, A: 0}, args: []value.Value{arr0}, setup: withArray},
		{name: "elemsraw/forged-mapped", op: lir.Op{Kind: lir.KElemsRaw, Dst: 2, A: 0}, args: numArgs(1.5), setup: withArray},
		{name: "elemsraw/forged-crash", op: lir.Op{Kind: lir.KElemsRaw, Dst: 2, A: 0}, args: numArgs(500), setup: withArray, failed: true},

		{name: "setlen/shrink", op: lir.Op{Kind: lir.KSetLen, A: 0, B: 1}, args: []value.Value{arr0, value.Num(1)}, setup: withArray},
		{name: "setlen/bail-negative", op: lir.Op{Kind: lir.KSetLen, A: 0, B: 1}, args: []value.Value{arr0, value.Num(-1)}, setup: withArray, status: native.StatusBail},
		{name: "setlen/bail-fraction", op: lir.Op{Kind: lir.KSetLen, A: 0, B: 1}, args: []value.Value{arr0, value.Num(1.5)}, setup: withArray, status: native.StatusBail},
		{name: "setlen/bail-huge", op: lir.Op{Kind: lir.KSetLen, A: 0, B: 1}, args: []value.Value{arr0, value.Num(1e10)}, setup: withArray, status: native.StatusBail},
		{name: "setlen/heap-exhausted", op: lir.Op{Kind: lir.KSetLen, A: 0, B: 1}, args: []value.Value{arr0, value.Num(1e6)}, setup: withArray, failed: true},

		{name: "push", op: lir.Op{Kind: lir.KPush, Dst: 2, A: 0, B: 1}, args: []value.Value{arr0, value.Num(4)}, setup: withArray},
		{name: "push/bad-handle", op: lir.Op{Kind: lir.KPush, Dst: 2, A: 0, B: 1}, args: numArgs(77, 4), setup: withArray, failed: true},
		{name: "pop", op: lir.Op{Kind: lir.KPop, Dst: 2, A: 0}, args: []value.Value{arr0}, setup: withArray},
		{name: "pop/bail-empty", op: lir.Op{Kind: lir.KPop, Dst: 2, A: 0}, args: []value.Value{arr0}, setup: withEmptyArray, status: native.StatusBail},

		{name: "newarr", op: lir.Op{Kind: lir.KNewArr, Dst: 2, A: 0}, args: numArgs(5), setup: withArray},
		{name: "newarr/bail-negative", op: lir.Op{Kind: lir.KNewArr, Dst: 2, A: 0}, args: numArgs(-2), status: native.StatusBail},
		{name: "newarr/bail-fraction", op: lir.Op{Kind: lir.KNewArr, Dst: 2, A: 0}, args: numArgs(2.5), status: native.StatusBail},
		{name: "newarr/heap-exhausted", op: lir.Op{Kind: lir.KNewArr, Dst: 2, A: 0}, args: numArgs(1e6), failed: true},

		{name: "loadglobal/number", op: lir.Op{Kind: lir.KLoadGlobal, Dst: 2, Aux: 3}, setup: global(3, value.Num(math.Copysign(0, -1)))},
		{name: "loadglobal/boolean", op: lir.Op{Kind: lir.KLoadGlobal, Dst: 2, Aux: 3}, setup: global(3, value.Bool(true))},
		{name: "loadglobal/array", op: lir.Op{Kind: lir.KLoadGlobal, Dst: 2, Aux: 3}, setup: global(3, arr0)},
		{name: "loadglobal/undefined", op: lir.Op{Kind: lir.KLoadGlobal, Dst: 2, Aux: 3}, setup: global(3, value.Undef())},
		{name: "storeglobal/num", op: lir.Op{Kind: lir.KStoreGlobalNum, A: 0, Aux: 3}, args: numArgs(6.25)},
		{name: "storeglobal/obj", op: lir.Op{Kind: lir.KStoreGlobalObj, A: 0, Aux: 3}, args: []value.Value{arr0}, setup: withArray},

		{name: "call/number", op: call(lir.KCall, 0, 0), args: numArr},
		{name: "call/boolean-coerced", op: call(lir.KCall, 0, 0), args: numArr, setup: returns(value.Bool(true), nil)},
		{name: "call/undefined-coerced", op: call(lir.KCall, 0, 0), args: numArr, setup: returns(value.Undef(), nil)},
		{name: "call/bail-array", op: call(lir.KCall, 0, 0), args: numArr, setup: returns(arr0, nil), status: native.StatusBail},
		{name: "call/object", op: call(lir.KCall, 1, 0), args: numArr, setup: returns(arr0, nil)},
		{name: "call/bail-not-object", op: call(lir.KCall, 1, 0), args: numArr, status: native.StatusBail},
		{name: "call/callee-error", op: call(lir.KCall, 0, 0), args: numArr, setup: calleeFails, failed: true},

		{name: "callspec/number", op: call(lir.KCallSpec, 0, 0), args: numArr},
		{name: "callspec/deopt-boolean", op: call(lir.KCallSpec, 0, 0), args: numArr, setup: returns(value.Bool(true), nil), status: native.StatusDeopt},
		{name: "callspec/deopt-array", op: call(lir.KCallSpec, 0, 0), args: numArr, setup: returns(arr0, nil), status: native.StatusDeopt},
		{name: "callspec/bail-orphan", op: call(lir.KCallSpec, 0, 9), args: numArr, setup: returns(value.Undef(), nil), status: native.StatusBail},
		{name: "callspec/callee-error", op: call(lir.KCallSpec, 0, 0), args: numArr, setup: calleeFails, failed: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code := &lir.Code{
				Name: "rt", NumParams: len(tc.args), NumRegs: 4,
				Ops:        []lir.Op{tc.op},
				ArgLists:   callArgs,
				DeoptExits: specExits,
			}
			code.Fused = lir.Fuse(code)
			u, err := Compile(code)
			if err != nil {
				t.Fatalf("mc compile: %v", err)
			}
			defer u.Release()
			un := runFrame(code, tc.args, tc.setup, func(h native.Hooks, p *native.Pool) (native.Result, native.Status, error) {
				return native.ExecUnfused(code, tc.args, h, 0, p)
			})
			fu := runFrame(code, tc.args, tc.setup, func(h native.Hooks, p *native.Pool) (native.Result, native.Status, error) {
				return native.Exec(code, tc.args, h, 0, p)
			})
			mcr := runFrame(code, tc.args, tc.setup, func(h native.Hooks, p *native.Pool) (native.Result, native.Status, error) {
				return u.Exec(tc.args, h, 0, p)
			})
			// The arm the case names is the arm that ran, in the reference.
			if un.status != tc.status || (un.errStr != "") != tc.failed || un.steps != 1 ||
				(un.deopt != nil) != (tc.status == native.StatusDeopt) {
				t.Fatalf("reference took the wrong arm: %+v", un.tierRun)
			}
			// Parameter boxing tagged register 0, so an untagged one means
			// the lease runFrame inspected was not the executor's frame.
			if len(tc.args) > 0 && un.tags[0] == native.TagOther {
				t.Fatalf("register file not observed: tags %v", un.tags)
			}
			if !sameFrame(un, fu) {
				t.Errorf("fused diverged from unfused:\nunfused %+v\nfused   %+v", un, fu)
			}
			if !sameFrame(un, mcr) {
				t.Errorf("mc diverged from unfused:\nunfused %+v\nmc      %+v", un, mcr)
			}
		})
	}
}
