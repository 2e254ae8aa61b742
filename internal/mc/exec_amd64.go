//go:build amd64 && (linux || darwin)

package mc

import (
	"runtime"
	"unsafe"

	"github.com/jitbull/jitbull/internal/lir"
	"github.com/jitbull/jitbull/internal/native"
	"github.com/jitbull/jitbull/internal/value"
)

// mcframe is the exit-record / environment block generated code addresses
// off RDI. Field offsets are baked into both the lowering (the f* consts
// in lower.go) and the trampoline (enter_amd64.s); TestFrameOffsets pins
// them with unsafe.Offsetof.
//
// The base pointers are typed unsafe.Pointer, not uintptr, so the frame
// stays a precisely-scanned GC root for the register file and arena
// backing arrays while generated code runs.
type mcframe struct {
	exitpc    int64
	steps     int64
	checks    int64
	maxOps    int64
	top       int64
	codeBase  int64
	codeLen   int64
	handleLen int64
	regs      unsafe.Pointer
	tags      unsafe.Pointer
	cells     unsafe.Pointer
	handles   unsafe.Pointer

	// Global window (zero when the hooks don't expose one; all global ops
	// then take the runtime-exit slow path).
	globalsLen int64
	globals    unsafe.Pointer
}

// globalWindow is the optional hooks capability the inline global ops
// need: direct access to the backing []value.Value behind GlobalGet /
// GlobalSet. The engine implements it; test stubs generally don't, which
// keeps the slow path exercised.
type globalWindow interface {
	Globals() []value.Value
}

// enter (enter_amd64.s) loads the pinned registers (RBX=regs, R13=tags,
// R12=cells, R15=steps, RDI=frame) from f, calls the generated code at
// entry, stores the step counter back, and returns the exit kind.
//
//go:noescape
func enter(entry uintptr, f *mcframe) int32

// Exec runs the unit from the top with the executor-standard frame
// lifecycle: lease registers, box parameters, run, release.
func (u *Unit) Exec(args []value.Value, h native.Hooks, maxOps int64, pool *native.Pool) (native.Result, native.Status, error) {
	code := u.prog.Code
	if maxOps <= 0 {
		maxOps = 1 << 40
	}
	regs, tags := pool.GetRegs(code.NumRegs)
	defer pool.PutRegs(regs, tags)
	native.BoxParams(code, args, regs, tags)
	return u.run(code, regs, tags, h, maxOps, pool, 0, 0)
}

// ExecOSR transfers execution into the unit at OSR entry entryIdx. The
// frame is materialized by the same strict native.MaterializeOSR the
// reference tier uses; entered=false means the transfer was refused and
// nothing has run.
func (u *Unit) ExecOSR(entryIdx int, locals []value.Value, h native.Hooks, maxOps int64, pool *native.Pool) (native.Result, native.Status, error, bool) {
	code := u.prog.Code
	if maxOps <= 0 {
		maxOps = 1 << 40
	}
	regs, tags := pool.GetRegs(code.NumRegs)
	defer pool.PutRegs(regs, tags)
	pc, ok := native.MaterializeOSR(code, entryIdx, locals, h.Arena(), regs, tags)
	if !ok {
		return native.Result{}, native.StatusOK, nil, false
	}
	res, st, err := u.run(code, regs, tags, h, maxOps, pool, int(pc), 0)
	return res, st, err, true
}

// run is the host half of the machine-code executor: it performs the
// fused-style entry budget check, re-enters generated code, and services
// exits. Delegate exits hand the activation to the reference loop at the
// recorded pc (always semantics-preserving); runtime exits execute the
// single op at the recorded pc through native.RuntimeOp — the function the
// reference loop itself calls — and re-enter at the next op.
func (u *Unit) run(code *lir.Code, regs []float64, tags []native.Tag, h native.Hooks, maxOps int64, pool *native.Pool, pc int, steps int64) (native.Result, native.Status, error) {
	// The unit, not just its bytes: the finalizer that unmaps the code is
	// registered on u, so u must outlive every activation.
	defer runtime.KeepAlive(u)
	arena := h.Arena()
	ops := code.Ops
	checks := int64(1)
	// Entry check, exactly the fused executor's: if the straight-line cost
	// from the entry op could exceed the budget, the whole run delegates
	// and the reference loop trips (or completes) bit-identically.
	if steps+int64(u.prog.Cost[pc]) > maxOps {
		dres, dst, derr := native.Resume(code, regs, tags, h, maxOps, pool, pc, steps)
		dres.Checks += checks
		return dres, dst, derr
	}
	cells := arena.Cells()
	var f mcframe
	f.maxOps = maxOps
	f.codeBase = int64(arena.CodeBase())
	f.codeLen = int64(len(cells)) - f.codeBase
	f.regs = unsafe.Pointer(unsafe.SliceData(regs))
	f.tags = unsafe.Pointer(unsafe.SliceData(tags))
	f.cells = unsafe.Pointer(unsafe.SliceData(cells))
	// The global window is stable for the whole activation: the slot count
	// is fixed at compile time and runtime ops mutate slots in place, so one
	// fetch suffices (unlike the handle table, which reallocates).
	if gw, ok := h.(globalWindow); ok {
		if g := gw.Globals(); len(g) > 0 {
			f.globalsLen = int64(len(g))
			f.globals = unsafe.Pointer(unsafe.SliceData(g))
		}
	}
	for {
		// Refresh the volatile arena state: the handle table's backing
		// array moves when a runtime op allocates, and the mapped-heap top
		// advances.
		handles := arena.Handles()
		f.top = int64(arena.Top())
		f.handleLen = int64(len(handles))
		if len(handles) > 0 {
			f.handles = unsafe.Pointer(unsafe.SliceData(handles))
		} else {
			f.handles = nil
		}
		f.steps, f.checks = steps, checks
		kind := enter(u.base+uintptr(u.prog.Off[pc]), &f)
		steps, checks = f.steps, f.checks
		pc = int(f.exitpc)
		switch kind {
		case exitRet:
			op := &ops[pc]
			res := native.Result{Steps: steps, Checks: checks}
			switch op.Kind {
			case lir.KRetNum:
				res.Kind, res.Val = native.ResNum, regs[op.A]
			case lir.KRetObj:
				res.Kind, res.Val = native.ResObject, regs[op.A]
			default:
				res.Kind = native.ResUndef
			}
			return res, native.StatusOK, nil
		case exitDelegate:
			dres, dst, derr := native.Resume(code, regs, tags, h, maxOps, pool, pc, steps)
			dres.Checks += checks
			return dres, dst, derr
		case exitRuntime:
			// Execute the op at pc in Go, then keep going in Go while the
			// following ops are also runtime ops (no point bouncing through
			// the trampoline between consecutive calls). Steps are charged
			// fused-style — no per-op budget check; the block's entry check
			// already covered the whole straight line.
			for {
				charged := u.prog.HostStep[pc]
				if charged {
					steps++
				}
				status, err, deopt, done := native.RuntimeOp(code, &ops[pc], regs, tags, h, pool)
				if done {
					if !charged {
						// Hybrid op whose step sits in a downstream flush
						// we will never reach: a terminal outcome (crash,
						// bail, deopt) still owes the op's own step,
						// exactly as the reference loop charges it.
						steps++
					}
					return native.Result{Deopt: deopt, Steps: steps, Checks: checks}, status, err
				}
				pc++
				if pc >= len(ops) {
					return native.Result{Kind: native.ResUndef, Steps: steps, Checks: checks}, native.StatusOK, nil
				}
				if !u.prog.RT[pc] {
					break
				}
			}
		default:
			// Unknown exit kind: impossible by construction; delegate so
			// even a bug here cannot diverge semantics.
			dres, dst, derr := native.Resume(code, regs, tags, h, maxOps, pool, pc, steps)
			dres.Checks += checks
			return dres, dst, derr
		}
	}
}
