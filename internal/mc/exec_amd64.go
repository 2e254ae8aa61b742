//go:build amd64 && (linux || darwin)

package mc

import (
	"runtime"
	"unsafe"

	"github.com/jitbull/jitbull/internal/heap"
	"github.com/jitbull/jitbull/internal/interp"
	"github.com/jitbull/jitbull/internal/lir"
	"github.com/jitbull/jitbull/internal/native"
	"github.com/jitbull/jitbull/internal/value"
)

// mcact is the activation record generated code addresses off RDI: the
// exit record of one activation plus what a direct caller hands its callee.
// Field offsets are baked into the lowering (the f* consts in lower.go);
// TestFrameOffsets pins them with unsafe.Offsetof. It holds no pointer —
// generated code fills in the record of a direct callee, and generated code
// writes no Go pointer — so the register window is an offset, not a slice.
type mcact struct {
	exitpc  int64
	steps   int64
	checks  int64
	maxOps  int64
	kind    int64
	resKind int64
	resVal  float64
	regsOff int64
}

// result is the return value a KRet* op (or, for exitCallRet, the return
// sequence of a direct call) left in the record.
func (f *mcact) result() native.Result {
	return native.Result{Kind: native.ResultKind(f.resKind), Val: f.resVal}
}

// mcenv is the environment block generated code addresses off RSI (the e*
// consts in lower.go; TestFrameOffsets pins the layout). The pointers are
// typed, so the block is a precisely-scanned GC root for the arena backing
// arrays while generated code runs; only Go ever writes them.
type mcenv struct {
	top       int64
	codeBase  int64
	code      unsafe.Pointer
	handleLen int64
	cells     unsafe.Pointer
	handles   unsafe.Pointer

	// Global window (zero when the hooks don't expose one; all global ops
	// then take the runtime-exit slow path).
	globalsLen int64
	globals    unsafe.Pointer

	// Direct calls (the table is empty for hooks that have no Env; all
	// calls then take the runtime-exit slow path).
	tableLen int64
	table    unsafe.Pointer
	nframes  int64
	steps    *int64
	natSteps *int64
	maxSteps *int64
	depth    *int
	poolTop  *int
	chunkLen int64
	direct   int64
	unwinds  int64
}

// callSlot is one call-table entry (the c* consts in lower.go).
type callSlot struct {
	entry     uintptr
	numRegs   int64
	numParams int64
	cost0     int64
	calls     *int
}

// Env is an engine's environment for generated code: the arena and global
// window views every activation used to fetch through the hooks, the call
// table direct calls resolve their callee through, and the frame stack
// their activation records live in. One per engine, allocated once; it dies
// with the engine. Not safe for concurrent use (nor is the engine).
type Env struct {
	mcenv
	// frames is the frame stack. Every activation Go enters takes the next
	// record as long as there is one, so a direct callee's record is always
	// the one behind its caller's (RDI + frameSize), and a direct return
	// steps back the same way.
	frames [frameDepth]mcact
	slots  []callSlot
	// units[fn] is the unit whose entry slots[fn] holds: the table stores an
	// address the collector cannot see, this keeps its mapping alive.
	units []*Unit
	host  Host
	// x is the run loop of every activation in this environment, built
	// once: the engine's hooks, its register pool and arena, and env.
	x runner
}

// NewEnv builds the environment of the engine behind host, whose native
// activations lease their registers from pool and charge steps and call
// depth to vm, for a program of nfuncs functions. The call table starts
// empty: Publish fills it.
func NewEnv(host Host, pool *native.Pool, vm *interp.VM, nfuncs int) *Env {
	env := &Env{
		slots: make([]callSlot, nfuncs),
		units: make([]*Unit, nfuncs),
		host:  host,
	}
	env.x = runner{h: host, pool: pool, arena: host.Arena(), env: env, me: &env.mcenv}
	env.bind(env.x.arena, host.Globals())
	env.tableLen = int64(nfuncs)
	env.table = unsafe.Pointer(unsafe.SliceData(env.slots))
	env.steps, env.natSteps, env.maxSteps, env.depth = vm.Cells()
	return env
}

// bind fills the views that are stable for the life of the arena and the
// globals: the code region never moves, and the global slot count is fixed
// at compile time (runtime ops mutate slots in place). The heap views — top,
// cells, handles — move when Go allocates; finish refreshes them before
// every entry.
func (me *mcenv) bind(arena *heap.Arena, globals []value.Value) {
	me.codeBase = int64(arena.CodeBase())
	me.code = unsafe.Pointer(arena.Code())
	if len(globals) > 0 {
		me.globalsLen = int64(len(globals))
		me.globals = unsafe.Pointer(unsafe.SliceData(globals))
	}
}

// Publish makes u the direct-call target of function fn, with calls the
// engine's call counter for it (a direct call bumps it, as dispatch would);
// a nil u withdraws the function, so calls to it go through Go again. The
// engine publishes a unit only while a call could go straight to it, and
// withdraws it before anything else must happen at the call boundary. A
// withdrawn unit stays mapped while an activation of it is on the frame
// stack: the run loop holds the units it is finishing.
func (env *Env) Publish(fn int, u *Unit, calls *int) {
	if u == nil {
		env.slots[fn], env.units[fn] = callSlot{}, nil
		return
	}
	code := u.prog.Code
	env.slots[fn] = callSlot{
		entry:     u.base + uintptr(u.prog.Off[0]),
		numRegs:   int64(code.NumRegs),
		numParams: int64(code.NumParams),
		cost0:     int64(u.prog.Cost[0]),
		calls:     calls,
	}
	env.units[fn] = u
}

// Published reports whether calls to fn can currently go direct.
func (env *Env) Published(fn int) bool { return env.slots[fn].entry != 0 }

// Calls returns how many direct calls generated code has made in this
// environment, and how many of them came back with something other than a
// return (the chain unwound to Go).
func (env *Env) Calls() (direct, unwinds int64) { return env.direct, env.unwinds }

// Frames returns how many records of the frame stack are in use: zero
// whenever no activation of this environment is running.
func (env *Env) Frames() int { return int(env.nframes) }

// globalWindow is the optional hooks capability the inline global ops
// need: direct access to the backing []value.Value behind GlobalGet /
// GlobalSet. Hooks with an Env (the engine) provide it through Host; test
// stubs generally provide neither, which keeps the slow paths exercised.
type globalWindow interface {
	Globals() []value.Value
}

// enter (enter_amd64.s) loads the pinned registers (RDI=record, RSI=env,
// RBX=regs, R13=tags, R12=cells, R15=steps), calls the generated code at
// entry with enterStack bytes of stack set aside for the return addresses
// of nested direct calls, stores the step counter back into the record, and
// returns the exit kind.
//
//go:noescape
func enter(entry uintptr, f *mcact, env *mcenv, regs *float64, tags *native.Tag) int32

// Call is the Go-issued entry into generated code for the engine that built
// env: one call of u from the top with args and a budget of maxOps steps,
// which must be positive (the engine has checked that something is left).
// Every call the engine dispatches to a unit comes here; Exec and ExecOSR
// are the same entry for any hooks. The outcome is written to *res in
// place, field by field — a copy of the 40-byte Result just written would
// read back across the stores that wrote it — and the status and error are
// returned.
func (env *Env) Call(u *Unit, args []value.Value, maxOps int64, res *native.Result) (native.Status, error) {
	return env.x.call(u, args, maxOps, res)
}

// Exec runs the unit from the top with the executor-standard frame
// lifecycle: lease registers, box parameters, run, release.
func (u *Unit) Exec(args []value.Value, h native.Hooks, maxOps int64, pool *native.Pool) (native.Result, native.Status, error) {
	if maxOps <= 0 {
		maxOps = 1 << 40
	}
	var res native.Result
	x := runnerFor(h, pool)
	status, err := x.call(u, args, maxOps, &res)
	return res, status, err
}

// ExecOSR transfers execution into the unit at OSR entry entryIdx. The
// frame is materialized by the same strict native.MaterializeOSR the
// reference tier uses; entered=false means the transfer was refused and
// nothing has run.
func (u *Unit) ExecOSR(entryIdx int, locals []value.Value, h native.Hooks, maxOps int64, pool *native.Pool) (native.Result, native.Status, error, bool) {
	if maxOps <= 0 {
		maxOps = 1 << 40
	}
	x := runnerFor(h, pool)
	code := u.prog.Code
	regs, tags := pool.GetRegs(code.NumRegs)
	pc, ok := native.MaterializeOSR(code, entryIdx, locals, x.arena, regs, tags)
	if !ok {
		pool.PutRegs(regs, tags)
		return native.Result{}, native.StatusOK, nil, false
	}
	var res native.Result
	status, err := x.start(u, regs, tags, int(pc), maxOps, &res)
	pool.PutRegs(regs, tags)
	return res, status, err, true
}

// runnerFor returns the run loop of an activation of h that leases from
// pool. Hooks that are an engine's, leasing from its pool, run in its
// environment: generated code puts a direct callee's window right behind
// its caller's, and the entry has just leased the caller's from pool, on
// top of the register stack. Any others get an environment of their own,
// with no call table and a global window only if they expose one.
func runnerFor(h native.Hooks, pool *native.Pool) runner {
	if host, ok := h.(Host); ok {
		if env := host.MCEnv(); env != nil && env.x.pool == pool {
			return env.x
		}
	}
	var globals []value.Value
	if gw, ok := h.(globalWindow); ok {
		globals = gw.Globals()
	}
	x := runner{h: h, pool: pool, arena: h.Arena(), me: new(mcenv)}
	x.me.bind(x.arena, globals)
	return x
}

// call runs u from the top with args: it leases the window from the pool,
// boxes the parameters into it (native.BoxParams: a number or a boolean is
// its payload and a tag), runs the activation and gives the window back.
// There is no defer: a panic that unwinds through a
// native activation leaves more than a window behind (the direct callees'
// windows, records and call depth), and nothing recovers one to go on with
// the engine — execNative's fault containment recovers injected panics,
// which fire before the activation it contains leases anything.
func (x *runner) call(u *Unit, args []value.Value, maxOps int64, res *native.Result) (native.Status, error) {
	code := u.prog.Code
	regs, tags := x.pool.GetRegs(code.NumRegs)
	native.BoxParams(code, args, regs, tags)
	status, err := x.start(u, regs, tags, 0, maxOps, res)
	x.pool.PutRegs(regs, tags)
	return status, err
}

// start runs one activation Go enters — a call or an OSR transfer — from op
// pc over the window regs/tags its caller leased and filled, with a budget
// of maxOps steps, and writes its outcome to *res: the fused-style entry
// budget check, the next record of the frame stack (the root record when
// the stack is full or there is none), and the entry. A return is read
// straight off the record; every other exit goes on in the run loop.
func (x *runner) start(u *Unit, regs []float64, tags []native.Tag, pc int, maxOps int64, res *native.Result) (status native.Status, err error) {
	// Entry check, exactly the fused executor's: if the straight-line cost
	// from the entry op could exceed the budget, the whole run delegates
	// and the reference loop trips (or completes) bit-identically.
	if int64(u.prog.Cost[pc]) > maxOps {
		*res, status, err = native.Resume(u.prog.Code, regs, tags, x.h, maxOps, x.pool, pc, 0)
		res.Checks++
		return status, err
	}
	var root mcact
	f, fi := &root, -1
	env := x.env
	if env != nil && env.nframes < frameDepth {
		fi = int(env.nframes)
		f = &env.frames[fi]
		env.nframes++
	}
	f.exitpc, f.steps, f.checks, f.maxOps = int64(pc), 0, 1, maxOps
	if kind := x.resume(u, f, regs, tags); kind == exitRet {
		// What generated code stored with 8-byte stores, read back the same
		// way.
		res.Kind, res.Val, res.Steps, res.Checks, res.Deopt = native.ResultKind(f.resKind), f.resVal, f.steps, f.checks, nil
	} else {
		a := activation{u: u, f: f, fi: fi, regs: regs, tags: tags}
		*res, status, err = x.finish(&a, kind)
	}
	// Not deferred: see call.
	if fi >= 0 {
		env.nframes = int64(fi)
	}
	return status, err
}

// runner is what the run loop needs besides the activation it is working
// on: constant for everything one run finishes (an environment's, for
// every run in it).
type runner struct {
	h     native.Hooks
	pool  *native.Pool
	arena *heap.Arena
	env   *Env   // the engine's environment; nil: no direct calls
	me    *mcenv // what generated code sees of it (RSI): env's, or the run's own
}

// activation is the Go view of one activation record: the unit it executes,
// the record, its index in the frame stack (-1: not on it), and its
// register window.
type activation struct {
	u    *Unit
	f    *mcact
	fi   int
	regs []float64
	tags []native.Tag
}

// enterCode is the run loop's start state: enter generated code at the
// record's pc. Never an exit kind.
const enterCode = 0

// resume enters u's generated code at the pc in record f, over the window
// regs/tags, and returns the exit kind. First it refreshes the volatile
// state: the backing arrays of the heap cells and of the handle table move
// when a runtime op allocates, the mapped-heap top advances, and a lease
// may have opened another pool chunk. Generated code cannot allocate:
// whatever it reads through R12 (loaded from me.cells by enter) stays put
// until it exits to Go, and everything resumed after Go ran comes back
// through here.
func (x *runner) resume(u *Unit, f *mcact, regs []float64, tags []native.Tag) int32 {
	me := x.me
	handles := x.arena.Handles()
	me.top = int64(x.arena.Top())
	me.cells = unsafe.Pointer(unsafe.SliceData(x.arena.Cells()))
	me.handleLen = int64(len(handles))
	me.handles = unsafe.Pointer(unsafe.SliceData(handles))
	if x.env != nil {
		var size int
		me.poolTop, size = x.pool.Top()
		me.chunkLen = int64(size)
	}
	kind := enter(u.base+uintptr(u.prog.Off[f.exitpc]), f, me, unsafe.SliceData(regs), unsafe.SliceData(tags))
	// The unit, not just its bytes: the finalizer that unmaps the code is
	// registered on u, so u must outlive the entry. (The units of direct
	// callees are held by the environment.)
	runtime.KeepAlive(u)
	return kind
}

// finish is the host half of the machine-code executor: starting from the
// exit state of a's record (kind, and the pc in the record) it services
// exits and re-enters generated code until the activation ends. Delegate
// exits hand the activation to the reference loop at the recorded pc (always
// semantics-preserving); runtime exits execute the single op at the
// recorded pc through native.RuntimeOp — the function the reference loop
// itself calls — and re-enter at the next op. The two call exits finish a
// direct call the same way: what is left of the op runs in Go, then the
// activation continues behind it.
func (x *runner) finish(a *activation, kind int32) (native.Result, native.Status, error) {
	f := a.f
	prog := a.u.prog
	code := prog.Code
	ops := code.Ops
	for {
		if kind == enterCode {
			kind = x.resume(a.u, f, a.regs, a.tags)
		}
		pc := int(f.exitpc)
		switch kind {
		case exitRet:
			res := f.result()
			res.Steps, res.Checks = f.steps, f.checks
			return res, native.StatusOK, nil
		case exitRuntime, exitUnwind, exitCallRet:
			// Execute (or, for a direct call, complete) the op at pc in Go,
			// then keep going in Go while the following ops are runtime ops
			// (no point bouncing through the trampoline between them). Steps
			// are charged fused-style — no per-op budget check; the block's
			// entry check already covered the whole straight line.
			for {
				op := &ops[pc]
				var (
					status native.Status
					err    error
					deopt  *native.DeoptState
					done   bool
				)
				switch kind {
				case exitUnwind:
					status, err, deopt, done = x.adopt(a, op)
				case exitCallRet:
					status, err, deopt, done = native.FinishCall(code, op, a.regs, a.tags, f.result().Value(), nil)
				default:
					status, err, deopt, done = native.RuntimeOp(code, op, a.regs, a.tags, x.h, x.pool)
				}
				// A hybrid op's step sits in a downstream flush unless
				// HostStep says the re-entry skips it; a terminal outcome
				// (crash, bail, deopt) never reaches any flush and owes the
				// op's step, exactly as the reference loop charges it.
				if done || prog.HostStep[pc] {
					f.steps++
				}
				if done {
					return native.Result{Deopt: deopt, Steps: f.steps, Checks: f.checks}, status, err
				}
				pc++
				if pc >= len(ops) {
					return native.Result{Kind: native.ResUndef, Steps: f.steps, Checks: f.checks}, native.StatusOK, nil
				}
				if !prog.RT[pc] {
					break
				}
				kind = exitRuntime
			}
			f.exitpc, kind = int64(pc), enterCode
		default:
			// exitDelegate — or an unknown kind, impossible by construction:
			// delegating means even a bug here cannot diverge semantics.
			dres, dst, derr := native.Resume(code, a.regs, a.tags, x.h, f.maxOps, x.pool, pc, f.steps)
			dres.Checks += f.checks
			return dres, dst, derr
		}
	}
}

// adopt completes the direct call parent is suspended in at op, whose
// callee came back to generated code with something other than a return:
// the chain of records above parent is still there, and Go takes it over
// innermost first. The callee's unit is looked up before anything runs —
// nothing can have withdrawn it since the call — and held until its
// activation is finished (which recurses into its own callee first); then
// come the engine's post-call half of the dispatch, which the inline return
// sequence would have done, and native.FinishCall on the parent, whose
// result is what is left of the call op.
func (x *runner) adopt(parent *activation, op *lir.Op) (native.Status, error, *native.DeoptState, bool) {
	env := x.env
	fn := int(op.Aux)
	child := activation{u: env.units[fn], fi: parent.fi + 1}
	child.f = &env.frames[child.fi]
	child.regs, child.tags = x.pool.Window(int(child.f.regsOff), child.u.prog.Code.NumRegs)
	res, status, err := x.finish(&child, int32(child.f.kind))
	env.nframes--
	x.pool.PutRegs(child.regs, child.tags)

	pcode := parent.u.prog.Code
	var args []value.Value
	mark := -1
	if status == native.StatusBail {
		// The interpreter re-runs the call: the caller's registers have not
		// been touched since the arguments were copied out of them.
		args, mark = x.pool.CallArgs(pcode, op, parent.regs)
	}
	v, err := env.host.ReturnDirect(fn, args, res, status, err)
	x.pool.ReleaseArgs(mark)
	return native.FinishCall(pcode, op, parent.regs, parent.tags, v, err)
}
