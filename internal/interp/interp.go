// Package interp implements the bytecode interpreter tier of the jitbull
// runtime. It executes internal/bytecode programs over the shared heap
// arena. Tier selection (interpreter vs JIT) is the job of internal/engine:
// the VM routes every function call through a Dispatcher so the engine can
// interpose.
package interp

import (
	"errors"
	"fmt"
	"io"
	"math"
	"strings"

	"github.com/jitbull/jitbull/internal/bytecode"
	"github.com/jitbull/jitbull/internal/heap"
	"github.com/jitbull/jitbull/internal/value"
)

// RuntimeError is a script-level runtime error (type errors, invalid
// lengths, exceeding the step budget, ...).
type RuntimeError struct {
	Msg string
}

// Error implements the error interface.
func (e *RuntimeError) Error() string { return "runtime error: " + e.Msg }

// ErrBudget is wrapped by the error returned when execution exceeds the
// configured step budget.
var ErrBudget = errors.New("step budget exhausted")

// Dispatcher routes nanojs function calls; internal/engine implements it to
// interpose tiering, profiling and JITBULL policy.
type Dispatcher interface {
	CallFunction(idx int, args []value.Value) (value.Value, error)
}

// OSRHook is invoked at interpreter loop back edges (backward OpJump with
// an empty operand stack — a statement boundary). The engine implements it
// to perform on-stack replacement: transferring the activation into native
// code mid-loop. The hook returns (result, done, err): done=false means the
// transfer was declined and interpretation continues at the jump target;
// done=true means native code ran the activation to completion (result, or
// err) and the interpreter frame must be abandoned.
type OSRHook func(fn *bytecode.Function, targetPC int, locals []value.Value) (value.Value, bool, error)

// MaxCallDepth is how many nanojs calls may be active at once. Every call
// is a Go recursion through the Dispatcher, so unbounded script recursion
// would otherwise end in Go's unrecoverable stack overflow long before the
// step budget; the limit turns it into an ordinary RuntimeError. It is far
// above what any corpus program reaches (the deepest, the Splay analogue,
// nests 42 calls) and far below what the Go stack holds.
const MaxCallDepth = 10000

// stackChunk is the size, in values, of one chunk of the value stack (32 KB
// at 32 bytes a value): a few dozen to a hundred activations.
const stackChunk = 1024

// VM executes bytecode functions. It is not safe for concurrent use.
type VM struct {
	Prog     *bytecode.Program
	Arena    *heap.Arena
	Globals  []value.Value
	Out      io.Writer
	Dispatch Dispatcher
	MaxSteps int64
	// OSR, when non-nil, is consulted at loop back edges. Nil (the default)
	// keeps the interpreter's per-op behavior byte-identical to a build
	// without OSR support.
	OSR OSRHook
	// BackEdges, when non-nil, counts each function's interpreted loop back
	// edges (backward OpJumps), indexed by Function.Index: the loop half of
	// the engine's warm-up counter. Counted before OSR is consulted, so the
	// hook sees the edge it is called for. Nil (the default) counts nothing.
	BackEdges []int

	steps       int64
	nativeSteps int64 // the share of steps charged through AddSteps
	rng         uint64

	// The value stack. An activation's locals and operand stack are one
	// window of fn.NumLocals+fn.MaxStack values, carved off the current
	// chunk at top and given back when the activation ends; calls nest
	// strictly, so windows are LIFO. A window that does not fit opens the
	// next chunk instead of growing this one — live windows are slices into
	// their chunk and must not move. Chunks are kept for reuse and die with
	// the VM.
	chunks [][]value.Value
	cur    StackMark

	// streams holds, by Function.Index, the execution copy of each function
	// activated so far: its code with superinstructions (fuse.go).
	streams []stream
}

// StackMark is a position of the value stack plus the call depth there.
// Activations that return (normally or with an error) restore the mark
// they started from themselves; code that recovers a panic which unwound
// through nanojs activations hands the mark it took beforehand to Unwind.
type StackMark struct {
	chunk int // index into chunks of the chunk windows are carved from
	top   int // first free value of that chunk
	depth int // active nanojs calls, bounded by MaxCallDepth
}

// New creates a VM for prog over arena, writing print output to out (or
// discarding it when out is nil). The VM dispatches calls to itself until a
// different Dispatcher is installed.
func New(prog *bytecode.Program, arena *heap.Arena, out io.Writer) *VM {
	vm := &VM{
		Prog:     prog,
		Arena:    arena,
		Globals:  make([]value.Value, len(prog.GlobalNames)),
		Out:      out,
		MaxSteps: 2_000_000_000,
		rng:      0x9E3779B97F4A7C15, // fixed seed: runs are deterministic
		chunks:   [][]value.Value{make([]value.Value, stackChunk)},
	}
	vm.Dispatch = vm
	return vm
}

// Steps returns the number of bytecode instructions executed so far.
func (vm *VM) Steps() int64 { return vm.steps }

// NativeSteps returns the part of Steps charged through AddSteps: LIR ops
// executed by native code, not bytecode instructions interpreted here.
func (vm *VM) NativeSteps() int64 { return vm.nativeSteps }

// ResetSteps clears the step counters (the budget applies per run).
func (vm *VM) ResetSteps() { vm.steps, vm.nativeSteps = 0, 0 }

// AddSteps charges externally-executed work (native LIR ops) against the
// shared step budget.
func (vm *VM) AddSteps(n int64) {
	vm.steps += n
	vm.nativeSteps += n
}

// Run executes the top-level code of the program. As the outermost
// activation it also gives the value stack and the call depth back when a
// panic unwinds through it, so whoever recovers finds the VM as it was.
func (vm *VM) Run() (value.Value, error) {
	defer vm.Unwind(vm.Mark())
	return vm.Exec(vm.Prog.Main(), nil)
}

// CallFunction implements Dispatcher by interpreting the function.
func (vm *VM) CallFunction(idx int, args []value.Value) (value.Value, error) {
	if idx < 0 || idx >= len(vm.Prog.Funcs) {
		return value.Undef(), &RuntimeError{Msg: fmt.Sprintf("call to unknown function index %d", idx)}
	}
	if err := vm.EnterCall(); err != nil {
		return value.Undef(), err
	}
	v, err := vm.Exec(vm.Prog.Funcs[idx], args)
	vm.LeaveCall()
	return v, err
}

// EnterCall charges one nanojs call against MaxCallDepth. A Dispatcher
// brackets each call it routes — whichever tier then runs it — with
// EnterCall and LeaveCall, so the limit and its error are the same in
// every tier.
func (vm *VM) EnterCall() error {
	if vm.cur.depth >= MaxCallDepth {
		return &RuntimeError{Msg: "maximum call depth exceeded"}
	}
	vm.cur.depth++
	return nil
}

// LeaveCall ends the call EnterCall admitted.
func (vm *VM) LeaveCall() { vm.cur.depth-- }

// Mark returns the current value-stack position and call depth.
func (vm *VM) Mark() StackMark { return vm.cur }

// Unwind drops every activation and call entered since m was taken. Only
// code that recovers a panic needs it.
func (vm *VM) Unwind(m StackMark) { vm.cur = m }

// Cells returns the addresses of the counters a lower tier keeps up to date
// in place when one native activation calls another without coming back
// through the Dispatcher: the step counter and its native share (what
// AddSteps charges), the budget they are held against, and the call depth
// (what EnterCall and LeaveCall charge, bounded by MaxCallDepth). The
// addresses are stable for the life of the VM.
func (vm *VM) Cells() (steps, nativeSteps, maxSteps *int64, depth *int) {
	return &vm.steps, &vm.nativeSteps, &vm.MaxSteps, &vm.cur.depth
}

// Random returns the next value of the deterministic script RNG
// (xorshift64*), in [0, 1).
func (vm *VM) Random() float64 {
	x := vm.rng
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	vm.rng = x
	return float64(x*0x2545F4914F6CDD1D>>11) / float64(1<<53)
}

// window carves the activation window of fn off the value stack.
func (vm *VM) window(fn *bytecode.Function) []value.Value {
	n := fn.NumLocals + fn.MaxStack
	f := &vm.cur
	if f.top+n > len(vm.chunks[f.chunk]) {
		vm.nextChunk(n)
	}
	win := vm.chunks[f.chunk][f.top : f.top+n : f.top+n]
	f.top += n
	return win
}

// nextChunk moves the stack top to the start of the following chunk,
// making sure that chunk can hold a window of n values.
func (vm *VM) nextChunk(n int) {
	f := &vm.cur
	f.chunk++
	f.top = 0
	if n < stackChunk {
		n = stackChunk
	}
	switch {
	case f.chunk == len(vm.chunks):
		vm.chunks = append(vm.chunks, make([]value.Value, n))
	case len(vm.chunks[f.chunk]) < n:
		// Nothing above the stack top is live, so the chunk can be replaced.
		vm.chunks[f.chunk] = make([]value.Value, n)
	}
}

// Exec interprets one function activation from the top. Arguments beyond
// the function's parameters are dropped, missing ones are undefined.
func (vm *VM) Exec(fn *bytecode.Function, args []value.Value) (value.Value, error) {
	if len(args) > fn.NumParams {
		args = args[:fn.NumParams]
	}
	return vm.ExecFrom(fn, args, 0)
}

// ExecFrom interprets an activation of fn from pc0 with the given leading
// locals; the rest are undefined, as in a fresh frame. Besides Exec, the
// engine uses it to continue an activation after a deoptimization rebuilt
// its locals. The resumed frame is an ordinary one: its loops offer the OSR
// hook their back edges like any other, so a deopted loop may go back into
// native code (recompiled, or the same code if the flip was transient).
// locals may alias the caller's window (the interpreter passes the top of
// its operand stack as arguments): they are copied into the new window
// before anything runs.
func (vm *VM) ExecFrom(fn *bytecode.Function, locals []value.Value, pc0 int) (value.Value, error) {
	saved := vm.cur
	win := vm.window(fn)
	n := copy(win[:fn.NumLocals], locals)
	clear(win[n:fn.NumLocals])
	v, err := vm.run(fn, win, pc0)
	vm.cur = saved
	return v, err
}

// run is the interpreter loop. stack is the activation's window: the
// locals are stack[:fn.NumLocals] and the operand stack grows from there,
// sp being the first free slot. fn.MaxStack bounds the operand depth (the
// compiler proved it), so slots are indexed, never appended.
//
// The arithmetic, relational and equality opcodes and &, |, ^ test for two
// Numbers first and then write the result over the left operand in place —
// the common case never builds or copies a 32-byte Value; everything else
// takes the coercing path.
//
// The loop runs fn's execution copy, whose superinstructions each stand
// for a short group of ops (fuse.go). A super-op that cannot take its fast
// path runs its head op alone.
func (vm *VM) run(fn *bytecode.Function, stack []value.Value, pc0 int) (value.Value, error) {
	code := vm.codeOf(fn)
	nl := fn.NumLocals
	sp := nl
	for pc := pc0; uint(pc) < uint(len(code)); pc++ {
		vm.steps++
		if vm.steps > vm.MaxSteps {
			return value.Undef(), fmt.Errorf("%w after %d steps in %s", ErrBudget, vm.steps, fn.Name)
		}
		in := code[pc]
		switch in.Op {
		case bytecode.OpNop:
		case bytecode.OpConst:
			stack[sp] = fn.Consts[in.A]
			sp++
		case bytecode.OpUndef:
			stack[sp] = value.Undef()
			sp++
		case bytecode.OpNull:
			stack[sp] = value.NullV()
			sp++
		case bytecode.OpTrue:
			stack[sp] = value.Bool(true)
			sp++
		case bytecode.OpFalse:
			stack[sp] = value.Bool(false)
			sp++
		case bytecode.OpPop:
			sp--
		case bytecode.OpDup:
			stack[sp] = stack[sp-1]
			sp++
		case bytecode.OpDup2:
			stack[sp], stack[sp+1] = stack[sp-2], stack[sp-1]
			sp += 2
		case bytecode.OpLoadLocal:
			stack[sp] = stack[in.A]
			sp++
		case bytecode.OpStoreLocal:
			sp--
			stack[in.A] = stack[sp]
		case bytecode.OpLoadGlobal:
			stack[sp] = vm.Globals[in.A]
			sp++
		case bytecode.OpStoreGlobal:
			sp--
			vm.Globals[in.A] = stack[sp]

		case bytecode.OpAdd:
			x, y := &stack[sp-2], &stack[sp-1]
			sp--
			if x.IsNumber() && y.IsNumber() {
				x.SetNum(x.AsNumber() + y.AsNumber())
			} else {
				*x = plus(x, y)
			}
		case bytecode.OpSub:
			x, y := &stack[sp-2], &stack[sp-1]
			sp--
			if x.IsNumber() && y.IsNumber() {
				x.SetNum(x.AsNumber() - y.AsNumber())
			} else {
				*x = value.Num(x.ToNumber() - y.ToNumber())
			}
		case bytecode.OpMul:
			x, y := &stack[sp-2], &stack[sp-1]
			sp--
			if x.IsNumber() && y.IsNumber() {
				x.SetNum(x.AsNumber() * y.AsNumber())
			} else {
				*x = value.Num(x.ToNumber() * y.ToNumber())
			}
		case bytecode.OpDiv:
			x, y := &stack[sp-2], &stack[sp-1]
			sp--
			if x.IsNumber() && y.IsNumber() {
				x.SetNum(x.AsNumber() / y.AsNumber())
			} else {
				*x = value.Num(x.ToNumber() / y.ToNumber())
			}
		case bytecode.OpMod:
			x, y := &stack[sp-2], &stack[sp-1]
			sp--
			if x.IsNumber() && y.IsNumber() {
				x.SetNum(value.Mod(x.AsNumber(), y.AsNumber()))
			} else {
				*x = value.Num(value.Mod(x.ToNumber(), y.ToNumber()))
			}
		case bytecode.OpPow:
			x, y := &stack[sp-2], &stack[sp-1]
			sp--
			*x = value.Num(math.Pow(x.ToNumber(), y.ToNumber()))
		case bytecode.OpBitAnd:
			x, y := &stack[sp-2], &stack[sp-1]
			sp--
			if x.IsNumber() && y.IsNumber() {
				x.SetNum(float64(value.ToInt32(x.AsNumber()) & value.ToInt32(y.AsNumber())))
			} else {
				*x = value.Num(float64(value.ToInt32(x.ToNumber()) & value.ToInt32(y.ToNumber())))
			}
		case bytecode.OpBitOr:
			x, y := &stack[sp-2], &stack[sp-1]
			sp--
			if x.IsNumber() && y.IsNumber() {
				x.SetNum(float64(value.ToInt32(x.AsNumber()) | value.ToInt32(y.AsNumber())))
			} else {
				*x = value.Num(float64(value.ToInt32(x.ToNumber()) | value.ToInt32(y.ToNumber())))
			}
		case bytecode.OpBitXor:
			x, y := &stack[sp-2], &stack[sp-1]
			sp--
			if x.IsNumber() && y.IsNumber() {
				x.SetNum(float64(value.ToInt32(x.AsNumber()) ^ value.ToInt32(y.AsNumber())))
			} else {
				*x = value.Num(float64(value.ToInt32(x.ToNumber()) ^ value.ToInt32(y.ToNumber())))
			}
		case bytecode.OpShl:
			x, y := &stack[sp-2], &stack[sp-1]
			sp--
			*x = value.Num(float64(value.ToInt32(x.ToNumber()) << (value.ToUint32(y.ToNumber()) & 31)))
		case bytecode.OpShr:
			x, y := &stack[sp-2], &stack[sp-1]
			sp--
			*x = value.Num(float64(value.ToInt32(x.ToNumber()) >> (value.ToUint32(y.ToNumber()) & 31)))
		case bytecode.OpUshr:
			x, y := &stack[sp-2], &stack[sp-1]
			sp--
			*x = value.Num(float64(value.ToUint32(x.ToNumber()) >> (value.ToUint32(y.ToNumber()) & 31)))

		case bytecode.OpNeg:
			x := &stack[sp-1]
			*x = value.Num(-x.ToNumber())
		case bytecode.OpNot:
			x := &stack[sp-1]
			*x = value.Bool(!x.ToBool())
		case bytecode.OpBitNot:
			x := &stack[sp-1]
			*x = value.Num(float64(^value.ToInt32(x.ToNumber())))
		case bytecode.OpTypeof:
			x := &stack[sp-1]
			if x.Type() == value.Null {
				*x = value.Str("object") // JS quirk preserved
			} else {
				*x = value.Str(x.Type().String())
			}

		// Two numbers are equal, loosely or strictly, when IEEE says so (NaN
		// equals nothing), and ordered the same way: a comparison with NaN is
		// false, which is what the relational operators want.
		case bytecode.OpEq, bytecode.OpStrictEq:
			x, y := &stack[sp-2], &stack[sp-1]
			sp--
			if x.IsNumber() && y.IsNumber() {
				x.SetBool(x.AsNumber() == y.AsNumber())
			} else {
				*x = value.Bool(equals(in.Op, x, y))
			}
		case bytecode.OpNe, bytecode.OpStrictNe:
			x, y := &stack[sp-2], &stack[sp-1]
			sp--
			if x.IsNumber() && y.IsNumber() {
				x.SetBool(x.AsNumber() != y.AsNumber())
			} else {
				*x = value.Bool(!equals(in.Op, x, y))
			}
		case bytecode.OpLt:
			x, y := &stack[sp-2], &stack[sp-1]
			sp--
			if x.IsNumber() && y.IsNumber() {
				x.SetBool(x.AsNumber() < y.AsNumber())
			} else {
				*x = value.Bool(compare(in.Op, x, y))
			}
		case bytecode.OpLe:
			x, y := &stack[sp-2], &stack[sp-1]
			sp--
			if x.IsNumber() && y.IsNumber() {
				x.SetBool(x.AsNumber() <= y.AsNumber())
			} else {
				*x = value.Bool(compare(in.Op, x, y))
			}
		case bytecode.OpGt:
			x, y := &stack[sp-2], &stack[sp-1]
			sp--
			if x.IsNumber() && y.IsNumber() {
				x.SetBool(x.AsNumber() > y.AsNumber())
			} else {
				*x = value.Bool(compare(in.Op, x, y))
			}
		case bytecode.OpGe:
			x, y := &stack[sp-2], &stack[sp-1]
			sp--
			if x.IsNumber() && y.IsNumber() {
				x.SetBool(x.AsNumber() >= y.AsNumber())
			} else {
				*x = value.Bool(compare(in.Op, x, y))
			}

		case bytecode.OpJump:
			target := int(in.A)
			if target <= pc {
				if vm.BackEdges != nil {
					vm.BackEdges[fn.Index]++
				}
				if vm.OSR != nil && sp == nl {
					// Loop back edge at a statement boundary: offer the engine an
					// on-stack replacement into native code.
					res, done, err := vm.OSR(fn, target, stack[:nl:nl])
					if err != nil {
						return value.Undef(), err
					}
					if done {
						return res, nil
					}
				}
			}
			pc = target - 1
		case bytecode.OpJumpIfFalse:
			sp--
			if !stack[sp].ToBool() {
				pc = int(in.A) - 1
			}
		case bytecode.OpJumpIfTrue:
			sp--
			if stack[sp].ToBool() {
				pc = int(in.A) - 1
			}

		case bytecode.OpCall:
			// The arguments are handed over where they lie, on top of this
			// window; the callee's window starts above it.
			argc := int(in.B)
			res, err := vm.Dispatch.CallFunction(int(in.A), stack[sp-argc:sp:sp])
			if err != nil {
				return value.Undef(), err
			}
			sp -= argc
			stack[sp] = res
			sp++
		case bytecode.OpCallBuiltin:
			argc := int(in.B)
			res, err := vm.CallBuiltin(bytecode.Builtin(in.A), stack[sp-argc:sp:sp])
			if err != nil {
				return value.Undef(), err
			}
			sp -= argc
			stack[sp] = res
			sp++

		case bytecode.OpReturn:
			return stack[sp-1], nil
		case bytecode.OpReturnUndef:
			return value.Undef(), nil

		case bytecode.OpNewArray:
			x := &stack[sp-1]
			n := x.ToNumber()
			idx, ok := value.ToArrayIndex(n)
			if !ok {
				return value.Undef(), &RuntimeError{Msg: fmt.Sprintf("invalid array length %v", n)}
			}
			h, err := vm.Arena.Alloc(idx)
			if err != nil {
				return value.Undef(), &RuntimeError{Msg: err.Error()}
			}
			*x = value.ArrayRef(h)
		case bytecode.OpArrayLit:
			n := int(in.A)
			h, err := vm.Arena.Alloc(n)
			if err != nil {
				return value.Undef(), &RuntimeError{Msg: err.Error()}
			}
			sp -= n
			for i := n - 1; i >= 0; i-- {
				if crash := vm.Arena.Set(h, i, stack[sp+i].ToNumber()); crash != nil {
					return value.Undef(), crash
				}
			}
			stack[sp] = value.ArrayRef(h)
			sp++
		case bytecode.OpGetElem:
			arr, idxV := &stack[sp-2], &stack[sp-1]
			sp--
			v, err := vm.getElem(arr, idxV)
			if err != nil {
				return value.Undef(), err
			}
			*arr = v
		case bytecode.OpSetElem:
			arr, idxV, v := &stack[sp-3], &stack[sp-2], &stack[sp-1]
			sp -= 2
			if !arr.IsArray() {
				return value.Undef(), &RuntimeError{Msg: "cannot index non-array value " + arr.ToString()}
			}
			if idx, ok := value.ToArrayIndex(idxV.ToNumber()); ok {
				if crash := vm.Arena.Set(arr.Handle(), idx, v.ToNumber()); crash != nil {
					return value.Undef(), crash
				}
			}
			*arr = *v
		case bytecode.OpGetLength:
			arr := &stack[sp-1]
			switch {
			case arr.IsArray():
				n, _ := vm.Arena.Length(arr.Handle())
				*arr = value.Num(float64(n))
			case arr.IsString():
				*arr = value.Num(float64(len(arr.AsString())))
			default:
				return value.Undef(), &RuntimeError{Msg: "cannot read length of " + arr.ToString()}
			}
		case bytecode.OpSetLength:
			arr, v := &stack[sp-2], &stack[sp-1]
			sp--
			if !arr.IsArray() {
				return value.Undef(), &RuntimeError{Msg: "cannot set length of " + arr.ToString()}
			}
			n, ok := value.ToArrayIndex(v.ToNumber())
			if !ok {
				return value.Undef(), &RuntimeError{Msg: fmt.Sprintf("invalid array length %v", *v)}
			}
			if err := vm.Arena.SetLength(arr.Handle(), n); err != nil {
				return value.Undef(), &RuntimeError{Msg: err.Error()}
			}
			*arr = *v

		// Superinstructions. The fast path charges the group's remaining
		// steps, does its work and moves pc to the group's last op (or to
		// the jump target); the fallback is the head op alone, as the case
		// for its opcode above runs it.
		case opGlobalLocalGetElem:
			if vm.steps+2 <= vm.MaxSteps {
				vm.steps += 2
				v, err := vm.getElem(&vm.Globals[in.A], &stack[in.B])
				if err != nil {
					return value.Undef(), err
				}
				stack[sp] = v
				sp++
				pc += 2
				continue
			}
			stack[sp] = vm.Globals[in.A]
			sp++

		case opLocalLengthMod:
			if x, a := &stack[sp-1], &stack[in.A]; x.IsNumber() && a.IsArray() && vm.steps+2 <= vm.MaxSteps {
				vm.steps += 2
				n, _ := vm.Arena.Length(a.Handle())
				x.SetNum(value.Mod(x.AsNumber(), float64(n)))
				pc += 2
				continue
			}
			stack[sp] = stack[in.A]
			sp++

		case opConstAddStore:
			if x, t := &stack[sp-1], &stack[in.B]; x.IsNumber() && t.CanSetNum() && vm.steps+2 <= vm.MaxSteps {
				vm.steps += 2
				t.SetNum(x.AsNumber() + fn.Consts[in.A].AsNumber())
				sp--
				pc += 2
				continue
			}
			stack[sp] = fn.Consts[in.A]
			sp++
		case opConstModStore:
			if x, t := &stack[sp-1], &stack[in.B]; x.IsNumber() && t.CanSetNum() && vm.steps+2 <= vm.MaxSteps {
				vm.steps += 2
				t.SetNum(value.Mod(x.AsNumber(), fn.Consts[in.A].AsNumber()))
				sp--
				pc += 2
				continue
			}
			stack[sp] = fn.Consts[in.A]
			sp++

		case opConstLtJump:
			if x := &stack[sp-1]; x.IsNumber() && vm.steps+2 <= vm.MaxSteps {
				vm.steps += 2
				sp--
				if x.AsNumber() < fn.Consts[in.A].AsNumber() {
					pc += 2
				} else {
					pc = int(in.B) - 1
				}
				continue
			}
			stack[sp] = fn.Consts[in.A]
			sp++
		case opConstEqJump:
			if x := &stack[sp-1]; x.IsNumber() && vm.steps+2 <= vm.MaxSteps {
				vm.steps += 2
				sp--
				if x.AsNumber() == fn.Consts[in.A].AsNumber() {
					pc += 2
				} else {
					pc = int(in.B) - 1
				}
				continue
			}
			stack[sp] = fn.Consts[in.A]
			sp++

		case opConstAdd:
			if x := &stack[sp-1]; x.IsNumber() && vm.steps+1 <= vm.MaxSteps {
				vm.steps++
				x.SetNum(x.AsNumber() + fn.Consts[in.A].AsNumber())
				pc++
				continue
			}
			stack[sp] = fn.Consts[in.A]
			sp++
		case opConstMul:
			if x := &stack[sp-1]; x.IsNumber() && vm.steps+1 <= vm.MaxSteps {
				vm.steps++
				x.SetNum(x.AsNumber() * fn.Consts[in.A].AsNumber())
				pc++
				continue
			}
			stack[sp] = fn.Consts[in.A]
			sp++
		case opConstMod:
			if x := &stack[sp-1]; x.IsNumber() && vm.steps+1 <= vm.MaxSteps {
				vm.steps++
				x.SetNum(value.Mod(x.AsNumber(), fn.Consts[in.A].AsNumber()))
				pc++
				continue
			}
			stack[sp] = fn.Consts[in.A]
			sp++

		case opConstBitAnd:
			if x := &stack[sp-1]; x.IsNumber() && vm.steps+1 <= vm.MaxSteps {
				vm.steps++
				x.SetNum(float64(value.ToInt32(x.AsNumber()) & value.ToInt32(fn.Consts[in.A].AsNumber())))
				pc++
				continue
			}
			stack[sp] = fn.Consts[in.A]
			sp++

		case opLocalAdd:
			if x, y := &stack[sp-1], &stack[in.A]; x.IsNumber() && y.IsNumber() && vm.steps+1 <= vm.MaxSteps {
				vm.steps++
				x.SetNum(x.AsNumber() + y.AsNumber())
				pc++
				continue
			}
			stack[sp] = stack[in.A]
			sp++
		case opLocalMul:
			if x, y := &stack[sp-1], &stack[in.A]; x.IsNumber() && y.IsNumber() && vm.steps+1 <= vm.MaxSteps {
				vm.steps++
				x.SetNum(x.AsNumber() * y.AsNumber())
				pc++
				continue
			}
			stack[sp] = stack[in.A]
			sp++

		case opLocalLocal:
			if vm.steps+1 <= vm.MaxSteps {
				vm.steps++
				stack[sp], stack[sp+1] = stack[in.A], stack[in.B]
				sp += 2
				pc++
				continue
			}
			stack[sp] = stack[in.A]
			sp++

		case opLtJump:
			x, y := &stack[sp-2], &stack[sp-1]
			if x.IsNumber() && y.IsNumber() && vm.steps+1 <= vm.MaxSteps {
				vm.steps++
				sp -= 2
				if x.AsNumber() < y.AsNumber() {
					pc++
				} else {
					pc = int(in.B) - 1
				}
				continue
			}
			sp--
			*x = value.Bool(compare(bytecode.OpLt, x, y))
		case opEqJump:
			x, y := &stack[sp-2], &stack[sp-1]
			if x.IsNumber() && y.IsNumber() && vm.steps+1 <= vm.MaxSteps {
				vm.steps++
				sp -= 2
				if x.AsNumber() == y.AsNumber() {
					pc++
				} else {
					pc = int(in.B) - 1
				}
				continue
			}
			sp--
			*x = value.Bool(equals(bytecode.OpEq, x, y))

		case opAddStore:
			x, y, t := &stack[sp-2], &stack[sp-1], &stack[in.B]
			if x.IsNumber() && y.IsNumber() && t.CanSetNum() && vm.steps+1 <= vm.MaxSteps {
				vm.steps++
				t.SetNum(x.AsNumber() + y.AsNumber())
				sp -= 2
				pc++
				continue
			}
			sp--
			*x = plus(x, y)

		default:
			return value.Undef(), &RuntimeError{Msg: fmt.Sprintf("unknown opcode %s", fn.Code[pc].Op)}
		}
	}
	return value.Undef(), nil
}

// plus is the coercing path of +: concatenation when either operand is a
// String, numeric addition otherwise.
func plus(x, y *value.Value) value.Value {
	if x.IsString() || y.IsString() {
		return value.Str(x.ToString() + y.ToString())
	}
	return value.Num(x.ToNumber() + y.ToNumber())
}

func (vm *VM) getElem(arr, idxV *value.Value) (value.Value, error) {
	switch {
	case arr.IsArray():
		idx, ok := value.ToArrayIndex(idxV.ToNumber())
		if !ok {
			return value.Undef(), nil
		}
		v, present, crash := vm.Arena.Get(arr.Handle(), idx)
		if crash != nil {
			return value.Undef(), crash
		}
		if !present {
			return value.Undef(), nil
		}
		return value.Num(v), nil
	case arr.IsString():
		idx, ok := value.ToArrayIndex(idxV.ToNumber())
		s := arr.AsString()
		if !ok || idx >= len(s) {
			return value.Undef(), nil
		}
		return value.Str(s[idx : idx+1]), nil
	default:
		return value.Undef(), &RuntimeError{Msg: "cannot index non-array value " + arr.ToString()}
	}
}

// equals is the coercing path of the equality operators: loose for == and
// !=, strict for === and !==.
func equals(op bytecode.Op, x, y *value.Value) bool {
	if op == bytecode.OpEq || op == bytecode.OpNe {
		return value.LooseEquals(*x, *y)
	}
	return value.StrictEquals(*x, *y)
}

// compare is the coercing path of the relational operators: two strings
// compare lexicographically, anything else numerically, and NaN compares
// false with everything (IEEE comparison already says so).
func compare(op bytecode.Op, x, y *value.Value) bool {
	if x.IsString() && y.IsString() {
		a, b := x.AsString(), y.AsString()
		switch op {
		case bytecode.OpLt:
			return a < b
		case bytecode.OpLe:
			return a <= b
		case bytecode.OpGt:
			return a > b
		default:
			return a >= b
		}
	}
	a, b := x.ToNumber(), y.ToNumber()
	switch op {
	case bytecode.OpLt:
		return a < b
	case bytecode.OpLe:
		return a <= b
	case bytecode.OpGt:
		return a > b
	default:
		return a >= b
	}
}

// CallBuiltin executes a builtin. It is exported so the native tier can
// reuse the same implementations.
func (vm *VM) CallBuiltin(b bytecode.Builtin, args []value.Value) (value.Value, error) {
	arg := func(i int) value.Value {
		if i < len(args) {
			return args[i]
		}
		return value.Undef()
	}
	num := func(i int) float64 { return arg(i).ToNumber() }
	switch b {
	case bytecode.BPrint:
		if vm.Out != nil {
			parts := make([]string, len(args))
			for i, a := range args {
				parts[i] = a.ToString()
			}
			fmt.Fprintln(vm.Out, strings.Join(parts, " "))
		}
		return value.Undef(), nil
	case bytecode.BMathAbs:
		return value.Num(math.Abs(num(0))), nil
	case bytecode.BMathFloor:
		return value.Num(math.Floor(num(0))), nil
	case bytecode.BMathCeil:
		return value.Num(math.Ceil(num(0))), nil
	case bytecode.BMathRound:
		return value.Num(math.Floor(num(0) + 0.5)), nil
	case bytecode.BMathSqrt:
		return value.Num(math.Sqrt(num(0))), nil
	case bytecode.BMathMin:
		res := math.Inf(1)
		for i := range args {
			res = math.Min(res, num(i))
		}
		return value.Num(res), nil
	case bytecode.BMathMax:
		res := math.Inf(-1)
		for i := range args {
			res = math.Max(res, num(i))
		}
		return value.Num(res), nil
	case bytecode.BMathPow:
		return value.Num(math.Pow(num(0), num(1))), nil
	case bytecode.BMathSin:
		return value.Num(math.Sin(num(0))), nil
	case bytecode.BMathCos:
		return value.Num(math.Cos(num(0))), nil
	case bytecode.BMathTan:
		return value.Num(math.Tan(num(0))), nil
	case bytecode.BMathAtan:
		return value.Num(math.Atan(num(0))), nil
	case bytecode.BMathAtan2:
		return value.Num(math.Atan2(num(0), num(1))), nil
	case bytecode.BMathExp:
		return value.Num(math.Exp(num(0))), nil
	case bytecode.BMathLog:
		return value.Num(math.Log(num(0))), nil
	case bytecode.BMathRandom:
		return value.Num(vm.Random()), nil
	case bytecode.BArrayPush:
		recv := arg(0)
		if !recv.IsArray() {
			return value.Undef(), &RuntimeError{Msg: "push on non-array"}
		}
		var n int
		for i := 1; i < len(args); i++ {
			var err error
			n, err = vm.Arena.Push(recv.Handle(), num(i))
			if err != nil {
				return value.Undef(), &RuntimeError{Msg: err.Error()}
			}
		}
		return value.Num(float64(n)), nil
	case bytecode.BArrayPop:
		recv := arg(0)
		if !recv.IsArray() {
			return value.Undef(), &RuntimeError{Msg: "pop on non-array"}
		}
		v, ok := vm.Arena.Pop(recv.Handle())
		if !ok {
			return value.Undef(), nil
		}
		return value.Num(v), nil
	case bytecode.BCharCodeAt:
		recv := arg(0)
		if !recv.IsString() {
			return value.Undef(), &RuntimeError{Msg: "charCodeAt on non-string"}
		}
		idx, ok := value.ToArrayIndex(num(1))
		s := recv.AsString()
		if !ok || idx >= len(s) {
			return value.Num(math.NaN()), nil
		}
		return value.Num(float64(s[idx])), nil
	case bytecode.BFromCharCode:
		bs := make([]byte, len(args))
		for i := range args {
			bs[i] = byte(value.ToUint32(num(i)))
		}
		return value.Str(string(bs)), nil
	case bytecode.BAddrOf:
		recv := arg(0)
		if !recv.IsArray() {
			return value.Num(math.NaN()), nil
		}
		elems, ok := vm.Arena.Elems(recv.Handle())
		if !ok {
			return value.Num(math.NaN()), nil
		}
		return value.Num(float64(elems)), nil
	case bytecode.BCodeBase:
		return value.Num(float64(vm.Arena.CodeBase())), nil
	default:
		return value.Undef(), &RuntimeError{Msg: fmt.Sprintf("unknown builtin %d", b)}
	}
}
