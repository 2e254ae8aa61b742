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

	steps       int64
	nativeSteps int64 // the share of steps charged through AddSteps
	rng         uint64

	// framePool recycles locals/stack slices across activations; argStack
	// is a LIFO arena for call arguments (calls nest strictly).
	framePool [][]value.Value
	argStack  []value.Value
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

// Run executes the top-level code of the program.
func (vm *VM) Run() (value.Value, error) {
	return vm.Exec(vm.Prog.Main(), nil)
}

// CallFunction implements Dispatcher by interpreting the function.
func (vm *VM) CallFunction(idx int, args []value.Value) (value.Value, error) {
	if idx < 0 || idx >= len(vm.Prog.Funcs) {
		return value.Undef(), &RuntimeError{Msg: fmt.Sprintf("call to unknown function index %d", idx)}
	}
	return vm.Exec(vm.Prog.Funcs[idx], args)
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

// getFrame returns a zeroed slice of length n from the frame pool.
func (vm *VM) getFrame(n int) []value.Value {
	if len(vm.framePool) > 0 {
		f := vm.framePool[len(vm.framePool)-1]
		vm.framePool = vm.framePool[:len(vm.framePool)-1]
		if cap(f) >= n {
			f = f[:n]
			for i := range f {
				f[i] = value.Value{}
			}
			return f
		}
	}
	if n < 16 {
		return make([]value.Value, n, 16)
	}
	return make([]value.Value, n)
}

func (vm *VM) putFrame(f []value.Value) {
	if cap(f) > 0 && len(vm.framePool) < 64 {
		vm.framePool = append(vm.framePool, f[:0])
	}
}

// Exec interprets one function activation.
func (vm *VM) Exec(fn *bytecode.Function, args []value.Value) (value.Value, error) {
	locals := vm.getFrame(fn.NumLocals)
	defer vm.putFrame(locals)
	n := len(args)
	if n > fn.NumParams {
		n = fn.NumParams
	}
	copy(locals, args[:n])
	return vm.run(fn, locals, 0, true)
}

// ExecFrom resumes interpreting fn at pc0 over caller-owned locals — the
// engine uses it to continue an activation after a deoptimization rebuilt
// the frame. The locals slice is not pooled (the caller owns it) and must
// be at least fn.NumLocals long. allowOSR=false prevents a deopted loop
// from immediately OSR-ing back into the code it just deopted from.
func (vm *VM) ExecFrom(fn *bytecode.Function, locals []value.Value, pc0 int, allowOSR bool) (value.Value, error) {
	return vm.run(fn, locals, pc0, allowOSR)
}

// run is the interpreter loop over an established frame.
func (vm *VM) run(fn *bytecode.Function, locals []value.Value, pc0 int, allowOSR bool) (value.Value, error) {
	stack := vm.getFrame(0)
	defer func() { vm.putFrame(stack) }()

	push := func(v value.Value) { stack = append(stack, v) }
	pop := func() value.Value {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		return v
	}

	code := fn.Code
	for pc := pc0; pc < len(code); pc++ {
		vm.steps++
		if vm.steps > vm.MaxSteps {
			return value.Undef(), fmt.Errorf("%w after %d steps in %s", ErrBudget, vm.steps, fn.Name)
		}
		in := code[pc]
		switch in.Op {
		case bytecode.OpNop:
		case bytecode.OpConst:
			push(fn.Consts[in.A])
		case bytecode.OpUndef:
			push(value.Undef())
		case bytecode.OpNull:
			push(value.NullV())
		case bytecode.OpTrue:
			push(value.Bool(true))
		case bytecode.OpFalse:
			push(value.Bool(false))
		case bytecode.OpPop:
			pop()
		case bytecode.OpDup:
			push(stack[len(stack)-1])
		case bytecode.OpDup2:
			a, b := stack[len(stack)-2], stack[len(stack)-1]
			push(a)
			push(b)
		case bytecode.OpLoadLocal:
			push(locals[in.A])
		case bytecode.OpStoreLocal:
			locals[in.A] = pop()
		case bytecode.OpLoadGlobal:
			push(vm.Globals[in.A])
		case bytecode.OpStoreGlobal:
			vm.Globals[in.A] = pop()

		case bytecode.OpAdd:
			y, x := pop(), pop()
			if x.IsString() || y.IsString() {
				push(value.Str(x.ToString() + y.ToString()))
			} else {
				push(value.Num(x.ToNumber() + y.ToNumber()))
			}
		case bytecode.OpSub:
			y, x := pop(), pop()
			push(value.Num(x.ToNumber() - y.ToNumber()))
		case bytecode.OpMul:
			y, x := pop(), pop()
			push(value.Num(x.ToNumber() * y.ToNumber()))
		case bytecode.OpDiv:
			y, x := pop(), pop()
			push(value.Num(x.ToNumber() / y.ToNumber()))
		case bytecode.OpMod:
			y, x := pop(), pop()
			push(value.Num(value.Mod(x.ToNumber(), y.ToNumber())))
		case bytecode.OpPow:
			y, x := pop(), pop()
			push(value.Num(math.Pow(x.ToNumber(), y.ToNumber())))
		case bytecode.OpBitAnd:
			y, x := pop(), pop()
			push(value.Num(float64(value.ToInt32(x.ToNumber()) & value.ToInt32(y.ToNumber()))))
		case bytecode.OpBitOr:
			y, x := pop(), pop()
			push(value.Num(float64(value.ToInt32(x.ToNumber()) | value.ToInt32(y.ToNumber()))))
		case bytecode.OpBitXor:
			y, x := pop(), pop()
			push(value.Num(float64(value.ToInt32(x.ToNumber()) ^ value.ToInt32(y.ToNumber()))))
		case bytecode.OpShl:
			y, x := pop(), pop()
			push(value.Num(float64(value.ToInt32(x.ToNumber()) << (value.ToUint32(y.ToNumber()) & 31))))
		case bytecode.OpShr:
			y, x := pop(), pop()
			push(value.Num(float64(value.ToInt32(x.ToNumber()) >> (value.ToUint32(y.ToNumber()) & 31))))
		case bytecode.OpUshr:
			y, x := pop(), pop()
			push(value.Num(float64(value.ToUint32(x.ToNumber()) >> (value.ToUint32(y.ToNumber()) & 31))))

		case bytecode.OpNeg:
			push(value.Num(-pop().ToNumber()))
		case bytecode.OpNot:
			push(value.Bool(!pop().ToBool()))
		case bytecode.OpBitNot:
			push(value.Num(float64(^value.ToInt32(pop().ToNumber()))))
		case bytecode.OpTypeof:
			v := pop()
			if v.Type() == value.Null {
				push(value.Str("object")) // JS quirk preserved
			} else {
				push(value.Str(v.Type().String()))
			}

		case bytecode.OpEq:
			y, x := pop(), pop()
			push(value.Bool(value.LooseEquals(x, y)))
		case bytecode.OpNe:
			y, x := pop(), pop()
			push(value.Bool(!value.LooseEquals(x, y)))
		case bytecode.OpStrictEq:
			y, x := pop(), pop()
			push(value.Bool(value.StrictEquals(x, y)))
		case bytecode.OpStrictNe:
			y, x := pop(), pop()
			push(value.Bool(!value.StrictEquals(x, y)))
		case bytecode.OpLt:
			y, x := pop(), pop()
			push(compare(x, y, func(a, b float64) bool { return a < b }, func(a, b string) bool { return a < b }))
		case bytecode.OpLe:
			y, x := pop(), pop()
			push(compare(x, y, func(a, b float64) bool { return a <= b }, func(a, b string) bool { return a <= b }))
		case bytecode.OpGt:
			y, x := pop(), pop()
			push(compare(x, y, func(a, b float64) bool { return a > b }, func(a, b string) bool { return a > b }))
		case bytecode.OpGe:
			y, x := pop(), pop()
			push(compare(x, y, func(a, b float64) bool { return a >= b }, func(a, b string) bool { return a >= b }))

		case bytecode.OpJump:
			target := int(in.A)
			if target <= pc && allowOSR && vm.OSR != nil && len(stack) == 0 {
				// Loop back edge at a statement boundary: offer the engine an
				// on-stack replacement into native code.
				res, done, err := vm.OSR(fn, target, locals)
				if err != nil {
					return value.Undef(), err
				}
				if done {
					return res, nil
				}
			}
			pc = target - 1
		case bytecode.OpJumpIfFalse:
			if !pop().ToBool() {
				pc = int(in.A) - 1
			}
		case bytecode.OpJumpIfTrue:
			if pop().ToBool() {
				pc = int(in.A) - 1
			}

		case bytecode.OpCall:
			argc := int(in.B)
			base := len(vm.argStack)
			vm.argStack = append(vm.argStack, stack[len(stack)-argc:]...)
			stack = stack[:len(stack)-argc]
			res, err := vm.Dispatch.CallFunction(int(in.A), vm.argStack[base:base+argc])
			vm.argStack = vm.argStack[:base]
			if err != nil {
				return value.Undef(), err
			}
			push(res)
		case bytecode.OpCallBuiltin:
			argc := int(in.B)
			base := len(vm.argStack)
			vm.argStack = append(vm.argStack, stack[len(stack)-argc:]...)
			stack = stack[:len(stack)-argc]
			res, err := vm.CallBuiltin(bytecode.Builtin(in.A), vm.argStack[base:base+argc])
			vm.argStack = vm.argStack[:base]
			if err != nil {
				return value.Undef(), err
			}
			push(res)

		case bytecode.OpReturn:
			return pop(), nil
		case bytecode.OpReturnUndef:
			return value.Undef(), nil

		case bytecode.OpNewArray:
			n := pop().ToNumber()
			idx, ok := value.ToArrayIndex(n)
			if !ok {
				return value.Undef(), &RuntimeError{Msg: fmt.Sprintf("invalid array length %v", n)}
			}
			h, err := vm.Arena.Alloc(idx)
			if err != nil {
				return value.Undef(), &RuntimeError{Msg: err.Error()}
			}
			push(value.ArrayRef(h))
		case bytecode.OpArrayLit:
			n := int(in.A)
			h, err := vm.Arena.Alloc(n)
			if err != nil {
				return value.Undef(), &RuntimeError{Msg: err.Error()}
			}
			for i := n - 1; i >= 0; i-- {
				if crash := vm.Arena.Set(h, i, pop().ToNumber()); crash != nil {
					return value.Undef(), crash
				}
			}
			push(value.ArrayRef(h))
		case bytecode.OpGetElem:
			idxV, arr := pop(), pop()
			v, err := vm.getElem(arr, idxV)
			if err != nil {
				return value.Undef(), err
			}
			push(v)
		case bytecode.OpSetElem:
			v, idxV, arr := pop(), pop(), pop()
			if !arr.IsArray() {
				return value.Undef(), &RuntimeError{Msg: "cannot index non-array value " + arr.ToString()}
			}
			if idx, ok := value.ToArrayIndex(idxV.ToNumber()); ok {
				if crash := vm.Arena.Set(arr.Handle(), idx, v.ToNumber()); crash != nil {
					return value.Undef(), crash
				}
			}
			push(v)
		case bytecode.OpGetLength:
			arr := pop()
			switch {
			case arr.IsArray():
				n, _ := vm.Arena.Length(arr.Handle())
				push(value.Num(float64(n)))
			case arr.IsString():
				push(value.Num(float64(len(arr.AsString()))))
			default:
				return value.Undef(), &RuntimeError{Msg: "cannot read length of " + arr.ToString()}
			}
		case bytecode.OpSetLength:
			v, arr := pop(), pop()
			if !arr.IsArray() {
				return value.Undef(), &RuntimeError{Msg: "cannot set length of " + arr.ToString()}
			}
			n, ok := value.ToArrayIndex(v.ToNumber())
			if !ok {
				return value.Undef(), &RuntimeError{Msg: fmt.Sprintf("invalid array length %v", v)}
			}
			if err := vm.Arena.SetLength(arr.Handle(), n); err != nil {
				return value.Undef(), &RuntimeError{Msg: err.Error()}
			}
			push(v)

		default:
			return value.Undef(), &RuntimeError{Msg: fmt.Sprintf("unknown opcode %s", in.Op)}
		}
	}
	return value.Undef(), nil
}

func (vm *VM) getElem(arr, idxV value.Value) (value.Value, error) {
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

func compare(x, y value.Value, numCmp func(a, b float64) bool, strCmp func(a, b string) bool) value.Value {
	if x.IsString() && y.IsString() {
		return value.Bool(strCmp(x.AsString(), y.AsString()))
	}
	a, b := x.ToNumber(), y.ToNumber()
	if math.IsNaN(a) || math.IsNaN(b) {
		return value.Bool(false)
	}
	return value.Bool(numCmp(a, b))
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
