package interp

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/jitbull/jitbull/internal/bytecode"
	"github.com/jitbull/jitbull/internal/compiler"
	"github.com/jitbull/jitbull/internal/heap"
	"github.com/jitbull/jitbull/internal/progen"
	"github.com/jitbull/jitbull/internal/value"
)

// Slots of the function fusedCase builds: the locals the prologue pushes
// as the group's stack operands, the locals its loadlocals read, the local
// its storelocal writes, and the globals the epilogue writes.
const (
	slotOperand = 0 // and 1
	slotRead    = 2 // and 3
	slotStore   = 4
	numSlots    = 5

	globalRead     = 0
	globalLeftover = 1 // and 2: what the group leaves on the stack
	globalPath     = 3 // 1 after falling through the group, 2 after its jump
	globalLocals   = 4 // and on: the locals at the end
	numGlobals     = globalLocals + numSlots
)

// effect is the stack effect of an opcode that occurs in a group.
func effect(op bytecode.Op) (pops, pushes int) {
	switch op {
	case bytecode.OpConst, bytecode.OpLoadLocal, bytecode.OpLoadGlobal:
		return 0, 1
	case bytecode.OpStoreLocal, bytecode.OpJumpIfFalse:
		return 1, 0
	case bytecode.OpGetLength:
		return 1, 1
	}
	return 2, 1 // the binary operators and getelem
}

// depths returns the operand depth before each op of g and after the last
// when the group is entered at its head with exactly the operands it needs.
func depths(g group) []int {
	need, avail := 0, 0
	for _, op := range g.ops {
		pops, pushes := effect(op)
		if pops > avail {
			need += pops - avail
			avail = pops
		}
		avail += pushes - pops
	}
	d := []int{need}
	for _, op := range g.ops {
		pops, pushes := effect(op)
		d = append(d, d[len(d)-1]+pushes-pops)
	}
	return d
}

// fusedCase builds a function that runs g from op entry on: a prologue
// pushes the operands the group has at that op (locals slotOperand...) and
// jumps there unless entry is 0, and the group's ops follow, their const
// being konst. An epilogue stores what the group left on the stack, which
// way a conditional jump went, and every local into globals. head is the
// group's pc; steps is how many steps run before its first executed op.
func fusedCase(g group, entry int, konst value.Value) (fn *bytecode.Function, head, steps int) {
	d := depths(g)
	var code []bytecode.Instr
	emit := func(op bytecode.Op, a int) { code = append(code, bytecode.Instr{Op: op, A: int32(a)}) }
	for i := 0; i < d[entry]; i++ {
		emit(bytecode.OpLoadLocal, slotOperand+i)
	}
	// The nop keeps the prologue's last push out of any group: the group
	// under test must start at head.
	emit(bytecode.OpNop, 0)
	steps = d[entry] + 1
	if entry > 0 {
		emit(bytecode.OpJump, -1) // patched below
		steps++
	}
	head = len(code)
	reads, jumps := 0, -1
	for _, op := range g.ops {
		switch op {
		case bytecode.OpLoadLocal:
			emit(op, slotRead+reads)
			reads++
		case bytecode.OpStoreLocal:
			emit(op, slotStore)
		case bytecode.OpJumpIfFalse:
			jumps = len(code)
			emit(op, -1)
		default:
			emit(op, 0) // const 0 and global 0; A is unused otherwise
		}
	}
	if entry > 0 {
		code[head-1].A = int32(head + entry)
	}
	for i := d[len(d)-1] - 1; i >= 0; i-- {
		emit(bytecode.OpStoreGlobal, globalLeftover+i)
	}
	emit(bytecode.OpConst, 1)
	emit(bytecode.OpStoreGlobal, globalPath)
	if jumps >= 0 {
		end := len(code)
		emit(bytecode.OpJump, -1)
		code[jumps].A = int32(len(code))
		emit(bytecode.OpConst, 2)
		emit(bytecode.OpStoreGlobal, globalPath)
		code[end].A = int32(len(code))
	}
	for i := 0; i < numSlots; i++ {
		emit(bytecode.OpLoadLocal, i)
		emit(bytecode.OpStoreGlobal, globalLocals+i)
	}
	emit(bytecode.OpReturnUndef, 0)
	fn = &bytecode.Function{
		Name:      "group",
		NumParams: numSlots,
		NumLocals: numSlots,
		Code:      code,
		Consts:    []value.Value{konst, value.Num(1), value.Num(2)},
	}
	return fn, head, steps
}

// outcome is everything a run of a fusedCase function can show.
type outcome struct {
	res     value.Value
	err     string
	steps   int64
	globals [numGlobals]value.Value
}

// identical compares two values bit for bit (NaN equals NaN, -0 is not +0)
// and field by field, so a stale payload behind a new type shows too.
func identical(a, b value.Value) bool {
	return a.Type() == b.Type() && math.Float64bits(a.AsNumber()) == math.Float64bits(b.AsNumber()) &&
		a.AsString() == b.AsString() && a.Handle() == b.Handle()
}

func (o outcome) same(p outcome) bool {
	if !identical(o.res, p.res) || o.err != p.err || o.steps != p.steps {
		return false
	}
	for i := range o.globals {
		if !identical(o.globals[i], p.globals[i]) {
			return false
		}
	}
	return true
}

// TestFusedMatchesUnfused runs every superinstruction group against its
// unfused ops: every operand type (Numbers with NaN, -0, ±Inf, 2^53+1 and
// 2^53+2 among them, Booleans, Strings, undefined, null, an Array) in
// every stack operand, loaded local, loaded global, store target and
// constant; every step budget that ends before, inside or after the group;
// and entry at each op of the group, the head through ExecFrom and every
// interior op as a jump target. ExecFrom itself cannot resume inside a
// group: it starts with an empty operand stack, and every op inside one
// has operands below it. Result, Steps, error text, leftovers, the path
// taken and the locals must all be identical.
func TestFusedMatchesUnfused(t *testing.T) {
	consts := []value.Value{
		value.Num(3), value.Num(-1.5), value.Num(math.NaN()), value.Num(math.Copysign(0, -1)),
		value.Num(math.Inf(1)), value.Num(1<<53 + 2), value.Str("7"),
		// Where ToInt32 wraps to its sign bit, to just past it, and to 0.
		value.Num(1 << 31), value.Num(-(1 << 31) - 1), value.Num(1e20),
	}
	runs := 0
	for _, g := range groups {
		d := depths(g)
		hasConst := slices.Contains(g.ops, bytecode.OpConst)
		for entry := range g.ops {
			for ci, konst := range consts {
				fused := !hasConst || konst.IsNumber()
				if !hasConst && ci > 0 || !fused && entry > 0 {
					continue // nothing the runs before did not compare
				}
				fn, head, before := fusedCase(g, entry, konst)
				if err := fn.ComputeMaxStack(); err != nil {
					t.Fatalf("%s: %v", fn.Disassemble(), err)
				}
				prog := &bytecode.Program{Funcs: []*bytecode.Function{fn}, GlobalNames: make([]string, numGlobals)}
				vm, plain := New(prog, heap.New(0), nil), New(prog, heap.New(0), nil)
				Unfuse(plain)
				if got := vm.codeOf(fn)[head].Op; fused && got != g.super {
					t.Fatalf("group %v: head runs %v, want %v", g.ops, got, g.super)
				}
				arr := newArray(t, vm)
				if newArray(t, plain) != arr {
					t.Fatal("the two VMs' arrays differ")
				}

				// The inputs the executed ops read, each crossed with every
				// operand value.
				var dims []*value.Value
				var locals [numSlots]value.Value
				var global value.Value
				for i := 0; i < d[entry]; i++ {
					dims = append(dims, &locals[slotOperand+i])
				}
				reads := 0
				for i, op := range g.ops {
					if op == bytecode.OpLoadLocal {
						if i >= entry {
							dims = append(dims, &locals[slotRead+reads])
						}
						reads++
					}
					if i < entry {
						continue
					}
					switch op {
					case bytecode.OpStoreLocal:
						dims = append(dims, &locals[slotStore])
					case bytecode.OpLoadGlobal:
						dims = append(dims, &global)
					}
				}
				values := operandValues(arr)
				odometer := make([]int, len(dims))
				for {
					for i, p := range dims {
						*p = values[odometer[i]]
					}
					budgets := []int64{1 << 40}
					for s := 0; s <= len(g.ops)-entry; s++ {
						budgets = append(budgets, int64(before+s))
					}
					for _, budget := range budgets {
						want := runCase(plain, fn, locals, global, budget)
						got := runCase(vm, fn, locals, global, budget)
						runs++
						if !got.same(want) {
							t.Fatalf("group %v, entry %d, const %v, locals %v, global %v, MaxSteps %d:\n fused   %+v\n unfused %+v",
								g.ops, entry, konst, locals, global, budget, got, want)
						}
					}
					i := 0
					for ; i < len(odometer); i++ {
						if odometer[i]++; odometer[i] < len(values) {
							break
						}
						odometer[i] = 0
					}
					if i == len(odometer) {
						break
					}
				}
			}
		}
	}
	t.Logf("%d groups, %d compared runs", len(groups), runs)
}

// operandValues is every kind of value a group's operand can hold.
func operandValues(arr value.Value) []value.Value {
	return []value.Value{
		value.Num(1), value.Num(-3), value.Num(2.5), value.Num(math.NaN()),
		value.Num(math.Copysign(0, -1)), value.Num(math.Inf(1)), value.Num(math.Inf(-1)),
		value.Num(1<<53 + 1), // rounds to 2^53, where Mod leaves its integer path
		value.Num(1<<53 + 2), value.Bool(true), value.Bool(false), value.Str("7"), value.Str("x"),
		value.Undef(), value.NullV(), arr,
	}
}

// newArray allocates the array [0, 10, 20] in vm's arena.
func newArray(t *testing.T, vm *VM) value.Value {
	h, err := vm.Arena.Alloc(3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if crash := vm.Arena.Set(h, i, float64(10*i)); crash != nil {
			t.Fatal(crash)
		}
	}
	return value.ArrayRef(h)
}

func runCase(vm *VM, fn *bytecode.Function, locals [numSlots]value.Value, global value.Value, budget int64) outcome {
	clear(vm.Globals)
	vm.Globals[globalRead] = global
	vm.MaxSteps = budget
	vm.ResetSteps()
	res, err := vm.ExecFrom(fn, locals[:], 0)
	o := outcome{res: res, steps: vm.Steps()}
	if err != nil {
		o.err = err.Error()
	}
	copy(o.globals[:], vm.Globals)
	return o
}

// progenOutcome runs prog under a step budget on a fresh VM, fused or not,
// and renders everything the run shows.
func progenOutcome(prog *bytecode.Program, budget int64, unfused bool) string {
	var out bytes.Buffer
	vm := New(prog, heap.New(0), &out)
	if unfused {
		Unfuse(vm)
	}
	vm.MaxSteps = budget
	res, err := vm.Run()
	s := fmt.Sprintf("steps %d result %v err %v out %q", vm.Steps(), res, err, out.String())
	for i, g := range vm.Globals {
		s += fmt.Sprintf(" %s=%v/%v/%x", prog.GlobalNames[i], g.Type(), g, math.Float64bits(g.AsNumber()))
	}
	return s
}

// typedValues are the sources of every kind of value a group's operand can
// hold; arr is a global array.
var typedValues = []string{
	"1", "-3", "2.5", "0 / 0", "-0", "1 / 0", "-1 / 0", "9007199254740993",
	"true", "false", `"7"`, `"x"`, `""`, "undefined", "null", "arr",
}

// typedStatements are statements whose bytecode holds the groups, named
// beside each. They only read the parameters x and y, so every operand
// keeps the type f was called with; z and g are written (z with the array
// whose length the statement after it reads).
var typedStatements = []string{
	"z = x + 3;",                 // const·add·storelocal
	"z = y % 7;",                 // const·mod·storelocal
	"if (x < 5) { z = y; }",      // const·lt·jumpiffalse
	"if (y == 0) { z = x; }",     // const·eq·jumpiffalse
	"g = x + 1;",                 // const·add
	"g = y * 2;",                 // const·mul
	"g = x % 3;",                 // const·mod
	"g = x + 1 + y;",             // const·add, loadlocal·add
	"g = y * 2 * x;",             // const·mul, loadlocal·mul
	"g = x + y;",                 // loadlocal·loadlocal
	"if (x < y) { z = x; }",      // loadlocal·loadlocal, lt·jumpiffalse
	"if (y == x) { z = y; }",     // loadlocal·loadlocal, eq·jumpiffalse
	"z = x + y;",                 // loadlocal·loadlocal, add·storelocal
	"g = a[y];",                  // loadglobal·loadlocal·getelem
	"z = arr; g = g % z.length;", // loadlocal·getlength·mod
	"g = x & 6;",                 // const·bitand
}

// typedProgram draws a small program from seed: a function of the
// statements above whose parameters, local and indexed global start out as
// values of every type, called four times.
func typedProgram(seed int64) string {
	r := rand.New(rand.NewSource(seed))
	pick := func() string { return typedValues[r.Intn(len(typedValues))] }
	var b strings.Builder
	fmt.Fprintf(&b, "var arr = [0, 10, 20];\nvar a = %s;\nvar g = 0;\nfunction f(x, y) {\n  var z = %s;\n", pick(), pick())
	for i := 0; i < 16; i++ {
		fmt.Fprintf(&b, "  %s\n", typedStatements[r.Intn(len(typedStatements))])
	}
	b.WriteString("  print(x, y, z, g);\n}\n")
	for i := 0; i < 4; i++ {
		fmt.Fprintf(&b, "f(%s, %s);\n", pick(), pick())
	}
	return b.String()
}

// FuzzFusedMatchesUnfused runs two programs fused and unfused and compares
// steps, result, error, output and every global. The progen program runs
// under step budgets spread over its whole run, three consecutive ones
// from each of eight starting points (so that a budget ends inside any
// group that starts near one); the typed program, whose group operands are
// of every type, runs under every budget up to its length.
func FuzzFusedMatchesUnfused(f *testing.F) {
	for seed := int64(0); seed < 12; seed++ {
		f.Add(seed, seed*7919)
	}
	f.Fuzz(func(t *testing.T, seed, offset int64) {
		prog, err := compiler.Compile(progen.Generate(seed, progen.Options{}))
		if err != nil {
			t.Fatal(err)
		}
		vm := New(prog, heap.New(0), nil)
		if _, err := vm.Run(); err != nil {
			t.Fatal(err)
		}
		total := vm.Steps()
		budgets := []int64{total}
		for i := int64(0); i < 8; i++ {
			start := (offset%total + total + i*total/8) % total
			budgets = append(budgets, start, start+1, start+2)
		}
		for _, b := range budgets {
			if got, want := progenOutcome(prog, b, false), progenOutcome(prog, b, true); got != want {
				t.Fatalf("seed %d, MaxSteps %d:\n fused   %s\n unfused %s", seed, b, got, want)
			}
		}

		src := typedProgram(seed)
		if prog, err = compiler.Compile(src); err != nil {
			t.Fatalf("%v\n%s", err, src)
		}
		vm = New(prog, heap.New(0), io.Discard)
		vm.Run()
		for b := int64(0); b <= vm.Steps(); b++ {
			if got, want := progenOutcome(prog, b, false), progenOutcome(prog, b, true); got != want {
				t.Fatalf("typed program of seed %d, MaxSteps %d:\n fused   %s\n unfused %s\n%s", seed, b, got, want, src)
			}
		}
	})
}
