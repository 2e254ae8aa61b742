package interp

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/jitbull/jitbull/internal/bytecode"
	"github.com/jitbull/jitbull/internal/compiler"
	"github.com/jitbull/jitbull/internal/heap"
	"github.com/jitbull/jitbull/internal/value"
)

// run compiles and interprets src, returning the value of the global
// variable `result` plus anything printed.
func run(t *testing.T, src string) (value.Value, string) {
	t.Helper()
	prog, err := compiler.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	var out strings.Builder
	vm := New(prog, heap.New(0), &out)
	if _, err := vm.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	for i, name := range prog.GlobalNames {
		if name == "result" {
			return vm.Globals[i], out.String()
		}
	}
	return value.Undef(), out.String()
}

func runNum(t *testing.T, src string) float64 {
	t.Helper()
	v, _ := run(t, src)
	if !v.IsNumber() {
		t.Fatalf("result is %v (%v), want number", v, v.Type())
	}
	return v.AsNumber()
}

func runErr(t *testing.T, src string) error {
	t.Helper()
	prog, err := compiler.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	vm := New(prog, heap.New(0), nil)
	_, err = vm.Run()
	if err == nil {
		t.Fatalf("expected runtime error for %q", src)
	}
	return err
}

func TestArithmetic(t *testing.T) {
	tests := map[string]float64{
		"var result = 1 + 2 * 3;":   7,
		"var result = (1 + 2) * 3;": 9,
		"var result = 10 / 4;":      2.5,
		"var result = 10 % 3;":      1,
		"var result = 2 ** 10;":     1024,
		"var result = 2 ** 3 ** 2;": 512,
		"var result = -5 + 3;":      -2,
		"var result = 7 & 3;":       3,
		"var result = 5 | 2;":       7,
		"var result = 5 ^ 1;":       4,
		"var result = 1 << 10;":     1024,
		"var result = -8 >> 1;":     -4,
		"var result = -1 >>> 28;":   15,
		"var result = ~0;":          -1,
		"var result = 0.1 + 0.2;":   0.30000000000000004,
		"var result = 1 / 0;":       math.Inf(1),
	}
	for src, want := range tests {
		if got := runNum(t, src); got != want {
			t.Errorf("%q = %v, want %v", src, got, want)
		}
	}
}

func TestComparisonsAndLogic(t *testing.T) {
	tests := map[string]float64{
		"var result = (3 < 4) ? 1 : 0;":             1,
		"var result = (3 >= 4) ? 1 : 0;":            0,
		"var result = (3 == '3') ? 1 : 0;":          1,
		"var result = (3 === 3) ? 1 : 0;":           1,
		"var result = (0 && 2) + 10;":               10,
		"var result = (0 || 2) + 10;":               12,
		"var result = (!0) ? 5 : 6;":                5,
		"var result = ('abc' < 'abd') ? 1 : 0;":     1,
		"var result = (undefined == null) ? 1 : 0;": 1,
	}
	for src, want := range tests {
		if got := runNum(t, src); got != want {
			t.Errorf("%q = %v, want %v", src, got, want)
		}
	}
}

func TestNaNComparisons(t *testing.T) {
	if got := runNum(t, "var nan = 0/0; var result = (nan < 1) || (nan >= 1) || (nan == nan) ? 1 : 0;"); got != 0 {
		t.Errorf("NaN comparisons must all be false, got %v", got)
	}
}

func TestStrings(t *testing.T) {
	v, _ := run(t, `var result = "foo" + "bar" + 3;`)
	if v.AsString() != "foobar3" {
		t.Errorf("concat = %q", v.AsString())
	}
	if got := runNum(t, `var result = "hello".length;`); got != 5 {
		t.Errorf("string length = %v", got)
	}
	if got := runNum(t, `var result = "A".charCodeAt(0);`); got != 65 {
		t.Errorf("charCodeAt = %v", got)
	}
	v, _ = run(t, `var result = String.fromCharCode(72, 105);`)
	if v.AsString() != "Hi" {
		t.Errorf("fromCharCode = %q", v.AsString())
	}
}

func TestControlFlow(t *testing.T) {
	src := `
var result = 0;
for (var i = 0; i < 10; i++) {
  if (i % 2 == 0) { continue; }
  if (i == 9) { break; }
  result += i;
}`
	if got := runNum(t, src); got != 1+3+5+7 {
		t.Errorf("loop sum = %v", got)
	}
}

func TestWhileAndDoWhile(t *testing.T) {
	if got := runNum(t, "var result = 0; var i = 0; while (i < 5) { result += i; i++; }"); got != 10 {
		t.Errorf("while = %v", got)
	}
	if got := runNum(t, "var result = 0; do { result++; } while (false);"); got != 1 {
		t.Errorf("do-while must run once, got %v", got)
	}
}

func TestNestedLoops(t *testing.T) {
	src := `
var result = 0;
for (var i = 0; i < 4; i++) {
  for (var j = 0; j < 4; j++) {
    if (j == 2) { break; }
    result++;
  }
}`
	if got := runNum(t, src); got != 8 {
		t.Errorf("nested break = %v", got)
	}
}

func TestFunctions(t *testing.T) {
	src := `
function fib(n) {
  if (n < 2) { return n; }
  return fib(n - 1) + fib(n - 2);
}
var result = fib(15);`
	if got := runNum(t, src); got != 610 {
		t.Errorf("fib(15) = %v", got)
	}
}

func TestFunctionDefaultsAndVoid(t *testing.T) {
	src := `
function f(a, b) { return b; }
function g() { }
var r1 = f(1);
var r2 = g();
var result = ((r1 === undefined) && (r2 === undefined)) ? 1 : 0;`
	if got := runNum(t, src); got != 1 {
		t.Errorf("missing args / void return = %v", got)
	}
}

func TestForwardFunctionReference(t *testing.T) {
	src := `
var result = later(4);
function later(x) { return x * x; }`
	if got := runNum(t, src); got != 16 {
		t.Errorf("forward ref = %v", got)
	}
}

func TestArrays(t *testing.T) {
	src := `
var a = new Array(4);
a[0] = 10; a[1] = 20; a[3] = 40;
var result = a[0] + a[1] + a[3] + a.length;`
	if got := runNum(t, src); got != 74 {
		t.Errorf("array ops = %v", got)
	}
}

func TestArrayLiteral(t *testing.T) {
	if got := runNum(t, "var a = [1, 2, 3]; var result = a[0] + a[1] * a[2] + a.length;"); got != 10 {
		t.Errorf("array literal = %v", got)
	}
}

func TestArrayHoleReadsUndefined(t *testing.T) {
	// nanojs arrays are dense float64 arrays: growing .length zero-fills
	// new slots instead of leaving holes.
	if got := runNum(t, "var a = new Array(2); a.length = 5; var result = (a[4] === 0) ? 1 : 0;"); got != 1 {
		t.Errorf("grown slot read = %v", got)
	}
	if got := runNum(t, "var a = [1]; var result = (a[99] === undefined) ? 1 : 0;"); got != 1 {
		t.Errorf("OOB read = %v", got)
	}
}

func TestArrayGrowthOnWrite(t *testing.T) {
	src := `
var a = new Array(2);
a[10] = 7;
var result = a.length * 100 + a[10];`
	if got := runNum(t, src); got != 1107 {
		t.Errorf("growth = %v", got)
	}
}

func TestArrayShrinkAndRegrow(t *testing.T) {
	src := `
var a = new Array(10);
a[9] = 99;
a.length = 3;
var gone = a[9];
a.length = 12;
var result = ((gone === undefined) && (a[9] === 0) && a.length == 12) ? 1 : 0;`
	if got := runNum(t, src); got != 1 {
		t.Errorf("shrink/regrow = %v", got)
	}
}

func TestPushPopBuiltins(t *testing.T) {
	src := `
var a = new Array(0);
a.push(1); a.push(2); a.push(3);
var x = a.pop();
var result = a.length * 10 + x;`
	if got := runNum(t, src); got != 23 {
		t.Errorf("push/pop = %v", got)
	}
}

func TestMathBuiltins(t *testing.T) {
	tests := map[string]float64{
		"var result = Math.floor(3.7);":     3,
		"var result = Math.ceil(3.2);":      4,
		"var result = Math.abs(-5);":        5,
		"var result = Math.sqrt(144);":      12,
		"var result = Math.min(3, 1, 2);":   1,
		"var result = Math.max(3, 1, 2);":   3,
		"var result = Math.pow(2, 8);":      256,
		"var result = Math.round(2.5);":     3,
		"var result = Math.floor(Math.PI);": 3,
	}
	for src, want := range tests {
		if got := runNum(t, src); got != want {
			t.Errorf("%q = %v, want %v", src, got, want)
		}
	}
}

func TestMathRandomDeterministic(t *testing.T) {
	src := "var result = Math.random();"
	a := runNum(t, src)
	b := runNum(t, src)
	if a != b {
		t.Errorf("Math.random must be deterministic across runs: %v vs %v", a, b)
	}
	if a < 0 || a >= 1 {
		t.Errorf("Math.random out of range: %v", a)
	}
}

func TestPrint(t *testing.T) {
	_, out := run(t, `print("x =", 42); print(1 < 2);`)
	if out != "x = 42\ntrue\n" {
		t.Errorf("print output = %q", out)
	}
}

func TestTypeof(t *testing.T) {
	src := `
var parts = typeof 1 + "," + typeof "s" + "," + typeof true + "," + typeof undefined + "," + typeof [1] + "," + typeof null;
var result = (parts == "number,string,boolean,undefined,object,object") ? 1 : 0;`
	if got := runNum(t, src); got != 1 {
		t.Errorf("typeof = %v", got)
	}
}

func TestUpdateExpressions(t *testing.T) {
	tests := map[string]float64{
		"var i = 5; var result = i++ * 10 + i;":         56,
		"var i = 5; var result = ++i * 10 + i;":         66,
		"var i = 5; var result = i-- * 10 + i;":         54,
		"var a = [7]; var result = a[0]++ * 10 + a[0];": 78,
		"var a = [7]; var result = ++a[0] * 10 + a[0];": 88,
	}
	for src, want := range tests {
		if got := runNum(t, src); got != want {
			t.Errorf("%q = %v, want %v", src, got, want)
		}
	}
}

func TestCompoundAssignOnElements(t *testing.T) {
	src := "var a = [10]; a[0] += 5; a[0] *= 2; var result = a[0];"
	if got := runNum(t, src); got != 30 {
		t.Errorf("compound = %v", got)
	}
}

func TestCompoundAssignOnLength(t *testing.T) {
	src := "var a = new Array(10); a.length -= 6; var result = a.length;"
	if got := runNum(t, src); got != 4 {
		t.Errorf("length -= : %v", got)
	}
}

func TestGlobalsAcrossFunctions(t *testing.T) {
	src := `
var counter = 0;
function bump() { counter += 1; }
bump(); bump(); bump();
var result = counter;`
	if got := runNum(t, src); got != 3 {
		t.Errorf("globals = %v", got)
	}
}

func TestAddrOfAndCodeBase(t *testing.T) {
	src := `
var a = new Array(4);
var b = new Array(4);
var result = __addrof(b) - __addrof(a);`
	if got := runNum(t, src); got != 6 {
		t.Errorf("addrof delta = %v, want 6 (header + 4 payload cells)", got)
	}
	if got := runNum(t, "var result = __codebase();"); got <= 0 {
		t.Errorf("codebase = %v", got)
	}
}

func TestRuntimeErrors(t *testing.T) {
	tests := []string{
		"var x = 1; x[0] = 2;",
		"var x = 3; var y = x.length;",
		"var a = [1]; a.length = -1;",
		"var a = new Array(-3);",
		`var s = "abc"; s.push(1);`,
	}
	for _, src := range tests {
		err := runErr(t, src)
		var re *RuntimeError
		if !errors.As(err, &re) {
			t.Errorf("%q: got %v, want RuntimeError", src, err)
		}
	}
}

func TestStepBudget(t *testing.T) {
	prog, err := compiler.Compile("while (true) { }")
	if err != nil {
		t.Fatal(err)
	}
	vm := New(prog, heap.New(0), nil)
	vm.MaxSteps = 1000
	_, err = vm.Run()
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("want ErrBudget, got %v", err)
	}
}

func TestIndexingWithFloatsAndNegatives(t *testing.T) {
	src := `
var a = [1, 2, 3];
a[-1] = 99;       // ignored (property store in real JS)
var u = a[0.5];   // hole
var result = ((u === undefined) && a.length == 3) ? 1 : 0;`
	if got := runNum(t, src); got != 1 {
		t.Errorf("odd indices = %v", got)
	}
}

func TestDeepRecursionWorks(t *testing.T) {
	src := `
function down(n) { if (n == 0) { return 0; } return down(n - 1); }
var result = down(5000);`
	if got := runNum(t, src); got != 0 {
		t.Errorf("recursion = %v", got)
	}
}

func TestTernaryAndNestedCalls(t *testing.T) {
	src := `
function clamp(x, lo, hi) { return x < lo ? lo : (x > hi ? hi : x); }
var result = clamp(15, 0, 10) + clamp(-5, 0, 10) + clamp(5, 0, 10);`
	if got := runNum(t, src); got != 15 {
		t.Errorf("clamp = %v", got)
	}
}

func TestStringIndexing(t *testing.T) {
	src := `var s = "abc"; var result = (s[1] == "b" && s[9] === undefined) ? 1 : 0;`
	if got := runNum(t, src); got != 1 {
		t.Errorf("string indexing = %v", got)
	}
}

func TestDup2ViaIndexCompound(t *testing.T) {
	src := "var a = [2, 3]; a[0] **= 3; var result = a[0];"
	if got := runNum(t, src); got != 8 {
		t.Errorf("**= on element = %v", got)
	}
}

func TestBitNotAndUnaryChains(t *testing.T) {
	tests := map[string]float64{
		"var result = ~~3.7;":         3,
		"var result = -(-5);":         5,
		"var result = (!!3) ? 1 : 0;": 1,
	}
	for src, want := range tests {
		if got := runNum(t, src); got != want {
			t.Errorf("%q = %v, want %v", src, got, want)
		}
	}
}

func TestShiftBeyond31Masks(t *testing.T) {
	if got := runNum(t, "var result = 1 << 33;"); got != 2 {
		t.Errorf("1 << 33 = %v, want 2 (shift count masked mod 32)", got)
	}
}

func TestCallBuiltinDirectly(t *testing.T) {
	vm := New(&bytecode.Program{Funcs: []*bytecode.Function{{Name: "(main)"}}}, heap.New(0), nil)
	v, err := vm.CallBuiltin(bytecode.BMathAtan2, []value.Value{value.Num(1), value.Num(1)})
	if err != nil || math.Abs(v.AsNumber()-math.Pi/4) > 1e-12 {
		t.Fatalf("atan2 = %v, %v", v, err)
	}
	if _, err := vm.CallBuiltin(bytecode.Builtin(999), nil); err == nil {
		t.Fatal("unknown builtin must error")
	}
	// Missing args coerce to undefined -> NaN.
	v, _ = vm.CallBuiltin(bytecode.BMathAbs, nil)
	if !math.IsNaN(v.AsNumber()) {
		t.Fatalf("abs() = %v, want NaN", v)
	}
}

func TestCallFunctionUnknownIndex(t *testing.T) {
	vm := New(&bytecode.Program{Funcs: []*bytecode.Function{{Name: "(main)"}}}, heap.New(0), nil)
	if _, err := vm.CallFunction(42, nil); err == nil {
		t.Fatal("unknown function index must error")
	}
}

func TestNegativeZeroSemantics(t *testing.T) {
	// -0 and +0 compare equal but divide differently — both tiers share
	// IEEE-754 semantics through the same Value representation.
	src := "var nz = -0; var result = (1 / nz == -1 / 0) ? 1 : 0;"
	if got := runNum(t, src); got != 1 {
		t.Errorf("negative zero = %v", got)
	}
}

// TestOperandStackIsExactlyMaxStack shows that the window really is the
// checking build TestOperandDepthBoundHolds (internal/difftest) and
// TestOperandDepthBoundHoldsUnfused rely on:
// with the bound one slot short, the deepest push panics instead of
// spilling into whatever lies above the window. The deepest push must be
// one the interpreter really makes: `const 4` is followed by a div, and
// no superinstruction starts with const·div (in `3 + 4` the const and the
// add run as one op that pushes nothing).
func TestOperandStackIsExactlyMaxStack(t *testing.T) {
	prog, err := compiler.Compile("var result = 1 / (2 / (3 / 4));")
	if err != nil {
		t.Fatal(err)
	}
	fn := prog.Main()
	if got := fn.MaxStack; got != 4 {
		t.Fatalf("MaxStack = %d, want 4", got)
	}
	if _, fused := groupAt(fn, 3); fn.Code[3].Op != bytecode.OpConst || fused {
		t.Fatalf("pc 3 must be an unfused const (the deepest push):\n%s", fn.Disassemble())
	}
	fn.MaxStack--
	defer func() {
		if recover() == nil {
			t.Fatal("a push past MaxStack must panic")
		}
	}()
	New(prog, heap.New(0), nil).Run()
}

func TestCallDepthLimit(t *testing.T) {
	prog, err := compiler.Compile(`
function f(n) { return f(n + 1) + 1; }
function ok(n) { return n * 2; }
var result = f(0);`)
	if err != nil {
		t.Fatal(err)
	}
	vm := New(prog, heap.New(0), nil)
	_, err = vm.Run()
	var re *RuntimeError
	if !errors.As(err, &re) || re.Msg != "maximum call depth exceeded" {
		t.Fatalf("unbounded recursion: %v, want the call-depth RuntimeError", err)
	}
	// Every activation gave its window and its depth back on the way out.
	if vm.Mark() != (StackMark{}) {
		t.Fatalf("after the error the VM is at %+v, want the empty stack", vm.Mark())
	}
	if v, err := vm.CallFunction(prog.FuncByName["ok"], []value.Value{value.Num(21)}); err != nil || v.AsNumber() != 42 {
		t.Fatalf("the VM must stay usable: ok(21) = %v, %v", v, err)
	}
}

// TestValueStackSpansChunks nests activations across many chunks of the
// value stack, with a frame wider than a whole chunk in the middle, and
// checks that callers' locals survive their callees.
func TestValueStackSpansChunks(t *testing.T) {
	var src strings.Builder
	src.WriteString("function wide(n) {\n")
	for i := 0; i < stackChunk+50; i++ {
		fmt.Fprintf(&src, "  var v%d = n + %d;\n", i, i)
	}
	fmt.Fprintf(&src, "  return down(20) + v0 + v%d;\n}\n", stackChunk+49)
	src.WriteString(`
function down(n) { var keep = n * 3; if (n == 0) { return 0; } var r = down(n - 1); return r + keep - n * 3 + 1; }
function mid(n) { var keep = n; var r = down(n) + wide(n); return r + keep - n; }
var result = mid(2000);`)
	// down(k) = k; wide(n) = 20 + n + n + stackChunk+49.
	if got, want := runNum(t, src.String()), float64(2000+20+2000+2000+stackChunk+49); got != want {
		t.Errorf("result = %v, want %v", got, want)
	}
}

func TestExecFromResumesWithShortLocals(t *testing.T) {
	prog, err := compiler.Compile(`
function f(a) { var b; var c; return a + (b === undefined ? 10 : 0) + (c === undefined ? 100 : 0); }
function dirty(x) { var p = 7; var q = 8; return p + q + x; }`)
	if err != nil {
		t.Fatal(err)
	}
	vm := New(prog, heap.New(0), nil)
	// Leave numbers where f's window will be carved.
	if _, err := vm.CallFunction(prog.FuncByName["dirty"], []value.Value{value.Num(1)}); err != nil {
		t.Fatal(err)
	}
	v, err := vm.ExecFrom(prog.Funcs[prog.FuncByName["f"]], []value.Value{value.Num(5)}, 0)
	if err != nil || v.AsNumber() != 115 {
		t.Fatalf("ExecFrom with one of three locals = %v, %v, want 115", v, err)
	}
}

// panicAtDepth forwards calls to the VM until the third nested one, then
// panics — a stand-in for a bug anywhere below the dispatcher.
type panicAtDepth struct {
	vm    *VM
	depth int
}

func (d *panicAtDepth) CallFunction(idx int, args []value.Value) (value.Value, error) {
	if d.depth++; d.depth == 3 {
		panic("boom")
	}
	return d.vm.CallFunction(idx, args)
}

func TestRunRestoresStackWhenAPanicUnwindsThroughIt(t *testing.T) {
	prog, err := compiler.Compile(`
function a(n) { var x = n + 1; return b(x) + x; }
function b(n) { var y = n * 2; return c(y) + y; }
function c(n) { return n; }
var result = a(1);`)
	if err != nil {
		t.Fatal(err)
	}
	vm := New(prog, heap.New(0), nil)
	vm.Dispatch = &panicAtDepth{vm: vm}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the dispatcher's panic must propagate out of Run")
			}
		}()
		vm.Run()
	}()
	if vm.Mark() != (StackMark{}) {
		t.Fatalf("after the recovered panic the VM is at %+v, want the empty stack", vm.Mark())
	}
	vm.Dispatch = vm
	if _, err := vm.Run(); err != nil {
		t.Fatal(err)
	}
	if got := vm.Globals[0].AsNumber(); got != 4+4+2 {
		t.Fatalf("rerun after the panic: result = %v, want 10", got)
	}
}
