package mirbuild

import (
	"errors"
	"strings"
	"testing"

	"github.com/jitbull/jitbull/internal/ast"
	"github.com/jitbull/jitbull/internal/compiler"
	"github.com/jitbull/jitbull/internal/mir"
	"github.com/jitbull/jitbull/internal/parser"
	"github.com/jitbull/jitbull/internal/value"
)

// buildFn compiles src, then builds MIR for the function named name with
// the given observed param types. Globals and callee return types default
// to Number.
func buildFn(t *testing.T, src, name string, paramTypes ...value.Type) (*mir.Graph, error) {
	t.Helper()
	prog, err := compiler.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	astProg := parser.MustParse(src)
	var fd *ast.FuncDecl
	for _, f := range astProg.Funcs() {
		if f.Name == name {
			fd = f
		}
	}
	if fd == nil {
		t.Fatalf("function %q not found", name)
	}
	return Build(prog, fd, Options{
		ParamTypes: paramTypes,
		GlobalType: func(int) value.Type { return value.Number },
		ReturnType: func(int) value.Type { return value.Number },
	})
}

func mustBuild(t *testing.T, src, name string, paramTypes ...value.Type) *mir.Graph {
	t.Helper()
	g, err := buildFn(t, src, name, paramTypes...)
	if err != nil {
		t.Fatalf("Build(%s): %v", name, err)
	}
	if errs := g.Verify(); len(errs) > 0 {
		t.Fatalf("invalid graph: %v\n%s", errs, g)
	}
	return g
}

func countOps(g *mir.Graph, op mir.Op) int {
	n := 0
	for _, b := range g.Blocks {
		for _, in := range b.Instrs {
			if !in.Dead && in.Op == op {
				n++
			}
		}
	}
	return n
}

func TestStraightLineArith(t *testing.T) {
	g := mustBuild(t, "function f(a, b) { return a * b + 2; }", "f",
		value.Number, value.Number)
	if countOps(g, mir.OpMul) != 1 || countOps(g, mir.OpAdd) != 1 {
		t.Fatalf("missing arith ops:\n%s", g)
	}
	if countOps(g, mir.OpUnbox) != 2 {
		t.Fatalf("want 2 unbox guards:\n%s", g)
	}
	if countOps(g, mir.OpReturn) != 1 {
		t.Fatalf("want 1 return:\n%s", g)
	}
}

func TestArrayAccessEmitsGuardChain(t *testing.T) {
	g := mustBuild(t, "function f(a, i) { return a[i]; }", "f",
		value.Array, value.Number)
	for _, op := range []mir.Op{mir.OpElements, mir.OpInitializedLength, mir.OpBoundsCheck, mir.OpLoadElement} {
		if countOps(g, op) != 1 {
			t.Fatalf("want exactly one %s:\n%s", op, g)
		}
	}
}

func TestStoreEmitsGuardChain(t *testing.T) {
	g := mustBuild(t, "function f(a, i, v) { a[i] = v; }", "f",
		value.Array, value.Number, value.Number)
	if countOps(g, mir.OpStoreElement) != 1 || countOps(g, mir.OpBoundsCheck) != 1 {
		t.Fatalf("store chain missing:\n%s", g)
	}
}

func TestLoopBuildsPhi(t *testing.T) {
	g := mustBuild(t, `
function f(n) {
  var s = 0;
  for (var i = 0; i < n; i++) { s = s + i; }
  return s;
}`, "f", value.Number)
	if countOps(g, mir.OpPhi) < 2 {
		t.Fatalf("want phis for s and i:\n%s", g)
	}
	// The loop must be detected.
	depth := 0
	for _, b := range g.Blocks {
		if b.LoopDepth > depth {
			depth = b.LoopDepth
		}
	}
	if depth != 1 {
		t.Fatalf("max loop depth = %d, want 1:\n%s", depth, g)
	}
}

// TestReadAfterLogicalLoopCondition is the shape of progen 1005's f0, f6
// and f7 (DESIGN §6.7), shrunk: with a && in the loop condition, the read
// of x after the loop once returned a φ removed as trivial while the read
// was still resolving, and the closing verifier rejected the graph ("uses
// dead operand"). Neither local is assigned in the loop, so no φ survives:
// the && merges s with itself.
func TestReadAfterLogicalLoopCondition(t *testing.T) {
	g := mustBuild(t, `
function f(x, s) {
  while (s && s) {
  }
  return x;
}`, "f", value.Number, value.Number)
	for _, b := range g.Blocks {
		for _, in := range b.Instrs {
			if in.Op == mir.OpReturn && in.Operands[0].Op != mir.OpUnbox {
				t.Fatalf("return reads %s, want the unboxed parameter:\n%s", in.Operands[0], g)
			}
		}
	}
	if n := countOps(g, mir.OpPhi); n != 0 {
		t.Fatalf("want no phi, got %d:\n%s", n, g)
	}
}

// TestHeaderPhiOnlyForAssignedLocals: a loop header gets a φ for a local
// the loop assigns, even in a nested expression, and none for one it only
// reads; a local assigned to itself leaves no φ either.
func TestHeaderPhiOnlyForAssignedLocals(t *testing.T) {
	g := mustBuild(t, `
function f(n, k) {
  var s = 0;
  var i = 0;
  while ((i = i + 1) < n) { s = s + k; k = k; }
  return s;
}`, "f", value.Number, value.Number)
	if n := countOps(g, mir.OpPhi); n != 2 {
		t.Fatalf("want phis for s and i only, got %d:\n%s", n, g)
	}
}

func TestNestedLoopDepth(t *testing.T) {
	g := mustBuild(t, `
function f(n) {
  var s = 0;
  for (var i = 0; i < n; i++) {
    for (var j = 0; j < n; j++) { s++; }
  }
  return s;
}`, "f", value.Number)
	depth := 0
	for _, b := range g.Blocks {
		if b.LoopDepth > depth {
			depth = b.LoopDepth
		}
	}
	if depth != 2 {
		t.Fatalf("max loop depth = %d, want 2", depth)
	}
}

func TestIfPhi(t *testing.T) {
	g := mustBuild(t, `
function f(c) {
  var x = 1;
  if (c) { x = 2; } else { x = 3; }
  return x;
}`, "f", value.Number)
	if countOps(g, mir.OpPhi) != 1 {
		t.Fatalf("want one phi:\n%s", g)
	}
	if countOps(g, mir.OpTest) != 1 {
		t.Fatalf("want one test:\n%s", g)
	}
}

func TestNoPhiWhenUnchanged(t *testing.T) {
	g := mustBuild(t, `
function f(c) {
  var x = 1;
  if (c) { }
  return x;
}`, "f", value.Number)
	if n := countOps(g, mir.OpPhi); n != 0 {
		t.Fatalf("trivial phi not removed (%d phis):\n%s", n, g)
	}
}

func TestGlobalAccess(t *testing.T) {
	g := mustBuild(t, `
var state = 0;
function f(x) { state = state + x; return state; }`, "f", value.Number)
	if countOps(g, mir.OpLoadGlobal) < 1 || countOps(g, mir.OpStoreGlobal) != 1 {
		t.Fatalf("global ops missing:\n%s", g)
	}
	if countOps(g, mir.OpGuardType) < 1 {
		t.Fatalf("global loads must be guarded:\n%s", g)
	}
}

func TestCalls(t *testing.T) {
	g := mustBuild(t, `
function g(x) { return x + 1; }
function f(x) { return g(x) * 2; }`, "f", value.Number)
	if countOps(g, mir.OpCall) != 1 {
		t.Fatalf("call missing:\n%s", g)
	}
}

func TestMathFuncs(t *testing.T) {
	g := mustBuild(t, "function f(x) { return Math.sqrt(x) + Math.pow(x, 2); }", "f", value.Number)
	if countOps(g, mir.OpMathFunc) != 2 {
		t.Fatalf("mathfunc count:\n%s", g)
	}
}

func TestSetLengthAndPush(t *testing.T) {
	g := mustBuild(t, "function f(a, n) { a.length = n; a.push(n); return a.pop(); }", "f",
		value.Array, value.Number)
	if countOps(g, mir.OpSetLength) != 1 || countOps(g, mir.OpArrayPush) != 1 || countOps(g, mir.OpArrayPop) != 1 {
		t.Fatalf("array mutation ops missing:\n%s", g)
	}
}

func TestLogicalAndConditional(t *testing.T) {
	g := mustBuild(t, "function f(a, b) { return (a && b) + (a < b ? a : b); }", "f",
		value.Number, value.Number)
	if countOps(g, mir.OpPhi) != 2 {
		t.Fatalf("want 2 phis (&& and ?:):\n%s", g)
	}
}

func TestBreakContinue(t *testing.T) {
	g := mustBuild(t, `
function f(n) {
  var s = 0;
  for (var i = 0; i < n; i++) {
    if (i == 3) { continue; }
    if (i == 7) { break; }
    s += i;
  }
  return s;
}`, "f", value.Number)
	if errs := g.Verify(); len(errs) > 0 {
		t.Fatalf("invalid: %v", errs)
	}
}

func TestDoWhile(t *testing.T) {
	g := mustBuild(t, `
function f(n) {
  var s = 0;
  do { s += n; n--; } while (n > 0);
  return s;
}`, "f", value.Number)
	depth := 0
	for _, b := range g.Blocks {
		if b.LoopDepth > depth {
			depth = b.LoopDepth
		}
	}
	if depth != 1 {
		t.Fatalf("do-while loop not detected:\n%s", g)
	}
}

func TestUnsupportedConstructs(t *testing.T) {
	num := []value.Type{value.Number}
	xa := []value.Type{value.Number, value.Array} // f(x, a): x a number, a an array
	tests := []struct {
		src   string
		types []value.Type
	}{
		{`function f(x) { return "s" + x; }`, num},
		{`function f(x) { print(x); }`, num},
		{`function f(x) { return typeof x; }`, num},
		{`function f(x) { return x; }`, []value.Type{value.String}},
		{`function f(x) { return x; }`, []value.Type{value.Undefined}},
		{`function f(x) { var y; if (x) { y = 1; } else { y = [1]; } return y; }`, num},
		// A Boolean is a number to compares and branches, but MIR's
		// arithmetic consumes doubles only.
		{`function f(x) { return (x < 1) + 1; }`, num},
		{`function f(x) { var t = true; return t * 2; }`, num},
		{`function f(x) { return -(x < 1); }`, num},
		{`function f(x) { var t = x < 1; t++; return t; }`, num},
		// One row per operand rule of mir's type table.
		{`function f(x, a) { return a + 1; }`, xa},
		{`function f(x, a) { return a < 1; }`, xa},
		{`function f(x, a) { if (a) { return 1; } return 0; }`, xa},
		{`function f(x, a) { return !a; }`, xa},
		{`function f(x, a) { var b = new Array(a); return 0; }`, xa},
		{`function f(x, a) { return x[0]; }`, xa},
		{`function f(x, a) { return a[a]; }`, xa},
		{`function f(x, a) { a[0] = a; return 0; }`, xa},
		{`function f(x, a) { return x.length; }`, xa},
		{`function f(x, a) { x.length = 1; return 0; }`, xa},
		{`function f(x, a) { a.length = a; return 0; }`, xa},
		{`function f(x, a) { x.push(1); return 0; }`, xa},
		{`function f(x, a) { a.push(a); return 0; }`, xa},
		{`function f(x, a) { return x.pop(); }`, xa},
		{`function f(x, a) { return __addrof(x); }`, xa},
		{`function f(x, a) { return Math.abs(a); }`, xa},
	}
	for _, tt := range tests {
		_, err := buildFn(t, tt.src, "f", tt.types...)
		if !errors.Is(err, ErrUnsupported) {
			t.Errorf("%q: got %v, want ErrUnsupported", tt.src, err)
		}
	}
}

func TestUninitializedVarReadsNaN(t *testing.T) {
	g := mustBuild(t, "function f() { var s; return s; }", "f")
	found := false
	for _, b := range g.Blocks {
		for _, in := range b.Instrs {
			if in.Op == mir.OpConstant && in.Num != in.Num { // NaN
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("uninitialized read should produce NaN constant:\n%s", g)
	}
}

func TestRenumberProducesDenseIDs(t *testing.T) {
	g := mustBuild(t, `
function f(n) {
  var s = 0;
  for (var i = 0; i < n; i++) { s += i; }
  return s;
}`, "f", value.Number)
	g.Renumber()
	seen := map[int]bool{}
	max := -1
	for _, b := range g.Blocks {
		for _, in := range b.Instrs {
			if seen[in.ID] {
				t.Fatalf("duplicate ID %d", in.ID)
			}
			seen[in.ID] = true
			if in.ID > max {
				max = in.ID
			}
		}
	}
	if len(seen) != max+1 {
		t.Fatalf("IDs not dense: %d ids, max %d", len(seen), max)
	}
}

func TestSnapshotFormat(t *testing.T) {
	g := mustBuild(t, "function f(a, i) { return a[i]; }", "f",
		value.Array, value.Number)
	snap := g.Snap()
	if snap.FuncName != "f" || len(snap.Instrs) == 0 {
		t.Fatalf("bad snapshot: %+v", snap)
	}
	var hasCheck bool
	for _, si := range snap.Instrs {
		if si.Opcode == "boundscheck" {
			hasCheck = true
			if len(si.Operands) != 2 {
				t.Fatalf("boundscheck operands = %v", si.Operands)
			}
		}
	}
	if !hasCheck {
		t.Fatal("snapshot missing boundscheck")
	}
}

func TestDominators(t *testing.T) {
	g := mustBuild(t, `
function f(c) {
  var x = 0;
  if (c) { x = 1; } else { x = 2; }
  return x;
}`, "f", value.Number)
	entry := g.Entry()
	for _, b := range g.Blocks {
		if !entry.Dominates(b) {
			t.Errorf("entry must dominate block%d", b.ID)
		}
	}
	// The join block is not dominated by either branch arm.
	rpo := g.ReversePostorder()
	join := rpo[len(rpo)-1]
	for _, p := range join.Preds {
		if p.Dominates(join) && p != entry {
			t.Errorf("branch arm block%d must not dominate join", p.ID)
		}
	}
}

func TestGraphStringDump(t *testing.T) {
	g := mustBuild(t, "function f(a, i) { return a[i]; }", "f",
		value.Array, value.Number)
	dump := g.String()
	for _, want := range []string{"boundscheck", "initializedlength", "unbox", "loadelement"} {
		if !strings.Contains(dump, want) {
			t.Errorf("dump missing %q:\n%s", want, dump)
		}
	}
}
