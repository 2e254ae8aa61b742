package lir

import (
	"strings"
	"testing"

	"github.com/jitbull/jitbull/internal/ast"
	"github.com/jitbull/jitbull/internal/compiler"
	"github.com/jitbull/jitbull/internal/mir"
	"github.com/jitbull/jitbull/internal/mirbuild"
	"github.com/jitbull/jitbull/internal/parser"
	"github.com/jitbull/jitbull/internal/passes"
	"github.com/jitbull/jitbull/internal/value"
)

func buildMIR(t *testing.T, src, name string, arrays map[string]bool, optimize bool) *mir.Graph {
	t.Helper()
	prog, err := compiler.Compile(src)
	if err != nil {
		t.Fatal(err)
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
	types := make([]value.Type, len(fd.Params))
	for i, p := range fd.Params {
		if arrays[p] {
			types[i] = value.Array
		} else {
			types[i] = value.Number
		}
	}
	g, err := mirbuild.Build(prog, fd, mirbuild.Options{
		ParamTypes: types,
		GlobalType: func(int) value.Type { return value.Number },
		ReturnType: func(int) value.Type { return value.Number },
	})
	if err != nil {
		t.Fatal(err)
	}
	if optimize {
		if err := passes.Run(g, nil, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestLowerStraightLine(t *testing.T) {
	g := buildMIR(t, "function f(x, y) { return x * y + 1; }", "f", nil, true)
	code, err := Lower(g)
	if err != nil {
		t.Fatal(err)
	}
	if code.NumParams != 2 {
		t.Fatalf("NumParams = %d", code.NumParams)
	}
	var hasMul, hasAdd, hasRet bool
	for _, op := range code.Ops {
		switch op.Kind {
		case KMul:
			hasMul = true
		case KAdd:
			hasAdd = true
		case KRetNum:
			hasRet = true
		}
	}
	if !hasMul || !hasAdd || !hasRet {
		t.Fatalf("missing ops:\n%s", code)
	}
}

func TestLowerLoopHasBackwardJump(t *testing.T) {
	g := buildMIR(t, `
function f(n) {
  var s = 0;
  for (var i = 0; i < n; i++) { s += i; }
  return s;
}`, "f", nil, true)
	code, err := Lower(g)
	if err != nil {
		t.Fatal(err)
	}
	backward := false
	for pc, op := range code.Ops {
		if (op.Kind == KJump || op.Kind == KBranchFalse) && int(op.Target) <= pc {
			backward = true
		}
	}
	if !backward {
		t.Fatalf("loop lowered without a backward edge:\n%s", code)
	}
}

func TestLowerPhiMovesOnEdges(t *testing.T) {
	g := buildMIR(t, `
function f(c) {
  var x = 1;
  if (c) { x = 2; } else { x = 3; }
  return x;
}`, "f", nil, false) // unoptimized keeps the phi
	code, err := Lower(g)
	if err != nil {
		t.Fatal(err)
	}
	moves := 0
	for _, op := range code.Ops {
		if op.Kind == KMove {
			moves++
		}
	}
	if moves < 2 {
		t.Fatalf("expected phi moves on both edges, got %d:\n%s", moves, code)
	}
}

func TestLowerElementAccess(t *testing.T) {
	g := buildMIR(t, "function f(a, i, v) { a[i] = v; return a[i]; }", "f",
		map[string]bool{"a": true}, true)
	code, err := Lower(g)
	if err != nil {
		t.Fatal(err)
	}
	var hasStore, hasLoadOrForward bool
	for _, op := range code.Ops {
		if op.Kind == KStoreElem {
			hasStore = true
		}
		if op.Kind == KLoadElem || op.Kind == KRetNum {
			hasLoadOrForward = true
		}
	}
	if !hasStore || !hasLoadOrForward {
		t.Fatalf("element ops missing:\n%s", code)
	}
}

func TestLowerCallArgLists(t *testing.T) {
	g := buildMIR(t, `
function g2(p, q) { return p + q; }
function f(x) { return g2(x, x + 1); }`, "f", nil, true)
	code, err := Lower(g)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, op := range code.Ops {
		if op.Kind == KCall {
			found = true
			if len(code.ArgLists[op.A]) != 2 {
				t.Fatalf("call args = %d, want 2", len(code.ArgLists[op.A]))
			}
		}
	}
	if !found {
		t.Fatal("no call op")
	}
}

func TestDisassemblyMentionsOps(t *testing.T) {
	g := buildMIR(t, "function f(a, i) { return a[i]; }", "f",
		map[string]bool{"a": true}, true)
	code, err := Lower(g)
	if err != nil {
		t.Fatal(err)
	}
	text := code.String()
	for _, want := range []string{"unbox", "boundscheck", "loadelem", "retnum"} {
		if !strings.Contains(text, want) {
			t.Errorf("disassembly missing %q:\n%s", want, text)
		}
	}
}

func TestJumpTargetsInRange(t *testing.T) {
	srcs := []struct {
		src    string
		arrays map[string]bool
	}{
		{"function f(n) { var s = 0; for (var i = 0; i < n; i++) { if (i % 2 == 0) { s += i; } else { s -= 1; } } return s; }", nil},
		{"function f(a) { var s = 0; for (var i = 0; i < a.length; i++) { s += a[i]; } return s; }", map[string]bool{"a": true}},
		{"function f(x, y) { return (x && y) + (x < y ? 1 : 2); }", nil},
	}
	for _, tt := range srcs {
		g := buildMIR(t, tt.src, "f", tt.arrays, true)
		code, err := Lower(g)
		if err != nil {
			t.Fatal(err)
		}
		for pc, op := range code.Ops {
			if op.Kind == KJump || op.Kind == KBranchFalse {
				if op.Target < 0 || int(op.Target) >= len(code.Ops) {
					t.Fatalf("op %d: target %d out of range [0,%d)", pc, op.Target, len(code.Ops))
				}
			}
		}
	}
}

// TestLowerIsDeterministic: the same source must compile to the same LIR
// every time. A loop header carrying several variables is the sensitive
// shape: the order in which mirbuild completes its pending φs decides
// instruction numbering and so the lowered stream.
func TestLowerIsDeterministic(t *testing.T) {
	src := `function f(n) {
		var a = 0; var b = 1; var c = 2; var d = 3; var e = 4; var i = 0;
		while (i < n) {
			var t = a;
			if (t > c) { a = b + c; b = c + d; } else { c = d + t; d = e + i; }
			e = t + a;
			i = i + 1;
		}
		return a + b + c + d + e;
	}`
	var want string
	for i := 0; i < 20; i++ {
		code, err := Lower(buildMIR(t, src, "f", nil, true))
		if err != nil {
			t.Fatal(err)
		}
		got := code.String()
		if i == 0 {
			want = got
		} else if got != want {
			t.Fatalf("build %d lowered differently:\n%s\nfirst build:\n%s", i, got, want)
		}
	}
}
