package passes

// Per-pass unit tests complementing the pipeline-level tests in
// passes_test.go.

import (
	"math"
	"testing"

	"github.com/jitbull/jitbull/internal/mir"
)

// runOne executes a single pass (plus its analysis prerequisites) on g.
func runOne(t *testing.T, g *mir.Graph, name string, bugs BugSet) {
	t.Helper()
	ctx := &Context{Bugs: bugs, Ranges: map[*mir.Instr]Range{}}
	for _, p := range Pipeline() {
		switch p.Name() {
		case "AliasAnalysis", "RangeAnalysis", name:
			if err := p.Run(g, ctx); err != nil {
				t.Fatalf("%s: %v", p.Name(), err)
			}
		}
		if p.Name() == name {
			return
		}
	}
	t.Fatalf("pass %q not in pipeline", name)
}

func TestPruneUnusedBranchesFoldsConstants(t *testing.T) {
	g := build(t, "function f(x) { if (1) { return x; } return 0; }", "f")
	runOne(t, g, "PruneUnusedBranches", nil)
	if n := count(g, mir.OpTest); n != 0 {
		t.Fatalf("constant branch survived:\n%s", g)
	}
}

func TestFoldTestsDominatingSameSSA(t *testing.T) {
	// The same SSA condition tested twice: the inner test folds (soundly).
	g := build(t, `
function f(x) {
  var c = x < 10;
  if (c) {
    if (c) { return 1; }
    return 2;
  }
  return 3;
}`, "f")
	runOne(t, g, "FoldTests", nil)
	if n := count(g, mir.OpTest); n != 1 {
		t.Fatalf("tests = %d, want 1 (inner fold is sound: same SSA value)\n%s", n, g)
	}
}

func TestEliminateEmptyBlocksSplices(t *testing.T) {
	g := build(t, "function f(c) { var x = 0; if (c) { x = 1; } else { x = 2; } return x; }", "f")
	if err := Run(g, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	// After the full pipeline, no goto-only single-pred/single-succ blocks
	// should remain unless they separate critical edges.
	for _, b := range g.ReversePostorder() {
		if len(b.Instrs) == 1 && b.Instrs[0].Op == mir.OpGoto &&
			len(b.Preds) == 1 && len(b.Succs) == 1 {
			p, s := b.Preds[0], b.Succs[0]
			if !(len(p.Succs) > 1 && len(s.Preds) > 1) {
				t.Fatalf("splicable empty block%d survived\n%s", b.ID, g)
			}
		}
	}
}

func TestSplitCriticalEdges(t *testing.T) {
	g := build(t, `
function f(c, n) {
  var x = 0;
  for (var i = 0; i < n; i++) {
    if (c < i) { x += 1; }
  }
  return x;
}`, "f")
	runOne(t, g, "SplitCriticalEdges", nil)
	for _, b := range g.ReversePostorder() {
		if len(b.Succs) < 2 {
			continue
		}
		for _, s := range b.Succs {
			if len(s.Preds) >= 2 {
				t.Fatalf("critical edge block%d->block%d survived\n%s", b.ID, s.ID, g)
			}
		}
	}
}

func TestReorderHoistsConstants(t *testing.T) {
	g := build(t, "function f(x) { var a = x + 1; var b = a * 2; return b + 3; }", "f")
	runOne(t, g, "ReorderInstructions", nil)
	entry := g.Entry()
	sawNonConst := false
	for _, in := range entry.Instrs {
		if in.Op == mir.OpPhi {
			continue
		}
		if in.Op == mir.OpConstant {
			if sawNonConst {
				t.Fatalf("constant after non-constant:\n%s", g)
			}
		} else {
			sawNonConst = true
		}
	}
}

func TestKeepAliveAddedPerElementsAccess(t *testing.T) {
	g := build(t, "function f(a, b) { return a[0] + b[1]; }", "f", "a", "b")
	runOne(t, g, "AddKeepAliveInstructions", nil)
	if n := count(g, mir.OpKeepAlive); n != 2 {
		t.Fatalf("keepalive count = %d, want 2\n%s", n, g)
	}
}

func TestScalarReplacementForwardsStores(t *testing.T) {
	g := build(t, "function f(a, i, v) { a[i] = v; return a[i]; }", "f", "a")
	if err := Run(g, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	if n := count(g, mir.OpLoadElement); n != 0 {
		t.Fatalf("store-to-load not forwarded (%d loads left)\n%s", n, g)
	}
}

func TestScalarReplacementRespectsClobbers(t *testing.T) {
	src := `
function g2(a) { a[0] = 9; }
function f(a, i, v) { a[i] = v; g2(a); return a[i]; }`
	g := build(t, src, "f", "a")
	if err := Run(g, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	if n := count(g, mir.OpLoadElement); n != 1 {
		t.Fatalf("load forwarded across a call (%d loads)\n%s", n, g)
	}
}

func TestEffectiveAddressFoldsDisplacement(t *testing.T) {
	g := build(t, "function f(a, i) { return a[i + 2]; }", "f", "a")
	if err := Run(g, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	found := false
	forEachLive(g, func(_ *mir.Block, in *mir.Instr) {
		if in.Op == mir.OpLoadElement && in.Aux == 2 {
			found = true
		}
	})
	if !found {
		t.Fatalf("displacement not folded\n%s", g)
	}
}

func TestBitopsRemovesOrZeroOnIntegralValue(t *testing.T) {
	// (x & 255) is integral and int32-ranged; the following |0 is an
	// identity and must go away.
	g := build(t, "function f(x) { return ((x & 255) | 0) + 1; }", "f")
	if err := Run(g, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	if n := count(g, mir.OpBitOr); n != 0 {
		t.Fatalf("identity |0 kept\n%s", g)
	}
}

func TestBitopsKeepsOrZeroOnUnknownValue(t *testing.T) {
	// x|0 performs ToInt32 on an arbitrary double: removing it would be
	// unsound, so it must stay.
	g := build(t, "function f(x) { return (x | 0) + 1; }", "f")
	if err := Run(g, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	if n := count(g, mir.OpBitOr); n != 1 {
		t.Fatalf("|0 on unknown value removed (unsound)\n%s", g)
	}
}

func TestSinkMovesComputationIntoBranch(t *testing.T) {
	g := build(t, `
function f(x, c) {
  var heavy = x * x + x;
  if (c) { return heavy; }
  return 0;
}`, "f")
	g.BuildDominators()
	if err := (sinkPass{}).Run(g, &Context{}); err != nil {
		t.Fatal(err)
	}
	// The mul must have moved out of the entry block.
	for _, in := range g.Entry().Instrs {
		if in.Op == mir.OpMul {
			t.Fatalf("mul not sunk into its use branch\n%s", g)
		}
	}
}

func TestSinkNeverMovesLoads(t *testing.T) {
	g := build(t, `
function f(a, c) {
  var v = a[0];
  if (c) { return v; }
  return 0;
}`, "f", "a")
	g.BuildDominators()
	ctx := &Context{}
	if err := (aliasAnalysisPass{}).Run(g, ctx); err != nil {
		t.Fatal(err)
	}
	entryLoads := count(g, mir.OpLoadElement)
	if err := (sinkPass{}).Run(g, ctx); err != nil {
		t.Fatal(err)
	}
	inEntry := 0
	for _, in := range g.Entry().Instrs {
		if in.Op == mir.OpLoadElement {
			inEntry++
		}
	}
	if entryLoads != 1 || inEntry != 1 {
		t.Fatalf("sound sink moved a memory load\n%s", g)
	}
}

func TestGVNKeepsGuardsWithDifferentIndexes(t *testing.T) {
	g := build(t, "function f(a, i, j) { return a[i] + a[j]; }", "f", "a")
	runPipeline(t, g, nil, nil)
	if n := count(g, mir.OpBoundsCheck); n != 2 {
		t.Fatalf("checks with different indexes merged (%d left)\n%s", n, g)
	}
}

func TestRangeAnalysisInductionRanges(t *testing.T) {
	g := build(t, `
function f(n) {
  var s = 0;
  for (var i = 3; i < n; i++) { s += i; }
  return s;
}`, "f")
	ctx := &Context{Bugs: nil, Ranges: map[*mir.Instr]Range{}}
	g.BuildDominators()
	if err := (rangeAnalysisPass{}).Run(g, ctx); err != nil {
		t.Fatal(err)
	}
	found := false
	forEachLive(g, func(_ *mir.Block, in *mir.Instr) {
		if in.Op == mir.OpPhi {
			if r, ok := ctx.Ranges[in]; ok && r.Lo == 3 && r.Sym != nil && r.SymOff == -1 {
				found = true
			}
		}
	})
	if !found {
		t.Fatalf("induction range [3, n-1] not computed\n%s", g)
	}
}

func TestAliasAnalysisDependencies(t *testing.T) {
	g := build(t, "function f(a, i, v) { var x = a[i]; a[i] = v; return x + a[i]; }", "f", "a")
	ctx := &Context{Bugs: nil, Ranges: map[*mir.Instr]Range{}}
	if err := (aliasAnalysisPass{}).Run(g, ctx); err != nil {
		t.Fatal(err)
	}
	var loads []*mir.Instr
	var store *mir.Instr
	forEachLive(g, func(_ *mir.Block, in *mir.Instr) {
		switch in.Op {
		case mir.OpLoadElement:
			loads = append(loads, in)
		case mir.OpStoreElement:
			store = in
		}
	})
	if len(loads) != 2 || store == nil {
		t.Fatalf("unexpected shape: %d loads", len(loads))
	}
	if loads[0].Dependency != nil {
		t.Fatalf("first load's dep = %v, want nil (no prior store)", loads[0].Dependency)
	}
	if loads[1].Dependency != store {
		t.Fatalf("second load's dep = %v, want the store", loads[1].Dependency)
	}
}

func TestDCEKeepsGuardsAndEffects(t *testing.T) {
	g := build(t, "function f(a, i, v) { var unused = a[i]; a[0] = v; return v; }", "f", "a")
	runOne(t, g, "EliminateDeadCode", nil)
	if n := count(g, mir.OpBoundsCheck); n < 2 {
		t.Fatalf("DCE removed a guard (%d checks left)\n%s", n, g)
	}
	if n := count(g, mir.OpStoreElement); n != 1 {
		t.Fatalf("DCE removed an effectful store\n%s", g)
	}
	// But the unused load itself dies.
	if n := count(g, mir.OpLoadElement); n != 0 {
		t.Fatalf("unused load kept\n%s", g)
	}
}

// TestGVNKeyCongruence: two instructions share a key exactly when GVN may
// merge them — every NaN constant is one value, -0 is not 0, operands and
// their order count, past four of them too — and the CVE-2019-17026 /
// CVE-2019-9810 bug keys initializedlength without its elements operand.
func TestGVNKeyCongruence(t *testing.T) {
	g := mir.NewGraph("k", 0, 0)
	cst := func(v float64) *mir.Instr {
		in := g.NewInstr(mir.OpConstant, mir.TypeDouble)
		in.Num = v
		return in
	}
	a, b, c, d, e := cst(1), cst(2), cst(3), cst(4), cst(5)
	length := func(elems *mir.Instr) *mir.Instr {
		return g.NewInstr(mir.OpInitializedLength, mir.TypeDouble, elems)
	}
	add := func(ops ...*mir.Instr) *mir.Instr { return g.NewInstr(mir.OpAdd, mir.TypeDouble, ops...) }
	for _, tc := range []struct {
		name string
		x, y *mir.Instr
		bug  bool
		same bool
	}{
		{"NaN payloads", cst(math.NaN()), cst(math.Float64frombits(0x7ff8000000000abc)), false, true},
		{"negative NaN", cst(math.NaN()), cst(math.Copysign(math.NaN(), -1)), false, true},
		{"-0 and 0", cst(0), cst(math.Copysign(0, -1)), false, false},
		{"equal constants", cst(2.5), cst(2.5), false, true},
		{"constants apart in the high word", cst(1), cst(2), false, false},
		{"constants apart in the low word", cst(1), cst(math.Float64frombits(0x3ff0000000000001)), false, false},
		{"operand order", add(a, b), add(b, a), false, false},
		{"same operands", add(a, b), add(a, b), false, true},
		{"five operands", add(a, b, c, d, e), add(a, b, c, d, e), false, true},
		{"fifth operand differs", add(a, b, c, d, e), add(a, b, c, d, a), false, false},
		{"four vs five operands", add(a, b, c, d), add(a, b, c, d, e), false, false},
		{"lengths of two arrays", length(a), length(b), false, false},
		{"lengths of two arrays, bug", length(a), length(b), true, true},
	} {
		if got := keyOf(tc.x, tc.bug) == keyOf(tc.y, tc.bug); got != tc.same {
			t.Errorf("%s: same key = %v, want %v", tc.name, got, tc.same)
		}
	}
}
