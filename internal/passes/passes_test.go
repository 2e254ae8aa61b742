package passes

import (
	"reflect"
	"strings"
	"testing"

	"github.com/jitbull/jitbull/internal/ast"
	"github.com/jitbull/jitbull/internal/compiler"
	"github.com/jitbull/jitbull/internal/faults"
	"github.com/jitbull/jitbull/internal/mir"
	"github.com/jitbull/jitbull/internal/mirbuild"
	"github.com/jitbull/jitbull/internal/obs"
	"github.com/jitbull/jitbull/internal/parser"
	"github.com/jitbull/jitbull/internal/value"
)

// build constructs MIR for function name in src. Param types are inferred
// from the parameter names: names starting with "a" (arr/a/b/...) of the
// explicit arrays list are Array, everything else Number.
func build(t *testing.T, src, name string, arrays ...string) *mir.Graph {
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
	isArray := map[string]bool{}
	for _, a := range arrays {
		isArray[a] = true
	}
	types := make([]value.Type, len(fd.Params))
	for i, p := range fd.Params {
		if isArray[p] {
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
		t.Fatalf("mirbuild: %v", err)
	}
	return g
}

func runPipeline(t *testing.T, g *mir.Graph, bugs BugSet, disabled map[string]bool) {
	t.Helper()
	if err := Run(g, bugs, disabled, nil); err != nil {
		t.Fatalf("pipeline: %v", err)
	}
}

func count(g *mir.Graph, op mir.Op) int {
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

func TestPipelineNamesAndMandatory(t *testing.T) {
	names := PassNames()
	if len(names) != 23 {
		t.Fatalf("pipeline has %d passes, want 23: %v", len(names), names)
	}
	mandatory := []string{"SplitCriticalEdges", "PhiAnalysis", "ApplyTypes", "AliasAnalysis"}
	for _, m := range mandatory {
		if Disableable(m) {
			t.Errorf("%s must be mandatory", m)
		}
	}
	for _, d := range []string{"GVN", "LICM", "RangeAnalysis", "BoundsCheckElimination", "FoldTests", "Sink"} {
		if !Disableable(d) {
			t.Errorf("%s must be disableable", d)
		}
	}
}

func TestDisablingMandatoryPassFails(t *testing.T) {
	g := build(t, "function f(x) { return x + 1; }", "f")
	err := Run(g, nil, map[string]bool{"AliasAnalysis": true}, nil)
	if err == nil || !strings.Contains(err.Error(), "mandatory") {
		t.Fatalf("want mandatory-pass error, got %v", err)
	}
}

func TestGVNDedupsRedundantLoads(t *testing.T) {
	g := build(t, "function f(a, i) { return a[i] + a[i]; }", "f", "a")
	runPipeline(t, g, nil, nil)
	if n := count(g, mir.OpInitializedLength); n != 1 {
		t.Errorf("initializedlength count = %d, want 1\n%s", n, g)
	}
	if n := count(g, mir.OpLoadElement); n != 1 {
		t.Errorf("loadelement count = %d, want 1\n%s", n, g)
	}
	if n := count(g, mir.OpBoundsCheck); n != 1 {
		t.Errorf("boundscheck count = %d, want 1\n%s", n, g)
	}
}

func TestGVNRespectsSetLengthClobber(t *testing.T) {
	g := build(t, "function f(a, i) { var x = a[i]; a.length = 4; return x + a[i]; }", "f", "a")
	runPipeline(t, g, nil, nil)
	if n := count(g, mir.OpInitializedLength); n < 2 {
		t.Errorf("lengths merged across setlength: count = %d\n%s", n, g)
	}
	if n := count(g, mir.OpBoundsCheck); n != 2 {
		t.Errorf("boundscheck count = %d, want 2\n%s", n, g)
	}
}

func TestGVNRespectsCallClobber(t *testing.T) {
	src := `
function g(a) { a.length = 4; }
function f(a, i) { var x = a[i]; g(a); return x + a[i]; }`
	g := build(t, src, "f", "a")
	runPipeline(t, g, nil, nil)
	if n := count(g, mir.OpInitializedLength); n < 2 {
		t.Errorf("lengths merged across call: count = %d\n%s", n, g)
	}
}

func TestGVNBugMergesLengthsAcrossObjects(t *testing.T) {
	src := "function f(a, b, i, v) { var t = b[i]; a[i] = v; return t; }"
	sound := build(t, src, "f", "a", "b")
	runPipeline(t, sound, nil, nil)
	if n := count(sound, mir.OpBoundsCheck); n != 2 {
		t.Fatalf("sound pipeline: boundscheck = %d, want 2\n%s", n, sound)
	}
	buggy := build(t, src, "f", "a", "b")
	runPipeline(t, buggy, BugSet{CVE201717026: true}, nil)
	if n := count(buggy, mir.OpBoundsCheck); n != 1 {
		t.Fatalf("CVE-2019-17026 pipeline: boundscheck = %d, want 1 (check merged across arrays)\n%s", n, buggy)
	}
	if n := count(buggy, mir.OpInitializedLength); n != 1 {
		t.Fatalf("CVE-2019-17026 pipeline: initializedlength = %d, want 1\n%s", n, buggy)
	}
	// Disabling GVN neutralizes the bug even when it is active.
	fixed := build(t, src, "f", "a", "b")
	runPipeline(t, fixed, BugSet{CVE201717026: true}, map[string]bool{"GVN": true})
	if n := count(fixed, mir.OpBoundsCheck); n != 2 {
		t.Fatalf("GVN disabled: boundscheck = %d, want 2", n)
	}
}

func TestLICMHoistsInvariantLength(t *testing.T) {
	src := `
function f(a, n) {
  var s = 0;
  for (var i = 0; i < n; i++) { s = s + a[0]; }
  return s;
}`
	g := build(t, src, "f", "a")
	runPipeline(t, g, nil, nil)
	// The length/elements loads must end up outside the loop.
	for _, b := range g.Blocks {
		for _, in := range b.Instrs {
			if in.Dead {
				continue
			}
			if (in.Op == mir.OpInitializedLength || in.Op == mir.OpElements) && b.LoopDepth > 0 {
				t.Errorf("%s left inside loop\n%s", in.Op, g)
			}
		}
	}
}

func TestLICMRespectsCallInLoop(t *testing.T) {
	src := `
function shrink(a) { a.length = 4; }
function f(a, n, v) {
  for (var i = 0; i < n; i++) {
    if (i == 2) { shrink(a); }
    a[i] = v;
  }
}`
	g := build(t, src, "f", "a")
	runPipeline(t, g, nil, nil)
	inLoop := 0
	for _, b := range g.Blocks {
		if b.LoopDepth == 0 {
			continue
		}
		for _, in := range b.Instrs {
			if !in.Dead && in.Op == mir.OpInitializedLength {
				inLoop++
			}
		}
	}
	if inLoop == 0 {
		t.Fatalf("length load hoisted across a clobbering call\n%s", g)
	}
}

func TestLICMBugHoistsAcrossCall(t *testing.T) {
	src := `
function shrink(a) { a.length = 4; }
function f(a, n, v) {
  for (var i = 0; i < n; i++) {
    if (i == 2) { shrink(a); }
    a[i] = v;
  }
}`
	g := build(t, src, "f", "a")
	runPipeline(t, g, BugSet{CVE202026952: true}, nil)
	for _, b := range g.Blocks {
		if b.LoopDepth == 0 {
			continue
		}
		for _, in := range b.Instrs {
			if !in.Dead && in.Op == mir.OpInitializedLength {
				t.Fatalf("CVE-2020-26952: length load not hoisted\n%s", g)
			}
		}
	}
}

func TestInductionBCERemovesCheck(t *testing.T) {
	src := `
function f(a) {
  var s = 0;
  for (var i = 0; i < a.length; i++) { s = s + a[i]; }
  return s;
}`
	g := build(t, src, "f", "a")
	runPipeline(t, g, nil, nil)
	if n := count(g, mir.OpBoundsCheck); n != 0 {
		t.Fatalf("induction-proved check not removed (%d left)\n%s", n, g)
	}
}

func TestBCEKeepsCheckOnLeLoop(t *testing.T) {
	src := `
function f(a) {
  var s = 0;
  for (var i = 0; i <= a.length; i++) { s = s + a[i]; }
  return s;
}`
	g := build(t, src, "f", "a")
	runPipeline(t, g, nil, nil)
	if n := count(g, mir.OpBoundsCheck); n != 1 {
		t.Fatalf("sound BCE must keep the check on <= loop (%d left)\n%s", n, g)
	}
	buggy := build(t, src, "f", "a")
	runPipeline(t, buggy, BugSet{CVE20199813: true}, nil)
	if n := count(buggy, mir.OpBoundsCheck); n != 0 {
		t.Fatalf("CVE-2019-9813: off-by-one check not removed (%d left)\n%s", n, buggy)
	}
}

func TestBCEDominatingTest(t *testing.T) {
	src := `
function f(a, i, v) {
  if (i >= 0) {
    if (i < a.length) { a[i] = v; }
  }
}`
	g := build(t, src, "f", "a")
	runPipeline(t, g, nil, nil)
	if n := count(g, mir.OpBoundsCheck); n != 0 {
		t.Fatalf("branch-guarded check not removed (%d left)\n%s", n, g)
	}
}

func TestFoldTestsStaleLengthBug(t *testing.T) {
	// The second test nests inside the first one's true arm, so its
	// outcome is pinned by the (stale) first test when shape-matching.
	src := `
function shrink(a) { a.length = 4; }
function f(a, i, v) {
  if (i >= 0) {
    if (i < a.length) {
      a[i] = v;
      shrink(a);
      if (i < a.length) { a[i] = v; }
    }
  }
}`
	sound := build(t, src, "f", "a")
	runPipeline(t, sound, nil, nil)
	// Sound: both bounds checks may go away — each store is guarded by its
	// own branch on a *fresh* length, so safety lives in the branch tests,
	// which must all survive (i>=0, i<len #1, i<len #2).
	if n := count(sound, mir.OpTest); n != 3 {
		t.Fatalf("sound: test count = %d, want 3 (stale test must not fold)\n%s", n, sound)
	}

	buggy := build(t, src, "f", "a")
	runPipeline(t, buggy, BugSet{CVE201911707: true}, nil)
	if n := count(buggy, mir.OpTest); n != 2 {
		t.Fatalf("CVE-2019-11707: test count = %d, want 2 (second branch folded on stale length)\n%s", n, buggy)
	}
	if n := count(buggy, mir.OpBoundsCheck); n != 0 {
		t.Fatalf("CVE-2019-11707: checks left = %d, want 0\n%s", n, buggy)
	}
}

func TestApplyTypesBugRemovesUnbox(t *testing.T) {
	src := "function f(a, b, c) { return a[0] + b[0] + c[0]; }"
	sound := build(t, src, "f", "a", "b", "c")
	runPipeline(t, sound, nil, nil)
	if n := count(sound, mir.OpUnbox); n != 3 {
		t.Fatalf("sound: unbox = %d, want 3\n%s", n, sound)
	}
	buggy := build(t, src, "f", "a", "b", "c")
	runPipeline(t, buggy, BugSet{CVE20199791: true}, nil)
	if n := count(buggy, mir.OpUnbox); n != 0 {
		t.Fatalf("CVE-2019-9791: unbox = %d, want 0\n%s", n, buggy)
	}
}

func TestSinkBugLeaksMagic(t *testing.T) {
	src := `
function f(a, flag, idx) {
  var n = a.length;
  if (flag) { return n; }
  return a[idx];
}`
	sound := build(t, src, "f", "a")
	runPipeline(t, sound, nil, nil)
	if n := count(sound, mir.OpMagic); n != 0 {
		t.Fatalf("sound: magic leaked\n%s", sound)
	}
	buggy := build(t, src, "f", "a")
	runPipeline(t, buggy, BugSet{CVE20199792: true}, nil)
	if n := count(buggy, mir.OpMagic); n == 0 {
		t.Fatalf("CVE-2019-9792: no magic introduced\n%s", buggy)
	}
}

func TestAliasBugStaleLength(t *testing.T) {
	src := "function f(a, i, v) { var t = a[i]; a.length = 4; a[i] = v; return t; }"
	sound := build(t, src, "f", "a")
	runPipeline(t, sound, nil, nil)
	if n := count(sound, mir.OpBoundsCheck); n != 2 {
		t.Fatalf("sound: boundscheck = %d, want 2\n%s", n, sound)
	}
	buggy := build(t, src, "f", "a")
	runPipeline(t, buggy, BugSet{CVE20199795: true}, nil)
	if n := count(buggy, mir.OpBoundsCheck); n != 1 {
		t.Fatalf("CVE-2019-9795: boundscheck = %d, want 1 (stale length reused)\n%s", n, buggy)
	}
}

func TestDCERemovesUnusedArith(t *testing.T) {
	g := build(t, "function f(x) { var unused = x * 3 + 7; return x; }", "f")
	runPipeline(t, g, nil, nil)
	if n := count(g, mir.OpMul); n != 0 {
		t.Errorf("dead mul kept\n%s", g)
	}
}

func TestConstantFolding(t *testing.T) {
	g := build(t, "function f(x) { return x + (2 * 3 + 4); }", "f")
	runPipeline(t, g, nil, nil)
	if n := count(g, mir.OpMul); n != 0 {
		t.Errorf("constant mul not folded\n%s", g)
	}
	found := false
	for _, b := range g.Blocks {
		for _, in := range b.Instrs {
			if in.Op == mir.OpConstant && in.Num == 10 {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("folded constant 10 missing\n%s", g)
	}
}

func TestObserverSeesEveryPass(t *testing.T) {
	g := build(t, "function f(a, i) { return a[i]; }", "f", "a")
	var names []string
	var nonNil int
	err := Run(g, nil, map[string]bool{"Sink": true}, func(i int, name string, before, after *mir.Snapshot) {
		names = append(names, name)
		if before != nil && after != nil {
			nonNil++
		} else if name != "Sink" {
			t.Errorf("pass %s got nil snapshots", name)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 23 {
		t.Fatalf("observer saw %d passes, want 23", len(names))
	}
	if nonNil != 22 {
		t.Fatalf("non-nil snapshot pairs = %d, want 22", nonNil)
	}
}

// TestObserverSeesOnlyWatchedPasses: with a watch set, only watched
// passes are observed and snapshotted, a disabled watched pass still gets
// (nil, nil), and every pair has the contents the unwatched run hands
// over. Consecutive observed states are one pointer exactly when their
// contents are equal, so a snapshot is taken per distinct IR state.
func TestObserverSeesOnlyWatchedPasses(t *testing.T) {
	src := "function f(a, n) { var s = 0; for (var i = 0; i < n; i++) { s += a[i] + a[i]; } return s; }"
	disabled := map[string]bool{"Sink": true}
	type pair struct{ before, after *mir.Snapshot }
	all := map[string]pair{}
	if err := Run(build(t, src, "f", "a"), nil, disabled, func(_ int, name string, before, after *mir.Snapshot) {
		all[name] = pair{before, after}
	}); err != nil {
		t.Fatal(err)
	}

	watch := map[string]bool{"FoldTests": true, "GVN": true, "LICM": true, "Sink": true,
		"ScalarReplacement": true, "EliminateDeadCode": true}
	var names []string
	snaps := map[*mir.Snapshot]bool{}
	var prevAfter *mir.Snapshot
	err := RunWith(build(t, src, "f", "a"), RunOptions{
		Disabled: disabled,
		Watch:    func(pass string) bool { return watch[pass] },
		Observer: func(_ int, name string, before, after *mir.Snapshot) {
			names = append(names, name)
			if name == "Sink" {
				if before != nil || after != nil {
					t.Errorf("disabled watched pass Sink got snapshots")
				}
				return
			}
			if name == "LICM" && before != prevAfter {
				t.Errorf("LICM follows watched GVN: its before must be GVN's after, not a fresh snapshot")
			}
			for _, p := range [][2]*mir.Snapshot{{prevAfter, before}, {before, after}} {
				if same, equal := p[0] == p[1], reflect.DeepEqual(p[0], p[1]); p[0] != nil && same != equal {
					t.Errorf("%s: consecutive states share a pointer: %v, have equal contents: %v", name, same, equal)
				}
			}
			snaps[before], snaps[after], prevAfter = true, true, after
			if want := all[name]; !reflect.DeepEqual(before, want.before) || !reflect.DeepEqual(after, want.after) {
				t.Errorf("%s: snapshot pair differs from the unwatched run's", name)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"FoldTests", "GVN", "LICM", "Sink", "ScalarReplacement", "EliminateDeadCode"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("observed %v, want %v", names, want)
	}
	// Three IR states reach the observer: the graph FoldTests sees (it,
	// and the unwatched passes up to GVN, change nothing), GVN's output,
	// and LICM's output (ScalarReplacement and EliminateDeadCode change
	// nothing). Snapshotting every boundary afresh took 8.
	if len(snaps) != 3 {
		t.Fatalf("%d snapshots taken, want 3", len(snaps))
	}
}

// TestFreshSnapshotIsChargedToDNA: a "before" taken, or compared with the
// last snapshot, after an unwatched pass ran happens outside the pass and
// dna.extract spans, so its time travels on the pass's dna.extract span as
// snap_before_ns, 0 when the before is the previous watched pass's after.
func TestFreshSnapshotIsChargedToDNA(t *testing.T) {
	src := "function f(a, n) { var s = 0; for (var i = 0; i < n; i++) { s += a[i] + a[i]; } return s; }"
	watch := map[string]bool{"FoldTests": true, "GVN": true, "LICM": true, "ScalarReplacement": true}
	ring := obs.NewRing(0)
	err := RunWith(build(t, src, "f", "a"), RunOptions{
		Watch:    func(pass string) bool { return watch[pass] },
		Observer: func(int, string, *mir.Snapshot, *mir.Snapshot) {},
		Faults:   &faults.CompileCtx{Trace: obs.NewTracer(ring)},
	})
	if err != nil {
		t.Fatal(err)
	}
	fresh := map[string]bool{}
	for _, ev := range ring.Events() {
		if ev.Name != "dna.extract" {
			continue
		}
		var pass string
		var ns int64 = -1
		for _, a := range ev.Args[:ev.NArgs] {
			switch a.Key {
			case "pass":
				pass = a.Str
			case "snap_before_ns":
				ns = a.Val
			}
		}
		if ns < 0 {
			t.Fatalf("%s: dna.extract span lacks snap_before_ns", pass)
		}
		fresh[pass] = ns > 0
	}
	want := map[string]bool{"FoldTests": true, "GVN": true, "LICM": false, "ScalarReplacement": true}
	if !reflect.DeepEqual(fresh, want) {
		t.Fatalf("passes whose dna.extract carries a fresh snapshot: %v, want %v", fresh, want)
	}
}

func TestPipelineOutputAlwaysVerifies(t *testing.T) {
	srcs := []struct {
		src    string
		name   string
		arrays []string
	}{
		{"function f(a) { var s = 0; for (var i = 0; i < a.length; i++) { s += a[i]; } return s; }", "f", []string{"a"}},
		{"function f(a, b, i) { if (i >= 0 && i < a.length) { a[i] = b[i % b.length]; } return a[0]; }", "f", []string{"a", "b"}},
		{"function f(n) { var x = 0; do { x += n; n--; } while (n > 0); return x; }", "f", nil},
		{"function f(a, n) { for (var i = 0; i < n; i++) { for (var j = 0; j < n; j++) { a[0] = i * j; } } }", "f", []string{"a"}},
		{"function f(x, y) { return (x < y ? x : y) + (x && y); }", "f", nil},
	}
	bugsets := []BugSet{nil, {CVE201717026: true}, {CVE201911707: true}, {CVE20199791: true},
		{CVE20199792: true}, {CVE20199795: true}, {CVE20199813: true}, {CVE202026952: true},
		{CVE201717026: true, CVE201911707: true, CVE20199813: true}}
	for _, s := range srcs {
		for _, bugs := range bugsets {
			g := build(t, s.src, s.name, s.arrays...)
			if err := Run(g, bugs, nil, nil); err != nil {
				t.Errorf("src %q bugs %v: %v", s.src, bugs, err)
			}
		}
	}
}

func TestDisabledPassesAreSkipped(t *testing.T) {
	src := "function f(a, i) { return a[i] + a[i]; }"
	g := build(t, src, "f", "a")
	disabled := map[string]bool{"GVN": true, "EliminateDeadCode": true, "LICM": true}
	runPipeline(t, g, nil, disabled)
	if n := count(g, mir.OpInitializedLength); n != 2 {
		t.Fatalf("GVN ran although disabled (il = %d)", n)
	}
}
