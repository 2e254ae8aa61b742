package difftest

import (
	"fmt"
	"strings"
	"testing"

	"github.com/jitbull/jitbull/internal/octane"
	"github.com/jitbull/jitbull/internal/passes"
	"github.com/jitbull/jitbull/internal/progen"
)

// matrixOptions is the full oracle matrix used by the heavyweight tests.
func matrixOptions() Options {
	return Options{JITBULL: true, Variants: true, CheckIR: true}
}

// TestMatrix is the core acceptance oracle: 200+ generated programs across
// the full configuration matrix with zero divergences.
func TestMatrix(t *testing.T) {
	configs := Matrix(matrixOptions())
	if len(configs) < 5 {
		t.Fatalf("matrix has %d configurations, want >= 5", len(configs))
	}
	const programs = 210
	for seed := int64(0); seed < programs; seed++ {
		src := progen.Generate(seed, progen.Options{})
		_, divs := Diff(src, configs)
		if len(divs) > 0 {
			// The first failure carries the whole program; stop the flood.
			t.Fatalf("%s\nprogram:\n%s", Report(fmt.Sprintf("seed %d", seed), divs), src)
		}
	}
}

// TestMatrixExamples cross-checks the hand-written example corpus.
func TestMatrixExamples(t *testing.T) {
	configs := Matrix(matrixOptions())
	for name, src := range ExamplePrograms() {
		_, divs := Diff(src, configs)
		if len(divs) > 0 {
			t.Errorf("%s", Report(name, divs))
		}
	}
}

// TestMatrixOctane cross-checks the Octane-analogue benchmark corpus,
// including the micro-benchmarks.
func TestMatrixOctane(t *testing.T) {
	configs := Matrix(Options{CheckIR: true, JITBULL: true})
	for _, b := range octane.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			_, divs := Diff(b.Source(1), configs)
			if len(divs) > 0 {
				t.Errorf("%s", Report(b.Name, divs))
			}
		})
	}
}

// TestCheckIRCorpora asserts the strengthened verifier holds after every
// pass of every compilation across the full corpus: octane + examples +
// generated programs. Any IRFault names the offending pass.
func TestCheckIRCorpora(t *testing.T) {
	cfg := Matrix(Options{CheckIR: true})[3] // the jit+checkir cell
	if cfg.Name != "jit+checkir" {
		t.Fatalf("expected jit+checkir cell, got %s", cfg.Name)
	}
	check := func(label, src string) {
		t.Helper()
		obs := Observe(src, cfg)
		if obs.SetupErr != "" {
			t.Fatalf("%s: setup: %s", label, obs.SetupErr)
		}
		for _, fault := range obs.IRFaults {
			t.Errorf("%s: %s", label, fault)
		}
		if obs.Stats.NrJIT == 0 {
			t.Errorf("%s: no function was Ion-compiled; CheckIR coverage is vacuous", label)
		}
	}
	for _, b := range octane.All() {
		check("octane/"+b.Name, b.Source(1))
	}
	for name, src := range ExamplePrograms() {
		check("examples/"+name, src)
	}
	for seed := int64(0); seed < 60; seed++ {
		check(fmt.Sprintf("progen/%d", seed), progen.Generate(seed, progen.Options{}))
	}
}

// TestSeededDivergenceDetected proves the oracle actually fires: an engine
// build with an injected CVE must diverge from the interpreter on the CVE's
// trigger pattern (crash, hijack, or wrong value).
func TestSeededDivergenceDetected(t *testing.T) {
	src := divergentProgram()
	_, divs := Diff(src, buggyConfigs())
	if len(divs) == 0 {
		t.Fatal("injected CVE-2019-9813 produced no divergence; the oracle is blind")
	}
}

// TestSeededTwinDivergenceDetected proves the twin comparison fires, and
// only where a twin is named: identical observations except for Steps give
// exactly one steps divergence of the cell against its twin, except for
// the verdict triple exactly one verdicts divergence, except for the block
// checks exactly one checks divergence, and a cell without a twin (install
// timing legitimately moves both) gives none.
func TestSeededTwinDivergenceDetected(t *testing.T) {
	configs := []Config{{Name: "interp"}, {Name: "jit"}, {Name: "jit+nomc", Twin: "jit"}, {Name: "jit+async"}}
	same := Observation{Result: "7", Steps: 1000, Checks: 40}
	same.Stats.NrJIT, same.Stats.NrDisJIT, same.Stats.NrNoJIT = 5, 1, 0
	moreSteps := same
	moreSteps.Steps++
	otherVerdict := same
	otherVerdict.Stats.NrDisJIT, otherVerdict.Stats.NrNoJIT = 0, 1
	fewerChecks := same
	fewerChecks.Checks--

	for _, tc := range []struct {
		field string
		obs   Observation
		want  Divergence
	}{
		{"steps", moreSteps, Divergence{Config: "jit+nomc", Ref: "jit", Field: "steps", Got: "1001", Want: "1000"}},
		{"verdicts", otherVerdict, Divergence{Config: "jit+nomc", Ref: "jit", Field: "verdicts",
			Got: "jit=5 disjit=0 nojit=1", Want: "jit=5 disjit=1 nojit=0"}},
		{"checks", fewerChecks, Divergence{Config: "jit+nomc", Ref: "jit", Field: "checks", Got: "39", Want: "40"}},
	} {
		divs := divergences(configs, []Observation{same, same, tc.obs, same})
		if len(divs) != 1 || divs[0] != tc.want {
			t.Errorf("%s differs in the twinned cell: got %v, want exactly %v", tc.field, divs, tc.want)
		}
		if divs := divergences(configs, []Observation{same, same, same, tc.obs}); len(divs) != 0 {
			t.Errorf("%s differs in a cell without a twin: got %v, want none", tc.field, divs)
		}
	}
	// The unfused switch checks the budget per op and counts no block
	// checks: its twin comparison leaves them out.
	nofuse := Config{Name: "jit+nomc+nofuse", Twin: "jit"}
	nofuse.Engine.NoFuse = true
	unfused := same
	unfused.Checks = 0
	if divs := divergences([]Config{configs[0], configs[1], nofuse}, []Observation{same, same, unfused}); len(divs) != 0 {
		t.Errorf("block checks against an unfused twin: got %v, want none", divs)
	}
	// A twin that is not part of the matrix (a hand-picked subset) is not
	// an error and not a comparison.
	if divs := divergences([]Config{configs[0], configs[2]}, []Observation{same, moreSteps}); len(divs) != 0 {
		t.Errorf("twin absent from the matrix: got %v, want none", divs)
	}
}

// buggyConfigs is a minimal interp-vs-buggy-JIT matrix: the JIT compiles
// with the CVE-2019-9813 range-widening bug active.
func buggyConfigs() []Config {
	o := Options{Bugs: passes.BugSet{passes.CVE20199813: true}, Ablate: []string{}}
	cfgs := Matrix(o)
	return []Config{cfgs[0], cfgs[2]} // interp (reference), jit (buggy)
}

// divergentProgram returns a program that triggers CVE-2019-9813 (<=
// widened as <, letting an out-of-bounds store through BCE) buried in
// padding statements, for shrinker tests.
func divergentProgram() string {
	var sb strings.Builder
	// Padding: independent benign functions and driver calls.
	for i := 0; i < 6; i++ {
		fmt.Fprintf(&sb, "function pad%d(n) {\n", i)
		for j := 0; j < 8; j++ {
			fmt.Fprintf(&sb, "  var p%d = n * %d + %d;\n", j, j+2, i)
		}
		fmt.Fprintf(&sb, "  return p0 + p7;\n}\n")
	}
	// The CVE-2019-9813 trigger pattern (the vulndb demonstrator's shape):
	// a <= loop bound that range analysis widens as <, so BCE removes the
	// check the final iteration needs.
	sb.WriteString(`
function trigger(a) {
  var s = 0;
  for (var i = 0; i <= a.length; i++) { s = s + a[i]; }
  return s;
}
var result = 0;
`)
	sb.WriteString("for (var r = 0; r < 90; r++) {\n")
	for i := 0; i < 6; i++ {
		fmt.Fprintf(&sb, "  result = (result + pad%d(r)) %% 1000003;\n", i)
	}
	sb.WriteString("  result = result + trigger(new Array(8));\n}\n")
	return sb.String()
}
