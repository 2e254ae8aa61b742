package engine

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/jitbull/jitbull/internal/faults"
	"github.com/jitbull/jitbull/internal/mir"
	"github.com/jitbull/jitbull/internal/obs"
	"github.com/jitbull/jitbull/internal/passes"
)

// Interpreted loop back edges warm a function up as calls do (hot). Which
// test kills which deliberate mutation of the trigger:
//   - dropping the callee rule: TestLoopWaitsForCallee and
//     TestRecursionFallsBackToCallCounting (the caller compiles at call 2);
//   - counting back edges only with Config.OSR on: TestLoopWarmsFunctionUp
//     (the function compiles at call IonThreshold), with every other
//     trigger test here and TestTraceGoldenCompileSequence;
//   - counting under DisableJIT: TestDisableJITCountsNothing.

// triggers runs src under cfg (IonThreshold 8 unless set) and returns,
// per function, the call count each compile.trigger fact reports.
func triggers(t *testing.T, src string, cfg Config, policy Policy) (*Engine, map[string][]int64) {
	t.Helper()
	if cfg.IonThreshold == 0 {
		cfg.IonThreshold = 8
	}
	ring := obs.NewRing(0)
	cfg.Tracer = obs.NewTracer(ring)
	e, err := New(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if policy != nil {
		e.SetPolicy(policy)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	got := map[string][]int64{}
	for _, ev := range ring.Events() {
		if ev.Name != obs.FactTrigger {
			continue
		}
		for _, a := range ev.Args[:ev.NArgs] {
			if a.Key == "calls" {
				got[ev.Func] = append(got[ev.Func], a.Val)
			}
		}
	}
	return e, got
}

func wantTriggers(t *testing.T, got, want map[string][]int64) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("compile.trigger call counts = %v, want %v", got, want)
	}
}

// A function called a few times whose loop runs IonThreshold iterations a
// call is compiled at its second call, not its IonThreshold-th.
func TestLoopWarmsFunctionUp(t *testing.T) {
	src := `
function work(n) { var s = 0; for (var i = 0; i < n; i++) { s = s + i * 2; } return s; }
var result = 0;
for (var r = 0; r < 5; r++) { result = result + work(16); }
`
	e, got := triggers(t, src, Config{}, nil)
	wantTriggers(t, got, map[string][]int64{"work": {2}})
	if e.Stats().NrJIT != 1 || e.Global("result").AsNumber() != 5*240 {
		t.Fatalf("stats %+v, result %v", e.Stats(), e.Global("result"))
	}
}

// calleeSrc is a caller whose loop is hot from its first call and whose
// callee g is called twice a call: g reaches IonThreshold (8) calls inside
// the caller's fourth call, so a caller that waits for g compiles at its
// fifth, and one that cannot wait for g (it never compiles) at its second.
const calleeSrc = `
function g(x) { %s return x + 1; }
function f(n) { var s = g(0) + g(1); for (var i = 0; i < n; i++) { s = s + i; } return s; }
var result = 0;
for (var r = 0; r < 12; r++) { result = result + f(16); }
`

func calleeProgram(gPrefix string) string { return fmt.Sprintf(calleeSrc, gPrefix) }

// A caller whose already-called callee is still interpreted waits until
// the callee is compiled: callees compile first, as with call counting.
func TestLoopWaitsForCallee(t *testing.T) {
	_, got := triggers(t, calleeProgram(""), Config{}, nil)
	wantTriggers(t, got, map[string][]int64{"g": {8}, "f": {5}})
}

// noJITFor is a policy that pins one function to the interpreter.
type noJITFor string

func (noJITFor) Active() bool { return true }

func (p noJITFor) BeginCompile(fn string) (passes.Observer, func() CompileDecision) {
	return func(int, string, *mir.Snapshot, *mir.Snapshot) {},
		func() CompileDecision { return CompileDecision{NoJIT: fn == string(p)} }
}

// A callee that can never be compiled does not hold its caller back: the
// caller compiles at the first call after the callee's attempt failed, not
// at its own IonThreshold-th call.
func TestUncompilableCalleeDoesNotBlock(t *testing.T) {
	cases := []struct {
		name    string
		gPrefix string
		cfg     Config
		policy  Policy
		held    func(Stats) int // how many functions were held back this way
	}{
		// A string local is outside the JIT subset: permanently interpreted.
		{name: "ineligible", gPrefix: `var s = "k";`, held: func(s Stats) int { return s.InterpOnly }},
		{name: "quarantined", cfg: Config{IonThreshold: 8,
			Faults: faults.NewInjector(1, faults.Rule{Point: faults.PointMIRBuild, Kind: faults.KindError, Times: 1})},
			held: func(s Stats) int { return s.Quarantined }},
		{name: "nojit-pinned", policy: noJITFor("g"), held: func(s Stats) int { return s.NrNoJIT }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e, got := triggers(t, calleeProgram(c.gPrefix), c.cfg, c.policy)
			if len(got["g"]) == 0 || got["g"][0] != 8 || !reflect.DeepEqual(got["f"], []int64{5}) {
				t.Fatalf("compile.trigger call counts = %v, want g first at 8 and f at 5", got)
			}
			if n := c.held(e.Stats()); n != 1 {
				t.Fatalf("%d functions held back as %s, want g alone: %+v", n, c.name, e.Stats())
			}
		})
	}
}

// A function's own recursion does not hold it back, but a mutually
// recursive pair waits on itself: the first of the pair to compile does so
// by call counting, and that releases the other.
func TestRecursionFallsBackToCallCounting(t *testing.T) {
	src := `
function rec(n) { var s = 0; for (var i = 0; i < 16; i++) { s = s + i; } if (n > 0) { s = s + rec(n - 1); } return s; }
function a(n) { var s = 0; for (var i = 0; i < 16; i++) { s = s + i; } if (n > 0) { s = s + b(n - 1); } return s; }
function b(n) { var s = 0; for (var i = 0; i < 16; i++) { s = s + i; } if (n > 0) { s = s + a(n - 1); } return s; }
var result = 0;
for (var r = 0; r < 12; r++) { result = result + rec(1) + a(2); }
`
	// rec(1) calls rec(0), which already follows 16 back edges: rec compiles
	// at its second call. a(2) → b(1) → a(0) calls a twice a round and b
	// once: a reaches 8 calls in the fourth round, and b, no longer waiting,
	// compiles at its next call, its fifth.
	_, got := triggers(t, src, Config{}, nil)
	wantTriggers(t, got, map[string][]int64{"rec": {2}, "a": {8}, "b": {5}})
}

// Under DisableJIT the interpreter counts nothing.
func TestDisableJITCountsNothing(t *testing.T) {
	e, _, err := RunScript(hotLoopSrc, Config{DisableJIT: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range e.VM.BackEdges {
		if n != 0 {
			t.Fatalf("%s: %d back edges counted with the JIT disabled", e.Prog.Funcs[i].Name, n)
		}
	}
	// The same run with the JIT on does count them: the loop above is not
	// vacuous.
	e, _, err = RunScript(hotLoopSrc, Config{IonThreshold: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if n := e.VM.BackEdges[e.Prog.FuncByName["work"]]; n != 50*64 {
		t.Fatalf("work: %d back edges with the JIT on, want %d", n, 50*64)
	}
}
