package engine

// Supervisor tests: typed compile-error surfacing, panic containment,
// step budgets, quarantine/requalification, and fault containment at the
// native dispatch boundary.

import (
	"errors"
	"testing"

	"github.com/jitbull/jitbull/internal/faults"
	"github.com/jitbull/jitbull/internal/interp"
	"github.com/jitbull/jitbull/internal/jitqueue"
	"github.com/jitbull/jitbull/internal/mir"
	"github.com/jitbull/jitbull/internal/obs"
	"github.com/jitbull/jitbull/internal/passes"
	"github.com/jitbull/jitbull/internal/value"
)

// hotSrc drives one JIT-able function well past any test threshold.
const hotSrc = `
function hot(x) {
  var s = 0;
  for (var i = 0; i < 10; i++) { s = s + x + i; }
  return s;
}
var result = 0;
for (var r = 0; r < 100; r++) { result = result + hot(r); }
`

// hotResult is hotSrc's expected final value of `result`:
// sum over r of (10r + 45).
const hotResult = 10*(99*100/2) + 100*45

// runHot executes hotSrc under cfg and checks the semantics held.
func runHot(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e, err := New(hotSrc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if got := e.Global("result").AsNumber(); got != hotResult {
		t.Fatalf("result = %v, want %v (degradation changed semantics)", got, hotResult)
	}
	return e
}

// fn returns the state of the named function.
func (e *Engine) fn(t *testing.T, name string) *fnState {
	t.Helper()
	for _, st := range e.fns {
		if st.fn.Name == name {
			return st
		}
	}
	t.Fatalf("no function %q", name)
	return nil
}

// breakSSAPass corrupts the graph like the passes package's verifier
// fixture: it kills a definition that still has a use, so CheckIR must
// reject the graph and attribute the breakage to this pass.
type breakSSAPass struct{}

func (breakSSAPass) Name() string      { return "BreakSSA" }
func (breakSSAPass) Disableable() bool { return true }
func (breakSSAPass) Run(g *mir.Graph, _ *passes.Context) error {
	for _, b := range g.Blocks {
		for _, in := range b.Instrs {
			if in.Dead {
				continue
			}
			for _, op := range in.Operands {
				if !op.Dead {
					op.Dead = true
					return nil
				}
			}
		}
	}
	return nil
}

// brokenPipeline splices the corrupting pass into the standard pipeline.
func brokenPipeline() []passes.Pass {
	var pl []passes.Pass
	for _, p := range passes.Pipeline() {
		pl = append(pl, p)
		if p.Name() == "AliasAnalysis" {
			pl = append(pl, breakSSAPass{})
		}
	}
	return pl
}

func TestOnCompileErrorSurfacesVerifierRejection(t *testing.T) {
	var got []error
	e := runHot(t, Config{
		IonThreshold: 5,
		CheckIR:      true,
		Passes:       brokenPipeline(),
		OnCompileError: func(fn string, err error) {
			if fn == "hot" {
				got = append(got, err)
			}
		},
	})
	if len(got) == 0 {
		t.Fatal("verifier rejection never reached OnCompileError")
	}
	var cerr *CompileError
	if !errors.As(got[0], &cerr) {
		t.Fatalf("error is %T, want *CompileError: %v", got[0], got[0])
	}
	if cerr.Stage != StagePasses {
		t.Errorf("stage = %q, want %q", cerr.Stage, StagePasses)
	}
	var ir *passes.IRError
	if !errors.As(got[0], &ir) {
		t.Fatalf("*passes.IRError not reachable through the CompileError chain: %v", got[0])
	}
	if ir.Pass != "BreakSSA" {
		t.Errorf("verifier blamed pass %q, want BreakSSA", ir.Pass)
	}
	if e.Stats().NrJIT != 0 {
		t.Errorf("a rejected compilation was still promoted: %+v", e.Stats())
	}
	if e.Stats().CompileErrors == 0 {
		t.Errorf("no CompileErrors counted: %+v", e.Stats())
	}
}

func TestOnCompileErrorSurfacesRecoveredPanic(t *testing.T) {
	var got []error
	inj := faults.NewInjector(1, faults.Rule{Point: faults.PointPass, Kind: faults.KindPanic, Times: 1})
	e := runHot(t, Config{
		IonThreshold: 5,
		Faults:       inj,
		OnCompileError: func(fn string, err error) {
			got = append(got, err)
		},
	})
	if len(got) == 0 {
		t.Fatal("recovered panic never reached OnCompileError")
	}
	var cerr *CompileError
	if !errors.As(got[0], &cerr) {
		t.Fatalf("error is %T, want *CompileError", got[0])
	}
	if !cerr.Panicked || !cerr.Injected || cerr.Stage != StagePasses {
		t.Errorf("typing wrong: %+v", cerr)
	}
	if e.Stats().CompilePanics == 0 || e.Stats().InjectedFaults != inj.FiredCount() {
		t.Errorf("accounting wrong: stats %+v, fired %d", e.Stats(), inj.FiredCount())
	}
}

func TestCompileStepBudgetFailsTheAttempt(t *testing.T) {
	var got []error
	e := runHot(t, Config{
		IonThreshold:      5,
		CompileStepBudget: 1, // nothing compiles under one step
		OnCompileError:    func(fn string, err error) { got = append(got, err) },
	})
	if e.Stats().CompileBudgets == 0 {
		t.Fatalf("budget exhaustion not counted: %+v", e.Stats())
	}
	if e.Stats().NrJIT != 0 {
		t.Errorf("compiled despite a 1-step budget: %+v", e.Stats())
	}
	var cerr *CompileError
	if len(got) == 0 || !errors.As(got[0], &cerr) || !cerr.Budget {
		t.Fatalf("budget failure not surfaced as a Budget CompileError: %v", got)
	}
	if !errors.Is(got[0], faults.ErrCompileBudget) {
		t.Errorf("ErrCompileBudget not reachable: %v", got[0])
	}
}

func TestQuarantineRetriesAndRequalifies(t *testing.T) {
	// The first compile attempt dies on an injected mirbuild fault; the
	// rule is capped at one firing, so the quarantine retry succeeds.
	inj := faults.NewInjector(1, faults.Rule{Point: faults.PointMIRBuild, Kind: faults.KindError, Times: 1})
	e := runHot(t, Config{
		IonThreshold:        5,
		Faults:              inj,
		QuarantineBackoff:   4,
		QuarantineCleanRuns: 2,
	})
	if e.Stats().Quarantined != 1 || e.Stats().Requalified != 1 {
		t.Fatalf("want one quarantine round-trip ending in requalification: %+v", e.Stats())
	}
	if e.Stats().NrJIT != 1 {
		t.Errorf("requalified function not promoted: %+v", e.Stats())
	}
	st := e.fn(t, "hot")
	if st.quar != qNone || st.code == nil {
		t.Errorf("state after requalification: quar=%d code=%v", st.quar, st.code != nil)
	}
}

func TestQuarantineEscalatesToPermanent(t *testing.T) {
	// Every attempt fails: after MaxCompileAttempts the function must be
	// permanently interpreter-only and the engine must stop attempting.
	inj := faults.NewInjector(1, faults.Rule{Point: faults.PointLower, Kind: faults.KindError})
	e := runHot(t, Config{
		IonThreshold:        5,
		Faults:              inj,
		QuarantineBackoff:   2,
		QuarantineCleanRuns: 1,
		MaxCompileAttempts:  3,
	})
	st := e.fn(t, "hot")
	if st.quar != qPermanent {
		t.Fatalf("function not permanent after %d failed attempts (quar=%d)", e.Stats().CompileErrors, st.quar)
	}
	if e.Stats().CompileErrors != 3 {
		t.Errorf("attempts = %d, want exactly MaxCompileAttempts (3)", e.Stats().CompileErrors)
	}
	if e.Stats().Quarantined != 2 {
		t.Errorf("quarantine entries = %d, want 2 (the third failure goes permanent)", e.Stats().Quarantined)
	}
	if e.Stats().NrJIT != 0 {
		t.Errorf("promoted despite permanent failures: %+v", e.Stats())
	}
}

func TestBailoutBoundaryDemotesTierExactlyAtMax(t *testing.T) {
	// The guard fails on every call after compilation: the engine must
	// tolerate exactly maxBailoutsBeforeBlacklist bailouts, then discard
	// the code, demote the tier, and quarantine — with the default backoff
	// no retry fits in this run.
	src := `
function probe(a, i) { return a[i] + 1; }
var a = [1, 2, 3];
var result = 0;
for (var r = 0; r < 200; r++) { result += probe(a, 0); }
for (var r = 0; r < 200; r++) { result += probe(a, 99); }
`
	ring := obs.NewRing(0)
	e, err := New(src, Config{IonThreshold: 10, Tracer: obs.NewTracer(ring)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Stats().Bailouts != maxBailoutsBeforeBlacklist {
		t.Fatalf("bailouts = %d, want exactly %d", e.Stats().Bailouts, maxBailoutsBeforeBlacklist)
	}
	st := e.fn(t, "probe")
	if st.code != nil {
		t.Error("blacklisted function kept its Ion code")
	}
	if st.quar != qQuarantined {
		t.Errorf("quar = %d, want qQuarantined", st.quar)
	}
	// The facts name the tier that ran: every bailout left Ion code, and
	// the quarantine that follows them leaves the function interpreted.
	var bailouts, quarantined int
	for _, ev := range obs.Lifecycles(ring.Events())["probe"] {
		switch ev.Name {
		case obs.FactBailout:
			bailouts++
			if quarantined > 0 || ev.Str("tier") != "ion" {
				t.Errorf("bailout %d: tier=%s after %d quarantined facts, want tier=ion before any", bailouts, ev.Str("tier"), quarantined)
			}
		case obs.FactQuarantined:
			quarantined++
			if ev.Str("tier") != "interp" {
				t.Errorf("quarantined: tier=%s, want interp", ev.Str("tier"))
			}
		}
	}
	if bailouts != maxBailoutsBeforeBlacklist || quarantined != 1 {
		t.Errorf("facts: %d bailouts and %d quarantined, want %d and 1", bailouts, quarantined, maxBailoutsBeforeBlacklist)
	}
}

func TestNativeFaultContainment(t *testing.T) {
	for _, kind := range []faults.Kind{faults.KindError, faults.KindPanic} {
		t.Run(string(kind), func(t *testing.T) {
			inj := faults.NewInjector(1, faults.Rule{Point: faults.PointNative, Kind: kind})
			e := runHot(t, Config{IonThreshold: 5, Faults: inj})
			if inj.FiredCount() == 0 {
				t.Fatal("native fault never fired")
			}
			if e.Stats().InjectedFaults != inj.FiredCount() {
				t.Errorf("accounting: fired %d, engine saw %d", inj.FiredCount(), e.Stats().InjectedFaults)
			}
			if e.Stats().Bailouts == 0 {
				t.Error("contained dispatch faults should surface as bailouts")
			}
			if kind == faults.KindPanic && e.Stats().CompilePanics == 0 {
				t.Error("recovered dispatch panic not counted")
			}
			if got := e.VM.Mark(); got != (interp.StackMark{}) {
				t.Errorf("value stack and call depth not unwound after contained faults: %+v", got)
			}
		})
	}
}

// driveHot builds an engine over hotSrc and drives the hot function by
// hand for calls iterations, draining after every call when a queue is
// attached so background outcomes apply at deterministic call counts —
// the same counts the synchronous path sees.
func driveHot(t *testing.T, cfg Config, calls int) *Engine {
	t.Helper()
	e, err := New(hotSrc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	idx := -1
	for i, st := range e.fns {
		if st.fn.Name == "hot" {
			idx = i
		}
	}
	if idx < 0 {
		t.Fatal("no hot function")
	}
	args := []value.Value{value.Num(1)}
	for i := 0; i < calls; i++ {
		if _, err := e.CallFunction(idx, args); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		e.Drain()
	}
	return e
}

// TestAsyncQuarantineMatchesSyncBackoff is the quarantine × async
// interaction: a compile job that panics in the background must
// quarantine the function with exactly the backoff schedule and
// escalation the synchronous supervisor applies.
func TestAsyncQuarantineMatchesSyncBackoff(t *testing.T) {
	cfg := func(q *jitqueue.Queue) Config {
		return Config{
			IonThreshold:        5,
			QuarantineBackoff:   4,
			QuarantineCleanRuns: 2,
			MaxCompileAttempts:  3,
			Queue:               q,
			// Every attempt panics inside the pass pipeline.
			Faults: faults.NewInjector(1, faults.Rule{Point: faults.PointPass, Kind: faults.KindPanic}),
		}
	}
	const calls = 200
	syncEng := driveHot(t, cfg(nil), calls)

	q := jitqueue.New(2, 8, nil)
	defer q.Close()
	asyncEng := driveHot(t, cfg(q), calls)

	ss, as := syncEng.Stats(), asyncEng.Stats()
	if as.Quarantined != ss.Quarantined || as.CompilePanics != ss.CompilePanics ||
		as.CompileErrors != ss.CompileErrors || as.NrJIT != ss.NrJIT {
		t.Errorf("supervisor accounting diverged: sync %+v async %+v", ss, as)
	}
	sst, ast := syncEng.fn(t, "hot"), asyncEng.fn(t, "hot")
	if ast.quar != sst.quar || ast.attempts != sst.attempts || ast.backoff != sst.backoff {
		t.Errorf("quarantine state diverged: sync quar=%d attempts=%d backoff=%d, async quar=%d attempts=%d backoff=%d",
			sst.quar, sst.attempts, sst.backoff, ast.quar, ast.attempts, ast.backoff)
	}
	if sst.quar != qPermanent {
		t.Errorf("fixture too weak: expected escalation to permanent, got quar=%d", sst.quar)
	}
	if as.CompileErrors != 3 {
		t.Errorf("attempts = %d, want exactly MaxCompileAttempts (3)", as.CompileErrors)
	}
}

// TestQueueFaultPointStallAndPanic exercises the new `queue` injection
// point: it only fires for background jobs, where a panic must be
// contained by the worker-side supervisor (stage "queue") and a stall
// must exhaust the job's step budget. Either way the function quarantines
// and the pool survives.
func TestQueueFaultPointStallAndPanic(t *testing.T) {
	for _, kind := range []faults.Kind{faults.KindPanic, faults.KindStall} {
		t.Run(string(kind), func(t *testing.T) {
			q := jitqueue.New(1, 8, nil)
			defer q.Close()
			var got []error
			inj := faults.NewInjector(1, faults.Rule{Point: faults.PointQueue, Kind: kind, Times: 1})
			e := driveHot(t, Config{
				IonThreshold:        5,
				QuarantineBackoff:   4,
				QuarantineCleanRuns: 2,
				Queue:               q,
				Faults:              inj,
				OnCompileError:      func(fn string, err error) { got = append(got, err) },
			}, 100)
			if inj.FiredCount() != 1 {
				t.Fatalf("queue fault fired %d times, want 1", inj.FiredCount())
			}
			if len(got) == 0 {
				t.Fatal("queue fault never surfaced as a CompileError")
			}
			var cerr *CompileError
			if !errors.As(got[0], &cerr) || cerr.Stage != StageQueue || !cerr.Injected {
				t.Fatalf("typing wrong: %+v", got[0])
			}
			if kind == faults.KindPanic && !cerr.Panicked {
				t.Errorf("queue panic not marked Panicked: %+v", cerr)
			}
			if len(q.Panics()) != 0 {
				t.Errorf("panic escaped the supervisor into the pool: %v", q.Panics())
			}
			// The capped rule fires once; the quarantine retry then
			// compiles cleanly and requalifies.
			if s := e.Stats(); s.Quarantined != 1 || s.Requalified != 1 || s.NrJIT != 1 {
				t.Errorf("recovery accounting: %+v", s)
			}
		})
	}
}

func TestUnsupportedFunctionStaysPermanentAndUncounted(t *testing.T) {
	// A function outside the JIT subset is the expected InterpOnly case:
	// no CompileError noise, no quarantine churn, exactly one InterpOnly.
	// A Boolean operand to arithmetic is such a case too: MIR's arithmetic
	// consumes doubles only.
	for _, body := range []string{`return "a" + "b";`, `return (x < 1) + 1;`} {
		src := `
function s(x) { ` + body + ` }
var result = 0;
for (var i = 0; i < 100; i++) { s(i); result = result + 1; }
`
		var got []error
		e, err := New(src, Config{IonThreshold: 5, OnCompileError: func(fn string, err error) { got = append(got, err) }})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if e.Stats().InterpOnly != 1 || e.Stats().NrJIT != 0 {
			t.Fatalf("%s: stats: %+v", body, e.Stats())
		}
		if len(got) != 0 {
			t.Errorf("%s: unsupported source surfaced as compile errors: %v", body, got)
		}
		if st := e.fn(t, "s"); st.quar != qPermanent {
			t.Errorf("%s: unsupported function should be permanently interpreter-only (quar=%d)", body, st.quar)
		}
	}
}
