package difftest

import (
	"fmt"
	"path/filepath"

	"github.com/jitbull/jitbull/internal/engine"
	"github.com/jitbull/jitbull/internal/faults"
	"github.com/jitbull/jitbull/internal/obs"
	"github.com/jitbull/jitbull/internal/progen"
)

// Chaos is the fault-injection arm of the differential oracle: each run
// draws a generated program and a randomized fault schedule, executes the
// program on a JIT engine with the faults armed, and holds the engine to
// three invariants:
//
//  1. no panic escapes the engine, whatever the schedule does;
//  2. the observed semantics are identical to the clean interpreter's —
//     every contained failure must degrade to interpreter re-execution,
//     never to a wrong answer;
//  3. fault accounting is 1:1 — every fault the injector fired surfaces
//     as exactly one supervised, typed CompileError in the engine stats
//     (a swallowed or double-counted fault is a supervisor bug).
//
// Every failure is reported with its (seed, plan, program) reproducer:
// chaos runs are fully deterministic.

// ChaosOptions bounds a chaos campaign.
type ChaosOptions struct {
	// Seed is the base seed; run i uses Seed+i for both its generated
	// program and its fault schedule.
	Seed int64
	// Runs is the number of randomized runs (default 200).
	Runs int
	// MaxRules caps the rules per fault schedule (default 3).
	MaxRules int
	// TraceDir, when set, re-executes every failing run deterministically
	// (same seed, same plan) with a compile tracer attached and writes a
	// Chrome trace_event JSON file per failure into the directory; the
	// file's path is recorded in ChaosFailure.TracePath.
	TraceDir string
	// Points restricts the fault schedules to the given injection points
	// (default: every compile-pipeline point). A single-point campaign
	// concentrates the whole fault budget on one stage — how new pipeline
	// stages earn their chaos coverage.
	Points []faults.Point
	// OSR and Speculate arm the tier-transition machinery in the chaos
	// cell, so faults at the osr/deopt points have transitions to hit.
	OSR       bool
	Speculate bool
	// HotLoops generates the OSR/deopt exercise corpus (progen HotLoops)
	// instead of the plain corpus, so transitions actually fire.
	HotLoops bool
}

func (o ChaosOptions) withDefaults() ChaosOptions {
	if o.Runs <= 0 {
		o.Runs = 200
	}
	if o.MaxRules <= 0 {
		o.MaxRules = 3
	}
	if len(o.Points) == 0 {
		o.Points = faults.CompilePoints()
	}
	return o
}

// ChaosFailure is one failed chaos run with everything needed to replay
// it: the program, the fault plan, and what went wrong.
type ChaosFailure struct {
	RunSeed     int64       `json:"run_seed"`
	Plan        faults.Plan `json:"plan"`
	Program     string      `json:"program"`
	Panic       string      `json:"panic,omitempty"`       // a panic escaped the engine
	Divergences []string    `json:"divergences,omitempty"` // semantics differed from the interpreter
	Accounting  string      `json:"accounting,omitempty"`  // fired faults != accounted faults
	TracePath   string      `json:"trace_path,omitempty"`  // Chrome trace of the deterministic replay
}

// String renders the failure (without the program body) for reports.
func (f ChaosFailure) String() string {
	s := fmt.Sprintf("chaos run seed=%d plan=(%s):", f.RunSeed, f.Plan)
	if f.Panic != "" {
		s += fmt.Sprintf(" panic escaped: %s", f.Panic)
	}
	for _, d := range f.Divergences {
		s += fmt.Sprintf(" divergence: %s;", d)
	}
	if f.Accounting != "" {
		s += " " + f.Accounting
	}
	if f.TracePath != "" {
		s += fmt.Sprintf(" trace=%s", f.TracePath)
	}
	return s
}

// ChaosResult summarizes a campaign.
type ChaosResult struct {
	Runs        int            // runs executed
	FaultsFired int            // total faults fired across all runs
	FaultedRuns int            // runs where at least one fault fired
	Failures    []ChaosFailure // runs that violated an invariant
}

// OK reports whether every run held all three invariants.
func (r ChaosResult) OK() bool { return len(r.Failures) == 0 }

// Summary renders the campaign for reports.
func (r ChaosResult) Summary() string {
	return fmt.Sprintf("%d runs, %d faults fired (%d runs faulted), %d failure(s)",
		r.Runs, r.FaultsFired, r.FaultedRuns, len(r.Failures))
}

// Chaos executes a campaign of o.Runs randomized fault-schedule runs.
func Chaos(o ChaosOptions) ChaosResult {
	o = o.withDefaults()
	var res ChaosResult
	for i := 0; i < o.Runs; i++ {
		seed := o.Seed + int64(i)
		src := progen.Generate(seed, progen.Options{HotLoops: o.HotLoops})
		plan := faults.RandomPlan(seed, o.MaxRules, o.Points)
		fired, fail := chaosOne(seed, src, plan, o)
		res.Runs++
		res.FaultsFired += fired
		if fired > 0 {
			res.FaultedRuns++
		}
		if fail != nil {
			if o.TraceDir != "" {
				fail.TracePath = traceChaosRun(seed, src, plan, o)
			}
			res.Failures = append(res.Failures, *fail)
		}
	}
	return res
}

// traceChaosRun replays one failing (program, plan) pair — chaos runs are
// fully deterministic — with a ring tracer attached and saves the compile
// trace as Chrome trace_event JSON. It returns the written path, or ""
// when the trace could not be saved (the reproducer itself still stands).
func traceChaosRun(seed int64, src string, plan faults.Plan, o ChaosOptions) string {
	ring := obs.NewRing(0)
	cfg := Config{Name: "jit+chaos+trace", Engine: chaosEngine(o)}
	cfg.Engine.Faults = plan.Injector()
	cfg.Engine.Tracer = obs.NewTracer(ring)
	func() {
		defer func() { recover() }() // the replayed panic is already reported
		Observe(src, cfg)
	}()
	path := filepath.Join(o.TraceDir, fmt.Sprintf("chaos-seed-%d.trace.json", seed))
	if err := obs.SaveChromeTrace(path, ring.Events()); err != nil {
		return ""
	}
	return path
}

// Replay re-executes one failure's (program, plan) pair under the given
// campaign options — the reproducer contract behind `jitbull chaos -replay`:
// chaos runs are fully deterministic, so a recorded failure either
// reproduces bit-for-bit or the engine no longer exhibits it (nil). The
// options must arm the same machinery as the original campaign (OSR,
// Speculate) for the transition points to be reachable again.
func Replay(f ChaosFailure, o ChaosOptions) (fired int, fail *ChaosFailure) {
	o = o.withDefaults()
	return chaosOne(f.RunSeed, f.Program, f.Plan, o)
}

// chaosEngine is the engine config of a chaos run and of its traced
// replay: the harness thresholds and step budget, the
// campaign's tier-transition machinery, and quarantine knobs aggressive
// enough that retries (and therefore re-injections) actually happen
// inside test-sized runs. The caller arms the faults.
func chaosEngine(o ChaosOptions) engine.Config {
	return engine.Config{
		IonThreshold:        ionThreshold,
		MaxSteps:            maxSteps,
		OSR:                 o.OSR,
		Speculate:           o.Speculate,
		QuarantineBackoff:   8,
		QuarantineCleanRuns: 2,
		MaxCompileAttempts:  3,
	}
}

// chaosOne executes a single (program, plan) pair against the interpreter
// reference and checks the three invariants.
func chaosOne(seed int64, src string, plan faults.Plan, o ChaosOptions) (fired int, fail *ChaosFailure) {
	base := chaosEngine(o)
	refCfg := Config{Name: "interp", Engine: base}
	refCfg.Engine.DisableJIT = true
	ref := Observe(src, refCfg)

	inj := plan.Injector()
	chaosCfg := Config{Name: "jit+chaos", Engine: base}
	chaosCfg.Engine.Faults = inj

	var obs Observation
	panicked := ""
	func() {
		defer func() {
			if r := recover(); r != nil {
				panicked = fmt.Sprint(r)
			}
		}()
		obs = Observe(src, chaosCfg)
	}()
	fired = inj.FiredCount()

	mk := func() *ChaosFailure {
		if fail == nil {
			fail = &ChaosFailure{RunSeed: seed, Plan: plan, Program: src}
		}
		return fail
	}
	if panicked != "" {
		mk().Panic = panicked
		return fired, fail
	}
	for _, d := range compare(chaosCfg, obs, ref, refCfg.Name) {
		mk().Divergences = append(mk().Divergences, d.String())
	}
	if got := obs.Stats.InjectedFaults; got != fired {
		mk().Accounting = fmt.Sprintf("injector fired %d fault(s) but the engine accounted %d", fired, got)
	}
	return fired, fail
}
