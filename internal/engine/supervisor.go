// Compilation supervisor: every Ion compilation attempt runs under panic
// recovery and a step budget, and every failure — verifier rejection,
// injected fault, compiler panic, budget exhaustion, policy no-go — is
// converted into a typed, stage-attributed CompileError. Failed functions
// are not blacklisted forever: they enter a quarantine that retries with
// exponential backoff once the function has demonstrated sustained clean
// interpreter runs, and only deterministic failures (unsupported source,
// policy NoJIT) or repeated quarantine churn become permanent.
package engine

import (
	"errors"
	"fmt"

	"github.com/jitbull/jitbull/internal/faults"
	"github.com/jitbull/jitbull/internal/lir"
	"github.com/jitbull/jitbull/internal/mc"
	"github.com/jitbull/jitbull/internal/mir"
	"github.com/jitbull/jitbull/internal/mirbuild"
	"github.com/jitbull/jitbull/internal/native"
	"github.com/jitbull/jitbull/internal/obs"
	"github.com/jitbull/jitbull/internal/passes"
	"github.com/jitbull/jitbull/internal/regalloc"
	"github.com/jitbull/jitbull/internal/value"
)

// Compilation stages, in pipeline order, used for CompileError attribution.
const (
	StageQueue    = "queue"    // background-queue job startup
	StageMIRBuild = "mirbuild" // SSA graph construction from the AST
	StagePasses   = "passes"   // the OptimizeMIR pass pipeline
	StagePolicy   = "policy"   // the JITBULL go/no-go decision
	StageLower    = "lir"      // LIR lowering
	StageRegalloc = "regalloc" // register allocation
	StageFuse     = "fuse"     // superinstruction fusion
	StageMC       = "mc"       // machine-code lowering and W^X install
	StageNative   = "native"   // native-code dispatch
	StageOSR      = "osr"      // loop-header on-stack replacement entry
	StageDeopt    = "deopt"    // speculation-guard deoptimization exit
)

// Supervisor defaults.
const (
	// DefaultCompileStepBudget bounds the abstract work units (roughly IR
	// instructions visited) one compilation attempt may spend.
	DefaultCompileStepBudget = 1 << 20
	// DefaultQuarantineBackoff is the initial retry delay, in calls to the
	// function, after a contained compile failure.
	DefaultQuarantineBackoff = 256
	// DefaultQuarantineCleanRuns is how many consecutive clean interpreter
	// executions a quarantined function must bank before a retry.
	DefaultQuarantineCleanRuns = 32
	// DefaultMaxCompileAttempts caps quarantine round-trips before the
	// function is permanently pinned to the interpreter.
	DefaultMaxCompileAttempts = 4
)

// ErrPolicyNoJIT marks a compilation aborted by the JITBULL policy's
// scenario 3 (a matched pass is mandatory): a security decision, not a
// compiler failure, and always permanent.
var ErrPolicyNoJIT = errors.New("JITBULL policy: function forced to NoJIT")

// CompileError is a supervised, stage-attributed JIT-tier failure.
type CompileError struct {
	Func     string // function being compiled
	Stage    string // Stage* constant where the failure surfaced
	Err      error  // underlying cause (never nil)
	Panicked bool   // recovered from a panic
	Injected bool   // caused by the fault-injection framework
	Budget   bool   // compile step budget exhaustion
}

// Error implements the error interface.
func (e *CompileError) Error() string {
	kind := "error"
	switch {
	case e.Panicked:
		kind = "panic"
	case e.Budget:
		kind = "budget"
	}
	return fmt.Sprintf("compile %s in %s stage %s: %v", kind, e.Func, e.Stage, e.Err)
}

// Unwrap exposes the cause so errors.Is/As see through the supervisor
// (difftest matches *passes.IRError this way).
func (e *CompileError) Unwrap() error { return e.Err }

// quarState is the supervisor's verdict on a function's JIT future.
type quarState int

const (
	qNone        quarState = iota // eligible
	qQuarantined                  // contained failure; retry after backoff + clean runs
	qPermanent                    // unsupported, policy NoJIT, or quarantine churn
)

func (e *Engine) compileStepBudget() int64 {
	if e.cfg.CompileStepBudget > 0 {
		return e.cfg.CompileStepBudget
	}
	return DefaultCompileStepBudget
}

func (e *Engine) quarantineBackoff() int {
	if e.cfg.QuarantineBackoff > 0 {
		return e.cfg.QuarantineBackoff
	}
	return DefaultQuarantineBackoff
}

func (e *Engine) quarantineCleanRuns() int {
	if e.cfg.QuarantineCleanRuns > 0 {
		return e.cfg.QuarantineCleanRuns
	}
	return DefaultQuarantineCleanRuns
}

func (e *Engine) maxCompileAttempts() int {
	if e.cfg.MaxCompileAttempts > 0 {
		return e.cfg.MaxCompileAttempts
	}
	return DefaultMaxCompileAttempts
}

// mayCompile reports whether the supervisor allows a compilation attempt
// for the function right now.
func (e *Engine) mayCompile(st *fnState) bool {
	switch st.quar {
	case qNone:
		return true
	case qQuarantined:
		return st.calls >= st.retryAt && st.cleanRuns >= e.quarantineCleanRuns()
	default:
		return false
	}
}

// quarantine parks the function on the interpreter with exponential
// backoff, escalating to permanent after maxCompileAttempts round-trips.
// reason attributes the transition.
func (e *Engine) quarantine(st *fnState, reason string) {
	st.attempts++
	if st.attempts >= e.maxCompileAttempts() {
		st.quar = qPermanent
		e.tracer.Instant(obs.CatEngine, obs.FactPermanent, st.fn.Name,
			obs.S("reason", fmt.Sprintf("quarantine attempts exhausted (%d): %s", st.attempts, reason)), st.tierArg())
		return
	}
	if st.backoff == 0 {
		st.backoff = e.quarantineBackoff()
	} else {
		st.backoff *= 2
	}
	st.quar = qQuarantined
	st.retryAt = st.calls + st.backoff
	st.cleanRuns = 0
	e.m.quarantined.Inc()
	e.tracer.Instant(obs.CatEngine, obs.FactQuarantined, st.fn.Name, obs.S("reason", reason), st.tierArg())
}

// demote drops the function's tier to match its remaining execution modes
// after its Ion code is discarded (the stale-tier fix: a blacklisted
// function must not keep reporting tierIon).
func (e *Engine) demote(st *fnState) {
	if st.calls >= e.cfg.BaselineThreshold {
		st.tier = tierBaseline
	} else {
		st.tier = tierInterp
	}
}

// recordCompileError updates the failure counters, states the error, and
// surfaces it through Config.OnCompileError.
func (e *Engine) recordCompileError(cerr *CompileError) {
	e.m.compileErrors.Inc()
	if cerr.Panicked {
		e.m.compilePanics.Inc()
	}
	if cerr.Injected {
		e.m.injectedFaults.Inc()
	}
	if cerr.Budget {
		e.m.compileBudgets.Inc()
	}
	e.tracer.Instant(obs.CatEngine, obs.FactCompileError, cerr.Func,
		obs.S("stage", cerr.Stage), obs.S("reason", cerr.Err.Error()))
	if e.cfg.OnCompileError != nil {
		e.cfg.OnCompileError(cerr.Func, cerr)
	}
}

// newCompileError types an error returned by a compile stage.
func newCompileError(fn, stage string, err error) *CompileError {
	return &CompileError{
		Func:     fn,
		Stage:    stage,
		Err:      err,
		Injected: faults.IsInjected(err),
		Budget:   errors.Is(err, faults.ErrCompileBudget),
	}
}

// panicToCompileError types a recovered panic value.
func panicToCompileError(fn, stage string, r any) *CompileError {
	if f, ok := faults.FromPanic(r); ok {
		return &CompileError{
			Func:     fn,
			Stage:    stage,
			Err:      &faults.InjectedError{Fault: f},
			Panicked: true,
			Injected: true,
		}
	}
	return &CompileError{
		Func:     fn,
		Stage:    stage,
		Err:      fmt.Errorf("compiler panic: %v", r),
		Panicked: true,
	}
}

// failCompile applies the supervisor's degradation policy to a failed
// attempt. Unsupported source is the expected "outside the JIT subset"
// case: permanent and silent, counted as InterpOnly exactly once. Policy
// NoJIT and deterministic mirbuild rejections fail safe to permanent
// interpreter-only execution; everything else (injected faults, panics,
// budget exhaustion, verifier rejections) is contained into quarantine.
func (e *Engine) failCompile(st *fnState, cerr *CompileError) {
	if errors.Is(cerr.Err, mirbuild.ErrUnsupported) && !cerr.Injected {
		st.quar = qPermanent
		if !st.jitEligible {
			e.m.interpOnly.Inc()
		}
		return
	}
	e.recordCompileError(cerr)
	if errors.Is(cerr.Err, ErrPolicyNoJIT) ||
		(cerr.Stage == StageMIRBuild && !cerr.Injected && !cerr.Budget) {
		st.quar = qPermanent
		if errors.Is(cerr.Err, ErrPolicyNoJIT) {
			st.noJITPinned = true
		}
		e.tracer.Instant(obs.CatEngine, obs.FactPermanent, st.fn.Name,
			obs.S("stage", cerr.Stage), obs.S("reason", cerr.Err.Error()), st.tierArg())
		return
	}
	e.quarantine(st, cerr.Error())
}

// compileAttempt is one supervised run of the Ion pipeline: mirbuild →
// passes (+ policy) → lower → regalloc, under panic recovery and a fresh
// step-budget meter. It runs on the owner goroutine for synchronous
// compiles and on a background worker for queued ones, so it only reads
// the immutable request snapshot — all fnState mutation is deferred to
// the returned outcome, applied at a safe point by applyOutcome. Attempts
// of one engine are serialized by compileMu (the policy is not
// concurrent-safe); a panic never escapes.
func (e *Engine) compileAttempt(req *compileRequest) (o *compileOutcome) {
	e.compileMu.Lock()
	defer e.compileMu.Unlock()
	o = &compileOutcome{req: req}
	fctx := &faults.CompileCtx{
		Inj:   e.cfg.Faults,
		Meter: &faults.Meter{Limit: e.compileStepBudget()},
		Func:  req.fnName,
		Trace: e.tracer,
	}
	stage := StageQueue
	defer func() {
		if r := recover(); r != nil {
			o.code = nil
			o.cerr = panicToCompileError(req.fnName, stage, r)
		}
	}()

	if req.async {
		// The queue injection point: stall exhausts this attempt's budget,
		// panic exercises the worker-side supervisor recovery.
		if err := fctx.Step(faults.PointQueue, req.fnName, 0); err != nil {
			o.cerr = newCompileError(req.fnName, stage, err)
			return o
		}
	}

	opts := req.opts
	opts.Faults = fctx
	// pipeline is mirbuild → passes over the given disabled set, observed
	// by the policy when judged (finish is then set); a nil graph means
	// o.cerr is set.
	var finish func() CompileDecision
	pipeline := func(disabled map[string]bool, judged bool) *mir.Graph {
		stage = StageMIRBuild
		g, err := mirbuild.Build(e.Prog, req.fd, opts)
		if err != nil {
			o.cerr = newCompileError(req.fnName, stage, err)
			return nil
		}
		o.jitEligible = true
		stage = StagePasses
		var pobs passes.Observer
		var watch func(string) bool
		if judged && e.policy != nil && e.policy.Active() {
			pobs, finish = e.policy.BeginCompile(req.fnName)
			if wp, ok := e.policy.(WatchingPolicy); ok {
				watch = wp.Watches
			}
		}
		if err := passes.RunWith(g, passes.RunOptions{
			Bugs:     e.cfg.Bugs,
			Disabled: disabled,
			Observer: pobs,
			Watch:    watch,
			CheckIR:  e.cfg.CheckIR,
			Pipeline: e.cfg.Passes,
			Faults:   fctx,
			Metrics:  e.histReg(),
		}); err != nil {
			o.cerr = newCompileError(req.fnName, stage, err)
			return nil
		}
		return g
	}

	g := pipeline(req.disabled, true)
	if g == nil {
		return o
	}
	e.m.compiles.Inc()

	if finish != nil {
		stage = StagePolicy
		o.decision = e.decide(req.fnName, "", finish)
		if o.decision.NoJIT {
			// Scenario 3: a matched pass is mandatory — OptimizeMIR returns
			// FAILURE with Recompile=false.
			o.cerr = newCompileError(req.fnName, StagePolicy, ErrPolicyNoJIT)
			return o
		}
		if disabled, grew := disabledAfter(req.disabled, o.decision); grew {
			// Scenario 2: FAILURE with Recompile=true — retry with the
			// dangerous passes disabled. The retry is not judged.
			e.m.recompiles.Inc()
			if g = pipeline(disabled, false); g == nil {
				return o
			}
		}
	}

	stage = StageLower
	code, err := lir.LowerWith(g, fctx)
	if err != nil {
		o.cerr = newCompileError(req.fnName, stage, err)
		return o
	}
	stage = StageRegalloc
	if err := regalloc.AllocateWith(code, fctx); err != nil {
		o.cerr = newCompileError(req.fnName, stage, err)
		return o
	}
	if !e.cfg.NoFuse {
		stage = StageFuse
		if err := lir.FuseWith(code, fctx, e.histReg()); err != nil {
			o.cerr = newCompileError(req.fnName, stage, err)
			return o
		}
	}
	o.code = code
	return o
}

// mcActive reports whether the machine-code tier is in play for this
// engine: supported by the build and platform, not disabled by
// configuration.
func (e *Engine) mcActive() bool {
	return mc.Supported() && !e.cfg.NoMC && !e.cfg.DisableJIT
}

// topTierName attributes the executor that serves st's installed
// artifact: "mc" (real machine code), "fused" (direct-threaded
// superinstructions), or "switch" (the unfused reference loop).
func topTierName(st *fnState) string {
	switch {
	case st.mcu != nil:
		return "mc"
	case st.code != nil && st.code.Fused != nil:
		return "fused"
	default:
		return "switch"
	}
}

// attachMC lowers st's freshly installed artifact to machine code and
// installs it into W^X pages, making mc the function's top tier. It runs
// once per installed artifact (applyOutcome is its caller), on the owner
// goroutine, for every install path — sync compile, async mailbox, shared
// cache, persistent store.
//
// Failure containment mirrors execNative, with one deliberate difference:
// the Ion artifact is already installed and correct, so a fault here —
// injected at mc.emit/mc.install or genuine — must never fail the
// function. The attach is quarantined (recorded as an mc-stage
// CompileError plus a quarantined fact with stage=mc) and the function
// degrades to the threaded tier. mc.ErrUnsupported is legitimate
// tiering, not a failure: silent fallback.
func (e *Engine) attachMC(st *fnState) {
	if st.code == nil || !e.mcActive() {
		return
	}
	fctx := &faults.CompileCtx{
		Inj:   e.cfg.Faults,
		Meter: &faults.Meter{Limit: e.compileStepBudget()},
		Func:  st.fn.Name,
		Trace: e.tracer,
	}
	var cerr *CompileError
	func() {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := faults.FromPanic(r); !ok {
					panic(r) // genuine engine bug: propagate
				}
				cerr = panicToCompileError(st.fn.Name, StageMC, r)
			}
		}()
		if err := fctx.Step(faults.PointMCEmit, st.fn.Name, 0); err != nil {
			cerr = newCompileError(st.fn.Name, StageMC, err)
			return
		}
		prog, err := mc.Lower(st.code)
		if err != nil {
			if !errors.Is(err, mc.ErrUnsupported) {
				cerr = newCompileError(st.fn.Name, StageMC, err)
			}
			return
		}
		if err := fctx.Step(faults.PointMCInstall, st.fn.Name, 0); err != nil {
			cerr = newCompileError(st.fn.Name, StageMC, err)
			return
		}
		unit, err := mc.Install(prog)
		if err != nil {
			if !errors.Is(err, mc.ErrUnsupported) {
				cerr = newCompileError(st.fn.Name, StageMC, err)
			}
			return
		}
		unit.Track(e.mcPagesLive)
		st.mcu = unit
	}()
	if cerr != nil {
		st.mcu = nil
		e.recordCompileError(cerr)
		e.tracer.Instant(obs.CatEngine, obs.FactQuarantined, st.fn.Name, obs.S("stage", StageMC),
			obs.S("reason", "machine-code tier quarantined for this artifact: "+cerr.Err.Error()), st.tierArg())
	}
	e.publishCall(st)
}

// publishCall brings st's call-table slot in line with its state; everyone
// who writes st.mcu or st.inflight calls it. Generated code may call a
// function directly only while a dispatch of it would go straight to its
// unit: there is a unit, no background compilation is in flight (dispatch
// installs a finished one before it runs the call), and no fault injector
// is configured (it is consulted on every native dispatch). Otherwise the
// slot is empty and the call comes through CallFunction.
func (e *Engine) publishCall(st *fnState) {
	if e.mcEnv == nil {
		return
	}
	unit := st.mcu
	if st.inflight || e.cfg.Faults != nil {
		unit = nil
	}
	e.mcEnv.Publish(st.idx, unit, &st.calls)
}

// nativeBudget is what is left of the step budget for a native activation
// of st about to start. Every executor reads a budget of zero or less as
// "no limit", so with nothing left the activation must not start: the
// error is the one an executor reports when it runs out. dispatch and
// OnBackEdge ask here; a direct call's inline guard is the same test (it
// wants the callee's entry block covered, which is at least one step) and
// comes to dispatch when it fails.
func (e *Engine) nativeBudget(st *fnState) (int64, error) {
	if left := e.VM.MaxSteps - e.VM.Steps(); left > 0 {
		return left, nil
	}
	return 0, &native.BudgetError{Fn: st.code.Name}
}

// execNative dispatches one call into the function's top native tier with
// a budget of budget steps, on every route but dispatch's own hot path
// (machine code without a fault injector): the threaded/unfused executor,
// and either tier under fault containment — an injected dispatch failure
// (error or panic) is recorded as a typed native-stage CompileError and
// degraded to a bailout, so the caller falls back to the interpreter for
// this call with identical semantics. Non-injected panics are genuine
// engine bugs and propagate.
func (e *Engine) execNative(st *fnState, args []value.Value, budget int64) (res native.Result, status native.Status, err error) {
	if e.cfg.Faults == nil {
		// Only injected faults are contained here (genuine panics propagate
		// either way), so without an injector skip the recovery frame.
		return native.Exec(st.code, args, e, budget, &e.pool)
	}
	mark := e.VM.Mark()
	defer func() {
		if r := recover(); r != nil {
			if _, ok := faults.FromPanic(r); !ok {
				panic(r)
			}
			// Injected dispatch panics fire before the first op runs, but the
			// recovery does not rely on it: whatever the call had nested by
			// then, its stack windows and call depth are given back.
			e.VM.Unwind(mark)
			e.recordCompileError(panicToCompileError(st.fn.Name, StageNative, r))
			res, status, err = native.Result{}, native.StatusBail, nil
		}
	}()
	if st.mcu != nil {
		// The machine-code dispatch path evaluates the same native-point
		// injection ExecWith performs for the threaded tiers, then enters
		// the unit; containment below is shared.
		if ferr := e.cfg.Faults.Check(faults.PointNative, st.fn.Name); ferr != nil {
			err = ferr
		} else {
			status, err = e.mcEnv.Call(st.mcu, args, budget, &res)
		}
	} else {
		res, status, err = native.ExecWith(st.code, args, e, budget, &e.pool, e.cfg.Faults)
	}
	if err != nil && faults.IsInjected(err) {
		e.recordCompileError(newCompileError(st.fn.Name, StageNative, err))
		return native.Result{}, native.StatusBail, nil
	}
	return res, status, err
}
