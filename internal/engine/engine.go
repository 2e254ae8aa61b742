// Package engine implements the tiered nanojs runtime: profiling
// interpreter → baseline → optimizing JIT, mirroring SpiderMonkey's
// structure from the paper's Figure 1. The engine owns invocation
// counters and thresholds (baseline at 100 calls, Ion at 1500 as in §II),
// type-feedback profiling, the OptimizeMIR pipeline with its
// SUCCESS/FAILURE + Recompile protocol (§V), bailouts, and the JITBULL
// policy hook.
package engine

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"github.com/jitbull/jitbull/internal/ast"
	"github.com/jitbull/jitbull/internal/bytecode"
	"github.com/jitbull/jitbull/internal/compiler"
	"github.com/jitbull/jitbull/internal/faults"
	"github.com/jitbull/jitbull/internal/heap"
	"github.com/jitbull/jitbull/internal/interp"
	"github.com/jitbull/jitbull/internal/jitqueue"
	"github.com/jitbull/jitbull/internal/lir"
	"github.com/jitbull/jitbull/internal/mc"
	"github.com/jitbull/jitbull/internal/native"
	"github.com/jitbull/jitbull/internal/obs"
	"github.com/jitbull/jitbull/internal/parser"
	"github.com/jitbull/jitbull/internal/passes"
	"github.com/jitbull/jitbull/internal/value"
)

// Default tier thresholds, as described in the paper's §II for
// SpiderMonkey.
const (
	DefaultBaselineThreshold = 100
	DefaultIonThreshold      = 1500

	// maxBailoutsBeforeBlacklist is how many guard failures a compiled
	// function tolerates before the engine gives up optimizing it.
	maxBailoutsBeforeBlacklist = 32

	// maxDeoptsBeforeRequalify is how many speculation-guard deopts one
	// artifact tolerates before the engine discards it and requalifies the
	// function with the TypeSpeculation pass disabled (see osr.go). Low on
	// purpose: every deopt pays a full frame reconstruction, so a loop
	// whose type assumption keeps failing is cheaper unspeculated.
	maxDeoptsBeforeRequalify = 8
)

// HijackError reports a control-flow hijack: a function's JIT code pointer
// was overwritten (the exploit payload "executed").
type HijackError struct {
	FuncIndex int
	FuncName  string
}

// Error implements the error interface.
func (e *HijackError) Error() string {
	return fmt.Sprintf("control-flow hijack: code pointer of %s (fn #%d) overwritten — payload executed", e.FuncName, e.FuncIndex)
}

// CompileDecision is the JITBULL go/no-go verdict for one compilation,
// with the evidence behind it. It is plain data, made once by the policy's
// finish function and never changed after: the shared cache keeps it next
// to the artifact, the store writes it as JSON, and a cache hit hands the
// same value back to the policy (CachingPolicy.ReplayDecision).
type CompileDecision struct {
	// DisabledPasses lists dangerous passes to disable for this function.
	DisabledPasses []string `json:"disabled_passes,omitempty"`
	// NoJIT forces interpreter-only execution (scenario 3 of §V: a matched
	// pass is mandatory).
	NoJIT bool `json:"nojit,omitempty"`
	// Matches are the DNA similarities the verdict rests on, in the order
	// the policy books them; empty for a go verdict.
	Matches []obs.Match `json:"matches,omitempty"`
}

// Verdict names the decision the way the audit log and FactDecide do.
func (d CompileDecision) Verdict() obs.Verdict {
	switch {
	case d.NoJIT:
		return obs.VerdictNoJIT
	case len(d.DisabledPasses) > 0:
		return obs.VerdictDisablePass
	}
	return obs.VerdictGo
}

// Policy is the JITBULL hook (implemented by internal/core). When Active
// returns false (empty VDC database) the engine takes no snapshots at all.
type Policy interface {
	Active() bool
	// BeginCompile returns an observer to install on the pass pipeline and
	// a finish function producing the decision.
	BeginCompile(fnName string) (passes.Observer, func() CompileDecision)
}

// Config parameterizes an Engine.
type Config struct {
	BaselineThreshold int
	IonThreshold      int
	Bugs              passes.BugSet
	DisableJIT        bool // NoJIT mode: interpreter only
	HeapCells         int
	MaxSteps          int64 // combined interp+native step budget (0 = default)
	Out               io.Writer

	// DisabledPasses names optimization passes skipped for every function
	// (per-pass ablation). Disabling a mandatory pass makes compilation
	// fail, falling back to the interpreter.
	DisabledPasses []string
	// CheckIR runs the SSA verifier after every optimization pass of every
	// compilation, failing the compile (interpreter fallback) with the
	// offending pass named. Used by differential tests and fuzzing.
	CheckIR bool
	// OnCompileError, when set, observes every supervised JIT-tier failure
	// the engine degrades into an interpreter fallback. The error is always
	// a *CompileError; errors.As sees through it to the underlying cause
	// (CheckIR verifier rejections surface as *passes.IRError).
	OnCompileError func(fn string, err error)

	// Faults, when set, is the fault-injection schedule evaluated at every
	// compile-path and dispatch injection point (the chaos suite's driver).
	Faults *faults.Injector
	// CompileStepBudget bounds the abstract work units one compilation
	// attempt may spend (0 = DefaultCompileStepBudget). Exhaustion fails
	// the attempt with a Budget-typed CompileError.
	CompileStepBudget int64
	// QuarantineBackoff is the initial retry delay, in calls, after a
	// contained compile failure (0 = DefaultQuarantineBackoff). It doubles
	// per quarantine round-trip.
	QuarantineBackoff int
	// QuarantineCleanRuns is how many consecutive clean interpreter runs a
	// quarantined function needs before a retry (0 = default).
	QuarantineCleanRuns int
	// MaxCompileAttempts caps quarantine round-trips before the function
	// is permanently interpreter-only (0 = DefaultMaxCompileAttempts).
	MaxCompileAttempts int
	// Passes overrides the optimization pipeline (nil = the standard one).
	// Tests use it to inject deliberately broken passes and prove the
	// supervisor attributes them.
	Passes []passes.Pass
	// NoFuse disables the superinstruction fusion stage: Ion artifacts are
	// executed by the monolithic switch loop instead of the fused
	// direct-threaded backend. Semantics are identical either way (the
	// difftest matrix pins it); this is the escape hatch and the baseline
	// side of the native-tier benchmark.
	NoFuse bool
	// NoMC disables the machine-code tier: installed Ion artifacts stop at
	// the fused direct-threaded executor instead of being lowered to real
	// amd64 code in W^X pages. On platforms without machine-code support
	// the tier is off regardless, so semantics never depend on the flag —
	// the difftest matrix pins mc and threaded execution bit-identical
	// (Result, Steps, bailout points, deopt frames, policy verdicts).
	NoMC bool

	// OSR enables loop-header on-stack replacement: the interpreter counts
	// back edges, triggers compilation from a hot loop (not just a hot call
	// count), and transfers mid-loop into installed Ion code at the loop
	// header by materializing native registers from the frame map. Off by
	// default; semantics (Result, Steps, bailout points, policy verdicts)
	// are bit-identical either way — the difftest matrix pins it.
	OSR bool
	// Speculate enables the TypeSpeculation pass: eligible call results are
	// speculated to numbers, guarded by KCallSpec ops that deoptimize back
	// to the interpreter — with full frame reconstruction — when the
	// assumption fails. Off by default; semantically invisible.
	Speculate bool

	// Tracer, when set, is the engine's one event stream: every lifecycle
	// fact (obs.Facts: first call, warm, trigger, cache hit or miss,
	// enqueue, compile, verdict, tier, install, OSR entry, deopt, bailout,
	// quarantine, requalification, permanent demotion, compile error) is
	// stated on it once, beside the compile-pipeline spans (mirbuild, every
	// optimization pass with input/output instruction counts, DNA
	// extraction, lowering, register allocation) and injected faults. What
	// becomes of them is the sink's business: obs.Ring, Journal, AuditLog,
	// Watchdog and FlightRecorder are each a view of this stream, composed
	// with obs.MultiSink. Facts land on tier transitions, never per call.
	// Nil disables the stream at the cost of one nil check per site
	// (benchmarked by internal/obs BenchmarkSpan/disabled).
	Tracer *obs.Tracer
	// Metrics, when set, is a shared registry the engine's counters and
	// histograms are mirrored into. Several engines may share one registry
	// (RunParallel does): the handles are atomics, so the shared view
	// aggregates without races while each engine's Stats() stays private.
	Metrics *obs.Registry

	// Queue, when set, moves Ion compilation off-thread: the warmup
	// trigger snapshots the compilation inputs, enqueues a supervised job
	// on the shared background pool, and the function keeps executing in
	// baseline until the artifact is installed at the next call boundary
	// (see async.go for the concurrency contract). When the queue is
	// saturated the engine falls back to a synchronous compile.
	Queue *jitqueue.Queue
	// Cache, when set, is the shared cross-engine compilation cache: a hit
	// installs the compiled artifact and replays the recorded JITBULL
	// verdict without re-running the pipeline or DNA matching. Caching is
	// automatically disabled for configurations whose outcomes are not
	// reproducible from the cache key (custom Passes, fault injection, or
	// a policy that does not implement CachingPolicy).
	Cache *jitqueue.Cache
}

// Stats is a snapshot of the per-run counters the paper's Figure 4
// reports, read from the engine's atomic metrics registry via
// Engine.Stats().
type Stats struct {
	NrJIT      int // functions Ion-compiled (JIT-eligible and hot)
	NrDisJIT   int // of those, compiled with >= 1 pass disabled by JITBULL
	NrNoJIT    int // of those, forced to interpreter-only by JITBULL
	Bailouts   int
	Compiles   int
	Recompiles int
	InterpOnly int // hot but not JIT-eligible (outside the JIT subset)

	// Supervisor counters: every JIT-tier failure the engine contained.
	CompileErrors  int // typed failures recorded (all causes)
	CompilePanics  int // of those, recovered compiler/dispatch panics
	CompileBudgets int // of those, compile step budget exhaustions
	InjectedFaults int // of those, fired by the fault-injection framework
	Quarantined    int // quarantine entries (failed functions parked with backoff)
	Requalified    int // quarantined functions re-promoted after a clean retry

	// Async/cache counters (zero without Config.Queue / Config.Cache).
	CacheHits     int // compilations satisfied from the shared cache
	CacheMisses   int // cacheable triggers that had to compile
	AsyncCompiles int // compile jobs enqueued on the background queue
	AsyncInstalls int // artifacts installed at a safe point after a background compile

	// OSR/deopt counters (zero without Config.OSR / Config.Speculate).
	OSREntries       int // successful mid-loop transfers into Ion code
	DeoptExits       int // speculation-guard failures reconstructed into the interpreter
	LoopsRequalified int // deopt storms that requalified the function without speculation

	// Top-tier attribution: which executor serves each installed artifact
	// (one count per install event, not per call).
	TierMC     int // real machine code in W^X pages
	TierFused  int // fused direct-threaded executor
	TierSwitch int // unfused switch loop (NoFuse artifacts)
}

// statCounter is one engine counter: always present in the engine's
// private registry (the source of the Stats() snapshot) and, when
// Config.Metrics is set, mirrored into that shared registry so parallel
// engines aggregate into one coherent view without races.
type statCounter struct{ local, shared *obs.Counter }

// Inc bumps both sides (the shared side is nil-safe).
func (c statCounter) Inc() { c.local.Inc(); c.shared.Inc() }

// engineMetrics are the engine's counters, resolved once at construction
// so the hot path never takes the registry lock.
type engineMetrics struct {
	nrJIT, nrDisJIT, nrNoJIT       statCounter
	bailouts, compiles, recompiles statCounter
	interpOnly                     statCounter
	compileErrors, compilePanics   statCounter
	compileBudgets, injectedFaults statCounter
	quarantined, requalified       statCounter
	cacheHits, cacheMisses         statCounter
	asyncCompiles, asyncInstalls   statCounter
	osrEntries, deoptExits         statCounter
	loopsRequalified               statCounter
	tierMC, tierFused, tierSwitch  statCounter
}

func newEngineMetrics(local, shared *obs.Registry) engineMetrics {
	pair := func(name string) statCounter {
		return statCounter{local: local.Counter(name), shared: shared.Counter(name)}
	}
	return engineMetrics{
		nrJIT:          pair("engine.nr_jit"),
		nrDisJIT:       pair("engine.nr_dis_jit"),
		nrNoJIT:        pair("engine.nr_no_jit"),
		bailouts:       pair("engine.bailouts"),
		compiles:       pair("engine.compiles"),
		recompiles:     pair("engine.recompiles"),
		interpOnly:     pair("engine.interp_only"),
		compileErrors:  pair("engine.compile_errors"),
		compilePanics:  pair("engine.compile_panics"),
		compileBudgets: pair("engine.compile_budgets"),
		injectedFaults: pair("engine.injected_faults"),
		quarantined:    pair("engine.quarantined"),
		requalified:    pair("engine.requalified"),
		cacheHits:      pair("engine.cache_hits"),
		cacheMisses:    pair("engine.cache_misses"),
		asyncCompiles:  pair("engine.async_compiles"),
		asyncInstalls:  pair("engine.async_installs"),

		osrEntries:       pair("osr.entries"),
		deoptExits:       pair("deopt.exits"),
		loopsRequalified: pair("deopt.loops_requalified"),

		tierMC:     pair("native.tier.mc"),
		tierFused:  pair("native.tier.fused"),
		tierSwitch: pair("native.tier.switch"),
	}
}

type tier int

const (
	tierInterp tier = iota
	tierBaseline
	tierIon
)

// String names the tier for the "tier" argument of lifecycle facts.
func (t tier) String() string {
	switch t {
	case tierBaseline:
		return "baseline"
	case tierIon:
		return "ion"
	}
	return "interp"
}

type fnState struct {
	idx  int // position in Engine.fns: the call-table slot
	fd   *ast.FuncDecl
	fn   *bytecode.Function
	tier tier

	calls int

	// Type feedback.
	paramTypes []value.Type
	paramBad   []bool
	retType    value.Type
	retBad     bool

	code *lir.Code
	// mcu is the machine-code unit attached to code (nil when the tier is
	// off, unsupported, or the attach was quarantined). It always tracks
	// code: install attaches a fresh one, discard clears it. Whoever writes
	// mcu (or inflight) calls publishCall, so the call table follows.
	mcu            *mc.Unit
	jitEligible    bool // mirbuild succeeded at least once
	disabledPasses map[string]bool
	bailouts       int
	counted        bool // already counted in Stats.NrJIT

	// Supervisor state (see supervisor.go).
	quar      quarState
	retryAt   int // earliest call count for a quarantine retry
	backoff   int // current retry delay (doubles per round-trip)
	cleanRuns int // consecutive clean interpreter runs while quarantined
	attempts  int // quarantine round-trips so far

	// Async compilation state (see async.go). inflight is owner-only;
	// pending is the mailbox a background worker parks the finished
	// outcome in, emptied by the owner at the next call boundary.
	inflight bool
	pending  atomic.Pointer[compileOutcome]

	// noJITPinned marks a function permanently interpreter-only because of
	// a policy NoJIT verdict (not unsupported source): FactHotInterp is
	// stated for these when they keep getting hot.
	noJITPinned bool

	// OSR/deopt state (see osr.go). backEdges counts interpreter back
	// edges across all activations; osrCooldown parks OSR attempts per
	// entry ordinal after a refused materialization or a bailout there — a
	// loop whose types block one header must not poison the function's
	// other loops; deopts counts guard failures of the current artifact
	// (both reset on install).
	backEdges   int
	osrCooldown map[int]bool
	deopts      int
}

// Engine is a tiered nanojs runtime instance. It is single-owner: all
// execution entry points (Run, CallFunction, Drain) must be called from
// one goroutine. With Config.Queue set, compilation itself runs on
// background workers under the contract documented in async.go — the
// workers never touch fnState or the VM, so the owner goroutine stays
// race-free — and Stats() may be read from any goroutine at any time.
type Engine struct {
	Prog  *bytecode.Program
	VM    *interp.VM
	arena *heap.Arena
	cfg   Config

	fns    []*fnState
	policy Policy
	pool   native.Pool
	// mcEnv is what generated code sees of this engine: the arena and
	// global views, and the call table direct native→native calls go
	// through (see publishCall). Nil when the machine-code tier is off.
	mcEnv *mc.Env

	// compileMu serializes compilation attempts of this engine across
	// background workers: the policy (core.Detector) and its DNA scratch
	// state are not concurrent-safe.
	compileMu sync.Mutex
	// inflight counts this engine's outstanding background jobs (Drain
	// waits on it).
	inflight sync.WaitGroup

	reg      *obs.Registry // private registry backing Stats()
	m        engineMetrics
	tracer   *obs.Tracer
	hijacked *HijackError

	// Exemplar-linked latency histograms, resolved once at construction so
	// the compile path never takes the registry lock. Each bucket retains
	// the span ID of its most recent extreme observation.
	hCompile    *obs.Histogram // compile.ns: one supervised pipeline attempt
	hQueueWait  *obs.Histogram // jit.queue_wait_ns: enqueue → worker pickup
	hInstallLag *obs.Histogram // compile.install_lag_ns: enqueue → safe-point install
	hOSREntry   *obs.Histogram // osr.entry_ns: one entered OSR activation

	// mcPagesLive is mc.pages_live: bytes of executable mapping currently
	// held by units this registry's engines installed. It falls when a
	// retired unit is finalized, not when the artifact is discarded.
	mcPagesLive *obs.Gauge
	// mc.direct_calls and mc.call_unwinds: calls generated code made
	// without leaving machine code, and those of them whose callee came
	// back with something other than a return. Generated code counts in the
	// environment; chargeNative moves what it has not reported yet (the
	// difference to directSeen, unwindsSeen) into the registry.
	mcDirectCalls, mcCallUnwinds *obs.Counter
	directSeen, unwindsSeen      int64

	// blockChecks mirrors the fused executor's amortized budget checks
	// into native.block_budget_checks; resolved once so the per-call hot
	// path pays a single atomic add.
	blockChecks *obs.Counter

	// testQueueJobHook, when set (tests only), runs inside a background
	// compile job outside the supervisor's recovery — the seam for proving
	// an escaped panic still yields an applyable outcome.
	testQueueJobHook func()
}

var _ interp.Dispatcher = (*Engine)(nil)
var _ mc.Host = (*Engine)(nil)

// New parses, compiles and prepares src for execution.
func New(src string, cfg Config) (*Engine, error) {
	astProg, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	prog, err := compiler.CompileProgram(astProg)
	if err != nil {
		return nil, err
	}
	prog.Source = src
	return NewFromProgram(prog, astProg, cfg)
}

// NewFromProgram builds an engine over already-compiled code.
func NewFromProgram(prog *bytecode.Program, astProg *ast.Program, cfg Config) (*Engine, error) {
	if cfg.BaselineThreshold <= 0 {
		cfg.BaselineThreshold = DefaultBaselineThreshold
	}
	if cfg.IonThreshold <= 0 {
		cfg.IonThreshold = DefaultIonThreshold
	}
	arena := heap.New(cfg.HeapCells)
	vm := interp.New(prog, arena, cfg.Out)
	if cfg.MaxSteps > 0 {
		vm.MaxSteps = cfg.MaxSteps
	}
	e := &Engine{Prog: prog, VM: vm, arena: arena, cfg: cfg}
	e.reg = obs.NewRegistry()
	e.m = newEngineMetrics(e.reg, cfg.Metrics)
	e.tracer = cfg.Tracer
	e.blockChecks = e.histReg().Counter("native.block_budget_checks")
	e.hCompile = e.histReg().Histogram("compile.ns", obs.LatencyBucketsNs)
	e.hQueueWait = e.histReg().Histogram("jit.queue_wait_ns", obs.LatencyBucketsNs)
	e.hInstallLag = e.histReg().Histogram("compile.install_lag_ns", obs.LatencyBucketsNs)
	e.hOSREntry = e.histReg().Histogram("osr.entry_ns", obs.LatencyBucketsNs)
	e.mcPagesLive = e.histReg().Gauge("mc.pages_live")
	e.mcDirectCalls = e.histReg().Counter("mc.direct_calls")
	e.mcCallUnwinds = e.histReg().Counter("mc.call_unwinds")
	if cfg.Faults != nil && cfg.Faults.Trace == nil {
		// Injected faults show up inline in the engine's compile trace.
		cfg.Faults.Trace = cfg.Tracer
	}
	vm.Dispatch = e
	if cfg.OSR && !cfg.DisableJIT {
		// The hook is only installed when OSR is on: a nil hook keeps the
		// interpreter's back-edge path byte-identical to a build without it.
		vm.OSR = e.OnBackEdge
	}

	byName := map[string]*ast.FuncDecl{}
	for _, fd := range astProg.Funcs() {
		byName[fd.Name] = fd
	}
	e.fns = make([]*fnState, len(prog.Funcs))
	for i, fn := range prog.Funcs {
		st := &fnState{idx: i, fn: fn, fd: byName[fn.Name]}
		st.paramTypes = make([]value.Type, fn.NumParams)
		st.paramBad = make([]bool, fn.NumParams)
		e.fns[i] = st
	}
	if e.mcActive() {
		e.mcEnv = mc.NewEnv(e, &e.pool, vm, len(e.fns))
	}
	return e, nil
}

// SetPolicy installs the JITBULL policy hook (nil removes it).
func (e *Engine) SetPolicy(p Policy) { e.policy = p }

// Stats reads a consistent snapshot of the engine's own counters. The
// counters are atomics, so snapshotting while other engines mutate a
// shared Config.Metrics registry is race-free.
func (e *Engine) Stats() Stats {
	v := func(c statCounter) int { return int(c.local.Value()) }
	return Stats{
		NrJIT:          v(e.m.nrJIT),
		NrDisJIT:       v(e.m.nrDisJIT),
		NrNoJIT:        v(e.m.nrNoJIT),
		Bailouts:       v(e.m.bailouts),
		Compiles:       v(e.m.compiles),
		Recompiles:     v(e.m.recompiles),
		InterpOnly:     v(e.m.interpOnly),
		CompileErrors:  v(e.m.compileErrors),
		CompilePanics:  v(e.m.compilePanics),
		CompileBudgets: v(e.m.compileBudgets),
		InjectedFaults: v(e.m.injectedFaults),
		Quarantined:    v(e.m.quarantined),
		Requalified:    v(e.m.requalified),
		CacheHits:      v(e.m.cacheHits),
		CacheMisses:    v(e.m.cacheMisses),
		AsyncCompiles:  v(e.m.asyncCompiles),
		AsyncInstalls:  v(e.m.asyncInstalls),

		OSREntries:       v(e.m.osrEntries),
		DeoptExits:       v(e.m.deoptExits),
		LoopsRequalified: v(e.m.loopsRequalified),

		TierMC:     v(e.m.tierMC),
		TierFused:  v(e.m.tierFused),
		TierSwitch: v(e.m.tierSwitch),
	}
}

// Tracer returns the engine's tracer (nil when tracing is disabled).
func (e *Engine) Tracer() *obs.Tracer { return e.tracer }

// Metrics returns the engine's private metrics registry (always non-nil):
// the engine counters plus compile-path histograms when no shared
// Config.Metrics registry was provided.
func (e *Engine) Metrics() *obs.Registry { return e.reg }

// MetricsSink returns the registry compile-path instrumentation (pass
// latencies, DNA histograms) records into: the shared Config.Metrics when
// one was provided, else the engine's private registry. Policy
// instrumentation should use the same sink so one registry carries the
// whole compile path.
func (e *Engine) MetricsSink() *obs.Registry { return e.histReg() }

// histReg is the registry compile-path histograms record into: the shared
// one when configured, else the engine's own.
func (e *Engine) histReg() *obs.Registry {
	if e.cfg.Metrics != nil {
		return e.cfg.Metrics
	}
	return e.reg
}

// Arena returns the shared heap.
func (e *Engine) Arena() *heap.Arena { return e.arena }

// Hijacked returns the recorded control-flow hijack, if any.
func (e *Engine) Hijacked() *HijackError { return e.hijacked }

// GlobalGet implements native.Hooks.
func (e *Engine) GlobalGet(slot int) value.Value { return e.VM.Globals[slot] }

// GlobalSet implements native.Hooks.
func (e *Engine) GlobalSet(slot int, v value.Value) { e.VM.Globals[slot] = v }

// Globals exposes the global-slot backing array to the machine-code tier's
// inline KLoadGlobal / KStoreGlobalNum fast paths (mc.Host). Semantics are
// defined by GlobalGet / GlobalSet — the window is only a faster route to
// the same slots.
func (e *Engine) Globals() []value.Value { return e.VM.Globals }

// MCEnv implements mc.Host.
func (e *Engine) MCEnv() *mc.Env { return e.mcEnv }

// Random implements native.Hooks.
func (e *Engine) Random() float64 { return e.VM.Random() }

// Run executes the program's top-level code. With a background queue
// attached it drains in-flight compilations before returning, so the
// engine's final state matches what a synchronous engine reaches after
// the same warmup triggers.
func (e *Engine) Run() (value.Value, error) {
	v, err := e.VM.Run()
	e.Drain()
	return v, err
}

// Global returns the value of a named global variable (undefined when the
// name does not exist).
func (e *Engine) Global(name string) value.Value {
	for i, n := range e.Prog.GlobalNames {
		if n == name {
			return e.VM.Globals[i]
		}
	}
	return value.Undef()
}

// CallFunction implements the dispatcher: every nanojs call that Go routes,
// from whichever tier, funnels through here, charged against the call-depth
// limit; dispatch makes the tiering decisions. The one call that does not
// come through is a direct call between two machine-code units (mc's
// emitCall): its inline guards are dispatch's checks, it charges the depth
// itself, and whatever it cannot finish in generated code ends in
// ReturnDirect.
func (e *Engine) CallFunction(idx int, args []value.Value) (value.Value, error) {
	if err := e.VM.EnterCall(); err != nil {
		return value.Undef(), err
	}
	v, err := e.dispatch(idx, args)
	e.VM.LeaveCall()
	return v, err
}

// dispatch runs one call of function idx in the tier it has earned.
func (e *Engine) dispatch(idx int, args []value.Value) (value.Value, error) {
	if idx < 0 || idx >= len(e.fns) {
		return value.Undef(), &interp.RuntimeError{Msg: fmt.Sprintf("unknown function index %d", idx)}
	}
	st := e.fns[idx]

	// Control-flow integrity: calling through an overwritten JIT code
	// pointer means the attacker's payload runs instead of the function.
	if !e.arena.CodePointerOK(idx) {
		h := &HijackError{FuncIndex: idx, FuncName: st.fn.Name}
		if e.hijacked == nil {
			e.hijacked = h
		}
		return value.Undef(), h
	}

	st.calls++
	if st.calls == 1 {
		e.tracer.Instant(obs.CatEngine, obs.FactInterp, st.fn.Name, st.tierArg())
	}
	// A policy-pinned (NoJIT) function that keeps getting hot is a real
	// performance cost of the go/no-go verdict: say so once, at double
	// the Ion threshold (the == keeps this a single fact).
	if st.noJITPinned && st.calls == 2*e.cfg.IonThreshold {
		e.tracer.Instant(obs.CatEngine, obs.FactHotInterp, st.fn.Name, obs.I("calls", int64(st.calls)))
	}
	// Safe point: a finished background compilation is installed here, on
	// the owner goroutine, before any tiering decision or dispatch. The
	// inflight gate keeps the hot path free of atomics: pending can only
	// be non-nil between enqueue and apply, and inflight (owner-only)
	// brackets exactly that window.
	if st.inflight {
		if o := st.pending.Swap(nil); o != nil {
			e.applyOutcome(st, o)
		}
	}
	if e.cfg.DisableJIT || st.fd == nil {
		return e.VM.Exec(st.fn, args)
	}

	if st.code == nil {
		e.profile(st, args)
	}
	if st.code == nil && !st.inflight && st.calls >= e.cfg.IonThreshold && e.mayCompile(st) {
		e.compile(idx, st)
	}
	if st.tier == tierInterp && st.calls >= e.cfg.BaselineThreshold {
		st.tier = tierBaseline
		e.tracer.Instant(obs.CatEngine, obs.FactWarm, st.fn.Name, obs.I("calls", int64(st.calls)), st.tierArg())
	}

	if st.code != nil {
		res, status, err := e.execNative(st, args)
		return e.returned(st, args, res, status, err)
	}
	return e.interpret(st, args)
}

// returned is the post-call half of dispatch: what the engine does with a
// native activation of st, called with args, once it has ended in res,
// status and err. Both routes into native code end here — execNative's
// return in dispatch, and ReturnDirect for an activation that generated
// code called itself.
func (e *Engine) returned(st *fnState, args []value.Value, res native.Result, status native.Status, err error) (value.Value, error) {
	e.chargeNative(res)
	if err != nil {
		return value.Undef(), err
	}
	switch status {
	case native.StatusOK:
		e.observeReturn(st, res.Value())
		return res.Value(), nil
	case native.StatusDeopt:
		// A speculation guard failed mid-function: the activation has
		// already performed side effects, so it must resume from the
		// reconstructed frame — never re-run from the top like a bailout.
		v, done, derr := e.handleDeopt(st, res.Deopt)
		if !done {
			return value.Undef(), &interp.RuntimeError{Msg: "deopt exit without a resume site"}
		}
		if derr == nil {
			e.observeReturn(st, v)
		}
		return v, derr
	}
	// Bailout: fall back to the interpreter for this call.
	e.bailed(st, res)
	return e.interpret(st, args)
}

// bailed books one guard bailout of a native activation of st — the one
// place a bailout is stated, whichever route ran the activation (dispatch,
// a direct call, an OSR entry) — and reports whether it was one too many:
// the artifact is then gone and the function quarantined.
func (e *Engine) bailed(st *fnState, res native.Result) (blacklisted bool) {
	e.m.bailouts.Inc()
	st.bailouts++
	e.tracer.Instant(obs.CatEngine, obs.FactBailout, st.fn.Name,
		obs.I("steps", res.Steps), obs.I("bailouts", int64(st.bailouts)), st.tierArg())
	if st.bailouts < maxBailoutsBeforeBlacklist {
		return false
	}
	e.discardArtifact(st)
	e.demote(st)
	e.quarantine(st, "bailout storm: blacklisted after repeated guard failures")
	return true
}

// tierArg is the "tier" argument of a lifecycle fact: the tier st is in as
// the fact is stated, which the journal shows beside the waypoint.
func (st *fnState) tierArg() obs.Arg { return obs.S("tier", st.tier.String()) }

// interpret runs one call of st in the interpreter.
func (e *Engine) interpret(st *fnState, args []value.Value) (value.Value, error) {
	v, err := e.VM.Exec(st.fn, args)
	if err == nil {
		e.observeReturn(st, v)
		if st.quar == qQuarantined {
			st.cleanRuns++
		}
	}
	return v, err
}

// ReturnDirect implements mc.Host: the rest of a call that generated code
// made directly (its inline guards stood in for the first half of dispatch,
// its commit for EnterCall) and whose callee did not simply return.
func (e *Engine) ReturnDirect(idx int, args []value.Value, res native.Result, status native.Status, err error) (value.Value, error) {
	st := e.fns[idx]
	v, err := e.returned(st, args, res, status, err)
	e.VM.LeaveCall()
	return v, err
}

// chargeNative books what a native activation reports when it ends: its
// steps against the shared budget, its amortized budget checks, and the
// direct calls generated code has counted since the last time.
func (e *Engine) chargeNative(res native.Result) {
	e.VM.AddSteps(res.Steps)
	if res.Checks > 0 {
		e.blockChecks.Add(res.Checks)
	}
	if e.mcEnv != nil {
		// No direct call, no unwind: one comparison covers both.
		if direct, unwinds := e.mcEnv.Calls(); direct != e.directSeen {
			e.mcDirectCalls.Add(direct - e.directSeen)
			e.mcCallUnwinds.Add(unwinds - e.unwindsSeen)
			e.directSeen, e.unwindsSeen = direct, unwinds
		}
	}
}

// profile records argument type feedback for a not-yet-compiled function.
func (e *Engine) profile(st *fnState, args []value.Value) {
	for i := 0; i < len(st.paramTypes); i++ {
		var t value.Type
		if i < len(args) {
			t = args[i].Type()
		}
		switch {
		case st.paramTypes[i] == value.Undefined && st.calls == 1:
			st.paramTypes[i] = t
		case st.paramTypes[i] == t:
		case st.paramTypes[i] == value.Boolean && t == value.Number,
			st.paramTypes[i] == value.Number && t == value.Boolean:
			st.paramTypes[i] = value.Number
		default:
			st.paramBad[i] = true
		}
	}
}

func (e *Engine) observeReturn(st *fnState, v value.Value) {
	if st.code != nil {
		return // feedback only matters before compilation
	}
	t := v.Type()
	switch {
	case st.retType == value.Undefined:
		st.retType = t
	case st.retType == t:
	case st.retType == value.Number && (t == value.Boolean || t == value.Undefined),
		(st.retType == value.Boolean || st.retType == value.Undefined) && t == value.Number:
		st.retType = value.Number
	default:
		st.retBad = true
	}
}

// compile handles one warmup trigger of function idx: a shared-cache hit
// installs the artifact and replays the verdict immediately; otherwise the
// attempt is enqueued on the background queue (when configured) or run
// inline under the supervisor. Every path implements the three scenarios
// of §V with identical verdict accounting; every failure is typed,
// attributed, and degraded per failCompile.
func (e *Engine) compile(idx int, st *fnState) {
	e.tracer.Instant(obs.CatEngine, obs.FactTrigger, st.fn.Name, obs.I("calls", int64(st.calls)))
	req := e.newCompileRequest(idx, st)

	if req.cacheable {
		if v, ok, fromTier := e.cfg.Cache.GetTiered(req.key); ok {
			e.m.cacheHits.Inc()
			hit := obs.FactCacheHit
			if fromTier {
				hit = obs.FactStoreHit
			}
			e.tracer.Instant(obs.CatEngine, hit, st.fn.Name, st.tierArg())
			e.applyOutcome(st, e.outcomeFromCache(req, v.(*cachedCompile)))
			return
		}
		e.m.cacheMisses.Inc()
		e.tracer.Instant(obs.CatEngine, obs.FactCacheMiss, st.fn.Name)
	}
	if e.cfg.Queue != nil && e.enqueueCompile(st, req) {
		return
	}
	e.applyOutcome(st, e.compileTraced(req, "inline", st.tierArg()))
}

// compileTraced is compileAttempt inside the span that states it: one
// FactCompile per attempt, from whichever goroutine ran it. tier is the
// owner's to pass (a worker must not read fnState, so it passes the zero
// Arg, which takes no slot).
func (e *Engine) compileTraced(req *compileRequest, source string, tier obs.Arg) *compileOutcome {
	sp := e.tracer.Begin(obs.CatCompile, obs.FactCompile, req.fnName)
	start := time.Now()
	o := e.compileAttempt(req)
	e.hCompile.ObserveEx(int64(time.Since(start)), sp.ID())
	e.maybeCachePut(o)
	result, stage := "ok", obs.Arg{}
	if o.cerr != nil {
		result, stage = "fail", obs.S("stage", o.cerr.Stage)
	}
	sp.End(obs.S("result", result), stage, obs.S("source", source), tier)
	return o
}

// RunScript is a convenience: build an engine for src, run it, and return
// the engine for inspection.
func RunScript(src string, cfg Config) (*Engine, value.Value, error) {
	e, err := New(src, cfg)
	if err != nil {
		return nil, value.Undef(), err
	}
	v, err := e.Run()
	return e, v, err
}

// IsCrash reports whether err is a simulated segfault.
func IsCrash(err error) bool {
	var c *heap.CrashError
	return errors.As(err, &c)
}

// IsHijack reports whether err is a control-flow hijack.
func IsHijack(err error) bool {
	var h *HijackError
	return errors.As(err, &h)
}
