// Off-thread tiered compilation and the shared compilation cache.
//
// The synchronous engine compiles Ion inline at the warmup trigger,
// stalling execution for the whole pipeline. With Config.Queue set, the
// trigger instead snapshots every compilation input (type feedback,
// global types, disabled passes), enqueues a supervised job on the
// background pool, and keeps executing in baseline; the finished outcome
// is parked in an atomic mailbox and installed at the next call boundary
// — the engine's safe point — by the owner goroutine, so all fnState and
// quarantine bookkeeping stays single-threaded.
//
// With Config.Cache set, outcomes are additionally published under a
// canonical key (rename/minify-invariant bytecode hash + every other
// compilation input), so a fleet of engines pays for each distinct
// function once: a hit installs the artifact and replays the recorded
// JITBULL verdict without running the pipeline or DNA matching.
//
// Concurrency contract: an Engine remains single-owner — CallFunction,
// Run, Drain and Stats mutation all happen on the goroutine that owns the
// engine. Background workers only ever touch (a) the immutable request
// snapshot, (b) the engine's atomic counters and its tracer (whose sinks
// lock), (c) the policy, serialized by compileMu, and (d) the per-function
// outcome mailbox. Stats() reads atomics and is safe to call from any
// goroutine at any time.
package engine

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"runtime"
	"sort"
	"time"

	"github.com/jitbull/jitbull/internal/ast"
	"github.com/jitbull/jitbull/internal/bytecode"
	"github.com/jitbull/jitbull/internal/jitqueue"
	"github.com/jitbull/jitbull/internal/lir"
	"github.com/jitbull/jitbull/internal/mirbuild"
	"github.com/jitbull/jitbull/internal/obs"
	"github.com/jitbull/jitbull/internal/value"
)

// CachingPolicy is the optional Policy extension the shared cache needs: a
// policy that can identify its decision inputs and book a decision it did
// not just make. A policy that does not implement it (e.g. core.Recorder,
// which must observe every pipeline run) disables caching for its engine.
type CachingPolicy interface {
	Policy
	// PolicyCacheKey identifies everything the policy's verdict depends on
	// besides the function's DNA (database identity, thresholds). ok=false
	// vetoes caching.
	PolicyCacheKey() (key string, ok bool)
	// ReplayDecision books, for fnName, a decision a finish function
	// returned earlier under an equal cache key — audit events and match
	// accounting exactly as that finish booked them. The decision may have
	// crossed a process boundary as JSON on the way.
	ReplayDecision(fnName string, d CompileDecision)
}

// errEscapedPanic marks an outcome fabricated because a panic unwound a
// background compile job past the supervisor's recovery: the owner treats
// it like any other contained panic (quarantine with backoff) instead of
// leaving the function inflight forever.
var errEscapedPanic = errors.New("panic escaped the background compile job")

// compileRequest is the immutable snapshot of one compilation's inputs,
// captured on the owner goroutine at trigger time. Workers read it; nobody
// writes it after capture.
type compileRequest struct {
	idx    int
	fnName string
	fd     *ast.FuncDecl
	// opts carries snapshot-backed type closures: async compilation must
	// not read live VM state from a worker.
	opts       mirbuild.Options
	disabled   map[string]bool // private copy of the function's disabled passes
	async      bool
	key        jitqueue.Key
	cacheable  bool
	waitSpan   obs.Span  // compile.queue_wait: begun at enqueue, ended by the worker
	enqueuedAt time.Time // queue-wait / install-lag histogram epoch
}

// compileOutcome is everything a finished attempt needs applied to the
// owning fnState at the safe point.
type compileOutcome struct {
	req         *compileRequest
	code        *lir.Code
	cerr        *CompileError
	jitEligible bool            // mirbuild succeeded
	decision    CompileDecision // the policy's verdict (zero: none was asked)
	fromCache   bool
}

// cachedCompile is the cache value: the artifact plus the decision it was
// compiled under. The artifact is installed by pointer — native execution
// never mutates lir.Code, so one compilation serves any number of engines
// and threads.
//
// It is also the store's record (persist.go): the fields are exported, and
// tagged, for encoding/json and nobody else.
type cachedCompile struct {
	Decision    CompileDecision `json:"decision"`
	JitEligible bool            `json:"jit_eligible,omitempty"`
	Code        *lir.Code       `json:"code,omitempty"` // nil for a NoJIT verdict
}

// disabledAfter is what a decision does to the disabled-pass set its
// compilation was requested with: the set the function carries from now on
// (nil: unchanged — a go verdict, or NoJIT, where no code is left to
// compile) and whether the decision grew it, which is scenario 2's
// recompile. The requested set is part of the cache key, so the live path
// and a cache hit compute the same answer from the same inputs.
func disabledAfter(requested map[string]bool, d CompileDecision) (final map[string]bool, grew bool) {
	if d.NoJIT || len(d.DisabledPasses) == 0 {
		return nil, false
	}
	final = make(map[string]bool, len(requested)+len(d.DisabledPasses))
	for name, on := range requested {
		final[name] = on
	}
	for _, name := range d.DisabledPasses {
		if !final[name] {
			final[name] = true
			grew = true
		}
	}
	return final, grew
}

// decide states FactDecide — the one place that does — around judge, which
// produces the decision: the policy's finish function on a live compile,
// the replay of the cached decision on a hit (source "cache").
func (e *Engine) decide(fnName, source string, judge func() CompileDecision) CompileDecision {
	sp := e.tracer.Begin(obs.CatPolicy, obs.FactDecide, fnName)
	d := judge()
	var src obs.Arg
	if source != "" {
		src = obs.S("source", source)
	}
	sp.End(obs.S("verdict", string(d.Verdict())), obs.I("disabled", int64(len(d.DisabledPasses))), src)
	return d
}

// sizeEstimate approximates the artifact's footprint for cache.bytes.
func (c *cachedCompile) sizeEstimate() int64 {
	s := int64(64)
	if c.Code != nil {
		s += int64(len(c.Code.Ops)) * 32
	}
	return s
}

// newCompileRequest snapshots every input of one compilation attempt.
// Must run on the owner goroutine.
func (e *Engine) newCompileRequest(idx int, st *fnState) *compileRequest {
	if len(e.cfg.DisabledPasses) > 0 && st.disabledPasses == nil {
		st.disabledPasses = map[string]bool{}
		for _, name := range e.cfg.DisabledPasses {
			st.disabledPasses[name] = true
		}
	}
	params := make([]value.Type, len(st.paramTypes))
	copy(params, st.paramTypes)
	for i, bad := range st.paramBad {
		if bad {
			params[i] = value.String // poisoned: mirbuild rejects it
		}
	}
	gtypes := make([]value.Type, len(e.VM.Globals))
	for i, g := range e.VM.Globals {
		gtypes[i] = g.Type()
	}
	rets := make([]value.Type, len(e.fns))
	for i, target := range e.fns {
		switch {
		case target.retBad:
			rets[i] = value.String // poisoned
		case target.retType == value.Undefined:
			rets[i] = value.Number // undefined flows as NaN
		default:
			rets[i] = target.retType
		}
	}
	var disabled map[string]bool
	if st.disabledPasses != nil {
		disabled = make(map[string]bool, len(st.disabledPasses))
		for name, on := range st.disabledPasses {
			disabled[name] = on
		}
	}
	req := &compileRequest{
		idx:    idx,
		fnName: st.fn.Name,
		fd:     st.fd,
		opts: mirbuild.Options{
			ParamTypes: params,
			GlobalType: func(slot int) value.Type { return gtypes[slot] },
			ReturnType: func(fnIdx int) value.Type { return rets[fnIdx] },
			OSR:        e.cfg.OSR,
			Speculate:  e.cfg.Speculate,
		},
		disabled: disabled,
	}
	req.key, req.cacheable = e.cacheKey(st, params, gtypes, rets, disabled)
	return req
}

// cacheKey digests every compilation input into the shared-cache key.
// ok=false means this engine's configuration is not cacheable: a custom
// pipeline or fault injection makes outcomes non-reproducible, and a
// policy must opt in via CachingPolicy.
func (e *Engine) cacheKey(st *fnState, params, gtypes, rets []value.Type, disabled map[string]bool) (jitqueue.Key, bool) {
	if e.cfg.Cache == nil || e.cfg.Passes != nil || e.cfg.Faults != nil {
		return jitqueue.Key{}, false
	}
	pkey := ""
	if e.policy != nil {
		cp, ok := e.policy.(CachingPolicy)
		if !ok {
			return jitqueue.Key{}, false
		}
		k, ok := cp.PolicyCacheKey()
		if !ok {
			return jitqueue.Key{}, false
		}
		pkey = k
	}

	h := sha256.New()
	var buf [8]byte
	wu32 := func(v uint32) {
		binary.LittleEndian.PutUint32(buf[:4], v)
		h.Write(buf[:4])
	}
	ws := func(s string) {
		wu32(uint32(len(s)))
		h.Write([]byte(s))
	}
	ch := st.fn.CanonicalHash()
	h.Write(ch[:])
	// Type feedback the artifact was specialized against: parameters
	// (poison included), every referenced global slot, every callee's
	// assumed return type. Slots and indices are declaration-order stable,
	// so the whole key survives rename/minify.
	wu32(uint32(len(params)))
	for _, t := range params {
		h.Write([]byte{byte(t)})
	}
	slots := map[int]bool{}
	callees := map[int]bool{}
	for _, in := range st.fn.Code {
		switch in.Op {
		case bytecode.OpLoadGlobal, bytecode.OpStoreGlobal:
			slots[int(in.A)] = true
		case bytecode.OpCall:
			callees[int(in.A)] = true
		}
	}
	for _, slot := range sortedInts(slots) {
		wu32(uint32(slot))
		h.Write([]byte{byte(gtypes[slot])})
	}
	for _, idx := range sortedInts(callees) {
		wu32(uint32(idx))
		if idx < len(rets) {
			h.Write([]byte{byte(rets[idx])})
		}
	}
	// Pipeline configuration.
	for _, bug := range sortedSet(map[string]bool(e.cfg.Bugs)) {
		ws(bug)
	}
	h.Write([]byte{0})
	for _, name := range sortedSet(disabled) {
		ws(name)
	}
	if e.cfg.CheckIR {
		h.Write([]byte{1})
	} else {
		h.Write([]byte{0})
	}
	// Fused and unfused artifacts execute identically, but the cached
	// *lir.Code carries its fused form by pointer — keep the tiers'
	// artifacts distinct so a NoFuse engine never installs a fused one.
	if e.cfg.NoFuse {
		h.Write([]byte{1})
	} else {
		h.Write([]byte{0})
	}
	// OSR frame maps and speculation guards change the artifact's shape
	// (markers, side tables, KCallSpec ops) without changing semantics —
	// keep the variants distinct so an OSR engine never installs an
	// artifact with no OSR entries and vice versa.
	if e.cfg.OSR {
		h.Write([]byte{1})
	} else {
		h.Write([]byte{0})
	}
	if e.cfg.Speculate {
		h.Write([]byte{1})
	} else {
		h.Write([]byte{0})
	}
	// The machine-code tier attaches per-engine (units never ride the
	// cached artifact), but an mc engine's entries are still keyed apart,
	// tagged with the architecture that would lower them, so any future
	// side-table rider can never be installed cross-tier or cross-arch.
	if e.mcActive() {
		ws("mc/" + runtime.GOARCH)
	} else {
		ws("")
	}
	ws(pkey)
	var k jitqueue.Key
	h.Sum(k[:0])
	return k, true
}

func sortedInts(set map[int]bool) []int {
	out := make([]int, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

func sortedSet(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for v, on := range set {
		if on {
			out = append(out, v)
		}
	}
	sort.Strings(out)
	return out
}

// enqueueCompile hands the attempt to the background pool, reporting
// false when the queue is saturated (the caller compiles synchronously —
// back-pressure degrades to the old inline behavior, never an unbounded
// backlog).
func (e *Engine) enqueueCompile(st *fnState, req *compileRequest) bool {
	req.async = true
	e.tracer.Instant(obs.CatCompile, obs.FactEnqueue, req.fnName,
		obs.I("queue_depth", e.cfg.Queue.Depth()), st.tierArg())
	req.waitSpan = e.tracer.Begin(obs.CatCompile, obs.FactQueueWait, req.fnName)
	req.enqueuedAt = time.Now()
	e.inflight.Add(1)
	ok := e.cfg.Queue.Submit(jitqueue.Job{
		Owner: req.fnName,
		Run: func() {
			defer e.inflight.Done()
			// Park whatever outcome exists when the closure unwinds — the
			// placeholder failure if a panic escapes compileAttempt's
			// recovery (cache put, tracer, a hook) — so the owner always has
			// an applyable outcome and the function is never wedged with
			// st.inflight set forever. The panic itself still propagates to
			// the queue's last-resort recorder.
			o := &compileOutcome{req: req, cerr: &CompileError{
				Func: req.fnName, Stage: StageQueue, Err: errEscapedPanic, Panicked: true,
			}}
			defer func() { st.pending.Store(o) }()
			req.waitSpan.End()
			e.hQueueWait.ObserveEx(int64(time.Since(req.enqueuedAt)), req.waitSpan.ID())
			if e.testQueueJobHook != nil {
				e.testQueueJobHook()
			}
			// Stated through the immutable request only: a worker must not
			// read owner-mutated fnState (st.tier), per the concurrency
			// contract.
			o = e.compileTraced(req, "queue", obs.Arg{})
		},
	})
	if !ok {
		e.inflight.Done()
		req.waitSpan.End(obs.S("result", "rejected"))
		req.async = false
		return false
	}
	st.inflight = true
	e.publishCall(st)
	e.m.asyncCompiles.Inc()
	// Give a worker a scheduling slot right away. On GOMAXPROCS=1 the
	// owner would otherwise spin in the interpreter until the runtime's
	// ~10ms async preemption kicks in, turning every compile window into
	// a fixed 10ms of baseline-tier execution; on multi-core hosts an
	// idle P picks the job up anyway and the yield is a no-op.
	runtime.Gosched()
	return true
}

// maybeCachePut publishes a finished attempt: successful artifacts and
// deterministic NoJIT verdicts, never transient failures. First store
// wins, so racing engines converge on one artifact+verdict.
func (e *Engine) maybeCachePut(o *compileOutcome) {
	if !o.req.cacheable || o.fromCache {
		return
	}
	cc := &cachedCompile{Decision: o.decision, JitEligible: o.jitEligible}
	switch {
	case o.cerr == nil:
		cc.Code = o.code
	case o.decision.NoJIT:
		// Deterministic: published without an artifact.
	default:
		return // transient failure: let the next engine try fresh
	}
	e.cfg.Cache.Put(o.req.key, cc, cc.sizeEstimate())
}

// outcomeFromCache turns a cache hit into an applyable outcome: the
// artifact by pointer, the policy's decision replayed (audit + match
// accounting identical to a live decision), and for NoJIT the same typed
// error the live pipeline produces — so quarantine/permanent semantics
// are bit-for-bit those of a cold compile.
func (e *Engine) outcomeFromCache(req *compileRequest, cc *cachedCompile) *compileOutcome {
	o := &compileOutcome{
		req:         req,
		fromCache:   true,
		jitEligible: cc.JitEligible,
		decision:    cc.Decision,
	}
	if cp, ok := e.policy.(CachingPolicy); ok && cp.Active() {
		e.decide(req.fnName, "cache", func() CompileDecision {
			// Replay mutates the policy's match accounting (Detector.seen /
			// Matches / audit), and a queued compile of another function may
			// concurrently be inside BeginCompile/Decide on a worker — so the
			// replay takes compileMu like every other policy touch.
			e.compileMu.Lock()
			cp.ReplayDecision(req.fnName, cc.Decision)
			e.compileMu.Unlock()
			return cc.Decision
		})
	}
	if cc.Decision.NoJIT {
		o.cerr = newCompileError(req.fnName, StagePolicy, ErrPolicyNoJIT)
	} else {
		o.code = cc.Code
	}
	return o
}

// applyOutcome installs a finished attempt into the owning fnState. It is
// the single writer of all post-compile engine state — tier, quarantine,
// verdict counters — and always runs on the owner goroutine (inline for
// sync compiles and cache hits, at the next call boundary or Drain for
// async ones), which is what keeps the engine race-free with a background
// queue attached.
func (e *Engine) applyOutcome(st *fnState, o *compileOutcome) {
	st.inflight = false
	e.publishCall(st)
	if o.jitEligible {
		st.jitEligible = true
	}
	// Policy verdict accounting, identical across sync, async and cached
	// paths (acceptance: the mode may move *when* a verdict lands, never
	// which verdict or how it is counted).
	disabled, grew := disabledAfter(o.req.disabled, o.decision)
	if disabled != nil {
		st.disabledPasses = disabled
	}
	if grew || o.decision.NoJIT {
		if !st.counted {
			st.counted = true
			e.m.nrJIT.Inc()
		}
		if grew {
			e.m.nrDisJIT.Inc()
		}
		if o.decision.NoJIT {
			e.m.nrNoJIT.Inc()
		}
	}
	if o.cerr != nil {
		e.failCompile(st, o.cerr)
		return
	}
	wasQuarantined := st.quar == qQuarantined
	if !st.counted {
		st.counted = true
		e.m.nrJIT.Inc()
	}
	st.code = o.code
	st.tier = tierIon
	st.bailouts = 0
	// A fresh artifact gets a fresh OSR/deopt history: the cooldown and the
	// deopt count judged the discarded code, not this one.
	st.osrCooldown = nil
	st.deopts = 0
	// A fresh artifact gets a fresh machine-code attach: the unit belonged
	// to the discarded code. This is the single attach site for every
	// install path — sync, async, cache, store — so top-tier selection
	// cannot depend on how the artifact arrived.
	st.mcu = nil
	e.attachMC(st)
	switch topTierName(st) {
	case "mc":
		e.m.tierMC.Inc()
	case "fused":
		e.m.tierFused.Inc()
	default:
		e.m.tierSwitch.Inc()
	}
	e.tracer.Instant(obs.CatEngine, obs.FactTier, st.fn.Name, obs.S("top", topTierName(st)), st.tierArg())
	if wasQuarantined {
		// A quarantined function compiled cleanly on retry: requalify.
		st.quar = qNone
		st.attempts = 0
		e.m.requalified.Inc()
		e.tracer.Instant(obs.CatEngine, obs.FactRequalified, st.fn.Name,
			obs.S("reason", "clean recompile after quarantine"), st.tierArg())
	}
	source := "inline"
	switch {
	case o.fromCache:
		source = "cache"
	case o.req.async:
		source = "queue"
		e.m.asyncInstalls.Inc()
		// Install lag: warmup trigger → safe-point install, the window
		// the function kept executing in baseline. Exemplar-linked to
		// the queue-wait span, whose trace covers the same window.
		e.hInstallLag.ObserveEx(int64(time.Since(o.req.enqueuedAt)), o.req.waitSpan.ID())
	}
	e.tracer.Instant(obs.CatCompile, obs.FactInstall, st.fn.Name, obs.S("source", source),
		obs.I("ops", int64(len(o.code.Ops))), obs.I("regs", int64(o.code.NumRegs)), st.tierArg())
}

// Drain waits for every in-flight background compilation of this engine
// and applies the outcomes, leaving the engine in the state a synchronous
// engine reaches after the same triggers. Run calls it automatically; call
// it directly when driving CallFunction by hand with a queue attached.
// Owner goroutine only.
func (e *Engine) Drain() {
	if e.cfg.Queue == nil {
		return
	}
	e.inflight.Wait()
	for _, st := range e.fns {
		if o := st.pending.Swap(nil); o != nil {
			e.applyOutcome(st, o)
		}
	}
}
