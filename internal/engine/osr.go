// Loop-header on-stack replacement and guard-based deoptimization.
//
// OnBackEdge is the engine half of the OSR contract with the interpreter
// (interp.OSRHook): the VM calls it at every backward unconditional jump
// with an empty operand stack, handing over the live locals. The engine
// triggers compilation off the interpreter's back-edge count (so a single
// long-running call can warm up without ever returning to a call boundary;
// hot's callee rule is skipped, there being no boundary to wait at),
// installs pending async artifacts mid-loop (the OSR-capable safe point),
// and — when Ion code with an eligible frame map for this loop header
// exists — transfers execution into native code at the equivalent pc by
// materializing registers from the frame map.
//
// The reverse transition is handleDeopt: a KCallSpec speculation guard
// that observes a non-number result returns StatusDeopt with a fully
// reconstructed interpreter frame, and the engine resumes interpretation
// immediately after the guarded store. The resumed frame is an ordinary
// interpreted one, so its loop's next back edge may OSR back in: into the
// same artifact when the flip was transient, or — once the storm rule has
// discarded it — into the unspeculated recompile. Both transitions are
// semantically invisible: Result, Steps, bailout points and policy verdicts
// are bit-identical with OSR/deopt on or off (the difftest matrix pins it).
//
// Failure policy: a deopt storm (maxDeoptsBeforeRequalify guard failures
// of one artifact) does not blacklist the function — it discards the
// artifact, disables the TypeSpeculation pass for this function, and lets
// the next warm-up trigger (a back edge of the resumed loop, or a call)
// recompile it unspeculated.
package engine

import (
	"time"

	"github.com/jitbull/jitbull/internal/bytecode"
	"github.com/jitbull/jitbull/internal/faults"
	"github.com/jitbull/jitbull/internal/native"
	"github.com/jitbull/jitbull/internal/obs"
	"github.com/jitbull/jitbull/internal/value"
)

// OnBackEdge implements interp.OSRHook. done=false means the interpreter
// keeps running the loop (no artifact, ineligible entry, cooldown, or a
// refused transition — all semantically neutral); done=true means native
// code ran the activation to completion (or deopt-resumed interpretation
// did) and the caller's frame is abandoned.
func (e *Engine) OnBackEdge(fn *bytecode.Function, targetPC int, locals []value.Value) (value.Value, bool, error) {
	idx := fn.Index
	if idx < 0 || idx >= len(e.fns) {
		return value.Undef(), false, nil
	}
	st := e.fns[idx]
	if st.fd == nil {
		return value.Undef(), false, nil
	}

	// Safe point: a background compilation that finished while this loop
	// was spinning installs here, mid-loop, instead of waiting for a call
	// boundary the loop may never reach.
	if st.inflight {
		if o := st.pending.Swap(nil); o != nil {
			e.applyOutcome(st, o)
		}
	}

	if st.code == nil && !st.inflight && e.VM.BackEdges[idx] >= e.cfg.IonThreshold && e.mayCompile(st) {
		e.compile(idx, st)
	}
	if st.code == nil {
		return value.Undef(), false, nil
	}

	// Only loop headers with a frame map are entry points, and only when
	// regalloc proved nothing outside the map is live there. The cooldown
	// is per ordinal: a header whose types refused materialization must not
	// park the function's other loops (a warm-up loop spins before the hot
	// one in the same function all the time).
	site, ok := fn.OSRSiteAt(targetPC)
	if !ok || st.osrCooldown[site.Ordinal] {
		return value.Undef(), false, nil
	}
	entryIdx := -1
	for i := range st.code.OSREntries {
		if st.code.OSREntries[i].Ordinal == int32(site.Ordinal) {
			entryIdx = i
			break
		}
	}
	if entryIdx < 0 || !st.code.OSREntries[entryIdx].Eligible {
		return value.Undef(), false, nil
	}

	// Control-flow integrity: entering overwritten code mid-loop would run
	// the attacker's payload. Refusing (rather than erroring) keeps the
	// hijack observation identical to the OSR-off engine, which detects the
	// overwrite at the next call through the pointer.
	if !e.arena.CodePointerOK(idx) {
		return value.Undef(), false, nil
	}

	// Chaos injection point: a fired fault refuses the transition — the
	// interpreter keeps the loop, semantics unchanged — with the same 1:1
	// typed accounting as every compile-path fault.
	if e.transitionFault(faults.PointOSR, StageOSR, st) {
		return value.Undef(), false, nil
	}

	budget, err := e.nativeBudget(st)
	if err != nil {
		return value.Undef(), true, err
	}

	sp := e.tracer.Begin(obs.CatEngine, obs.FactOSREnter, fn.Name)
	start := time.Now()
	var (
		res     native.Result
		status  native.Status
		entered bool
	)
	if st.mcu != nil {
		// Machine-code tier: same frame-map materialization, same strict
		// refusal policy; budget/guard exits delegate to the switch tier so
		// the observable activation is bit-identical to the native path.
		res, status, err, entered = st.mcu.ExecOSR(entryIdx, locals, e, budget, &e.pool)
	} else {
		res, status, err, entered = native.ExecOSR(st.code, entryIdx, locals, e, budget, &e.pool, e.cfg.NoFuse)
	}
	if !entered {
		// Materialization refused (a local's runtime type contradicted the
		// frame map's static kind). Cool this entry down: the types that
		// block it now will block it on every later iteration.
		e.coolDown(st, site.Ordinal)
		sp.End(obs.S("result", "declined"), obs.I("ordinal", int64(site.Ordinal)))
		return value.Undef(), false, nil
	}
	// The transfer happened: registers were materialized and native code
	// ran, however the activation ends (return, deopt, bailout, error).
	e.m.osrEntries.Inc()
	e.hOSREntry.ObserveEx(int64(time.Since(start)), sp.ID())
	e.chargeNative(res)
	result := "ok"
	switch {
	case err != nil:
		result = "error"
	case status == native.StatusDeopt:
		result = "deopt"
	case status == native.StatusBail:
		result = "bail"
	}
	sp.End(obs.S("result", result), obs.I("ordinal", int64(site.Ordinal)), obs.I("steps", res.Steps), st.tierArg())
	switch {
	case err != nil:
		return value.Undef(), true, err
	case status == native.StatusOK:
		return res.Value(), true, nil
	case status == native.StatusDeopt:
		return e.handleDeopt(st, res.Deopt)
	default: // StatusBail
		if !e.bailed(st, res) {
			// The guard that bailed sits inside the loop; without a cooldown
			// every later iteration would re-enter and re-bail.
			e.coolDown(st, site.Ordinal)
		}
		return value.Undef(), false, nil
	}
}

// discardArtifact drops st's compiled code together with the OSR/deopt
// history that judged it: the cooldown ordinals and the deopt count are
// facts about the discarded artifact, not the function. Leaving them
// behind would leak the cooldown map across blacklist/requalify cycles
// (it only used to shrink on a successful install) and pre-poison the
// next artifact's loop headers with verdicts about code that no longer
// exists.
func (e *Engine) discardArtifact(st *fnState) {
	st.code = nil
	// The machine-code unit is compiled from the discarded code; drop it
	// with the artifact. Only the reference goes here: an activation of the
	// discarded code may still be on the stack (a deopt storm discards from
	// inside one), so the W^X mapping is unmapped by the unit's finalizer
	// once nothing can reach it, never eagerly.
	st.mcu = nil
	e.publishCall(st)
	st.osrCooldown = nil
	st.deopts = 0
}

// coolDown parks one OSR entry ordinal for the current artifact; a fresh
// install clears the map (see applyOutcome), as does any artifact discard
// (see discardArtifact).
func (e *Engine) coolDown(st *fnState, ordinal int) {
	if st.osrCooldown == nil {
		st.osrCooldown = make(map[int]bool, 1)
	}
	st.osrCooldown[ordinal] = true
}

// handleDeopt finishes a speculation-guard failure surfaced by the native
// tier (from an OSR entry or a regular call dispatch): account it, apply
// the storm policy, and resume interpretation just past the guarded store
// with the reconstructed frame. The resumed frame may OSR back in at its
// loop's next back edge, which nests one ExecFrom per re-entry that deopts
// again. The nesting is bounded: every level is a deopt of one artifact,
// and the maxDeoptsBeforeRequalify-th discards it for code without
// speculation guards, which has no deopt exits.
func (e *Engine) handleDeopt(st *fnState, d *native.DeoptState) (value.Value, bool, error) {
	e.m.deoptExits.Inc()
	st.deopts++
	e.tracer.Instant(obs.CatEngine, obs.FactDeopt, st.fn.Name,
		obs.I("exit", int64(d.Exit)), obs.I("deopts", int64(st.deopts)), st.tierArg())

	// Resolve the resume point before any storm handling can discard the
	// artifact the exit index refers into.
	exit := &st.code.DeoptExits[d.Exit]
	site, ok := st.fn.SpecSiteByOrdinal(int(exit.Ordinal))

	// Chaos injection point. Unlike PointOSR the transition cannot be
	// refused — the guard already failed and the native frame is gone, so
	// state reconstruction is mandatory — but the fault is still recorded
	// with full 1:1 accounting before the exit completes.
	e.transitionFault(faults.PointDeopt, StageDeopt, st)

	if st.deopts >= maxDeoptsBeforeRequalify {
		// Deopt storm: the type assumption is simply wrong for this
		// workload. Instead of the old blacklist-only path, requalify the
		// function without speculation — discard the artifact and let the
		// next warmup trigger recompile it with TypeSpeculation disabled.
		e.discardArtifact(st)
		if st.disabledPasses == nil {
			st.disabledPasses = map[string]bool{}
		}
		st.disabledPasses["TypeSpeculation"] = true
		e.m.loopsRequalified.Inc()
		e.tracer.Instant(obs.CatEngine, obs.FactRequalified, st.fn.Name, obs.S("stage", StageDeopt),
			obs.S("reason", "deopt storm: requalified with TypeSpeculation disabled"), st.tierArg())
	}
	if !ok {
		// No resume site for the exit's ordinal: a frame-map bug, not a
		// user-program condition (the compiler records a SpecSite for every
		// snapshot the builder emits). Fail safe as a bailout.
		e.m.bailouts.Inc()
		st.bailouts++
		return value.Undef(), false, nil
	}

	// Slots past the frame map are dead here (the exit's map covers every
	// slot its resume point can read): ExecFrom leaves them undefined, like
	// a fresh frame.
	v, err := e.VM.ExecFrom(st.fn, d.Locals, site.ResumePC)
	return v, true, err
}

// transitionFault evaluates one hit of a tier-transition fault point
// (PointOSR, PointDeopt) with containment: an injected error or panic is
// recorded as a typed, stage-attributed CompileError — the same 1:1
// accounting the chaos suite matches against the injector — and reported
// as refused=true. Non-injected panics are genuine engine bugs and
// propagate.
func (e *Engine) transitionFault(p faults.Point, stage string, st *fnState) (refused bool) {
	if e.cfg.Faults == nil {
		return false
	}
	defer func() {
		if r := recover(); r != nil {
			if _, ok := faults.FromPanic(r); !ok {
				panic(r)
			}
			e.recordCompileError(panicToCompileError(st.fn.Name, stage, r))
			refused = true
		}
	}()
	if err := e.cfg.Faults.Check(p, st.fn.Name); err != nil {
		e.recordCompileError(newCompileError(st.fn.Name, stage, err))
		return true
	}
	return false
}
