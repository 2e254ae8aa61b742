package core

// Verdict caching: Detector implements engine.CachingPolicy so the shared
// cross-engine compilation cache can return a JITBULL verdict together
// with the compiled artifact, without re-running DNA extraction or
// Algorithm 2's comparison. This preserves the paper's decisions exactly:
// the cache key (built by the engine) covers the canonical bytecode, the
// type feedback the MIR was specialized against, the pipeline
// configuration, and — via PolicyCacheKey — the database identity and
// thresholds, so two compilations with equal keys run the identical
// pipeline over identical MIR and extract identical DNA; Algorithms 1–2
// are deterministic functions of that DNA and the database, hence the
// recorded decision IS the decision a fresh run would produce. The engine
// keeps the engine.CompileDecision that Decide returned next to the
// artifact and hands it back on a hit; replay books it (per-detector match
// accounting) through the same function the live decision went through and
// returns it for the engine to state on its decide fact, so an engine
// served from the cache is observationally identical to one that computed
// the verdict itself.

import (
	"fmt"

	"github.com/jitbull/jitbull/internal/engine"
)

var _ engine.CachingPolicy = (*Detector)(nil)

// PolicyCacheKey implements engine.CachingPolicy. The verdict depends on
// the database's contents and the thresholds; database identity is its
// content Fingerprint — a *Database that many engines share reports one
// stable value, and a mutated or different-content database always
// reports a fresh one. Replay is sound precisely because the verdict is a
// deterministic function of (DNA, contents, thresholds): equal contents
// imply equal verdicts whichever detector computed them. A fail-safe
// database vetoes caching: its NoJIT-everything verdicts are a degraded
// emergency mode, not knowledge worth sharing.
func (d *Detector) PolicyCacheKey() (string, bool) {
	if d.DB == nil || d.DB.FailSafe() {
		return "", false
	}
	return fmt.Sprintf("core.Detector/db=%016x/thr=%d/ratio=%g", d.DB.Fingerprint(), d.Thr, d.Ratio), true
}

// ReplayDecision implements engine.CachingPolicy: it books a decision
// made for an equal cache key — by this detector or by another engine's —
// exactly as the live Decide booked it, and returns it as this engine
// states it. A match names its witness by text only, so the decision is
// booked as handed in. A replayed go verdict carries no reason.
func (d *Detector) ReplayDecision(_ string, dec engine.CompileDecision) engine.CompileDecision {
	if len(dec.Matches) > 0 {
		dec.Reason = "replayed from shared compilation cache"
	}
	d.book(dec)
	return dec
}
