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
	"slices"

	"github.com/jitbull/jitbull/internal/engine"
)

var _ engine.CachingPolicy = (*Detector)(nil)

// PolicyCacheKey implements engine.CachingPolicy. The verdict depends on
// the database's contents and the thresholds; database identity is its
// content Fingerprint — the shared *Database of a RunParallel fleet
// reports one stable value, a mutated or different-content database
// always reports a fresh one, and (unlike the process-unique Generation)
// a restarted process over the same database contents reports the SAME
// one, which is what lets the persistent store replay verdicts across
// process death. Replay is sound precisely because the verdict is a
// deterministic function of (DNA, contents, thresholds): equal contents
// imply equal verdicts regardless of which process computed them. A
// fail-safe database vetoes caching — its NoJIT-everything verdicts are
// a degraded emergency mode, not knowledge worth publishing fleet-wide.
//
// The key also names the witness rule (w=content: a match's witness is
// the smallest shared chain by content). Stores written while the witness
// was the smallest chain ID — which depended on the writing process's
// interning history — hold the same verdicts under other witnesses; the
// rule in the key makes them misses that compile afresh, so no replay
// names a witness a fresh decision would not.
func (d *Detector) PolicyCacheKey() (string, bool) {
	if d.DB == nil || d.DB.FailSafe() {
		return "", false
	}
	return fmt.Sprintf("core.Detector/w=content/db=%016x/thr=%d/ratio=%g", d.DB.Fingerprint(), d.Thr, d.Ratio), true
}

// ReplayDecision implements engine.CachingPolicy: it books a decision
// made for an equal cache key — by this detector, by another engine's, or
// in a process that has since died — exactly as the live Decide booked
// it, and returns it as this process states it. The witness chains travel
// as text (Match.Chain) and are interned again here, as
// Delta.UnmarshalJSON does for a database: the IDs of the process that
// made the decision mean nothing in this one, and NoChain stays NoChain.
// A replayed go verdict carries no reason.
func (d *Detector) ReplayDecision(_ string, dec engine.CompileDecision) engine.CompileDecision {
	if len(dec.Matches) > 0 {
		dec.Reason = "replayed from shared compilation cache"
		dec.Matches = slices.Clone(dec.Matches) // the cached value is shared
		for i := range dec.Matches {
			if m := &dec.Matches[i]; m.ChainID != NoChain {
				m.ChainID = InternChain(m.Chain)
			}
		}
	}
	d.book(dec)
	return dec
}
