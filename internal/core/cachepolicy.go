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
// recorded verdict IS the verdict a fresh run would produce. Replay
// re-records the audit trail and the per-detector match accounting so an
// engine served from the cache is observationally identical to one that
// computed the verdict itself.

import (
	"fmt"

	"github.com/jitbull/jitbull/internal/engine"
	"github.com/jitbull/jitbull/internal/obs"
)

// verdictPayload is the opaque record the engine stores next to a cached
// artifact: the deterministically-sorted matches of one Decide call plus
// the derived decision. Immutable after capture.
type verdictPayload struct {
	found []Match  // sorted as Decide records them; empty = go verdict
	names []string // sorted matched-pass set
	noJIT bool
}

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
func (d *Detector) PolicyCacheKey() (string, bool) {
	if d.DB == nil || d.DB.FailSafe() {
		return "", false
	}
	return fmt.Sprintf("core.Detector/db=%016x/thr=%d/ratio=%g", d.DB.Fingerprint(), d.Thr, d.Ratio), true
}

// TakeVerdictPayload implements engine.CachingPolicy.
func (d *Detector) TakeVerdictPayload() any {
	p := d.last
	d.last = nil
	if p == nil {
		return nil
	}
	return p
}

// ReplayVerdict implements engine.CachingPolicy: it re-applies a recorded
// verdict for fnName — deduplicating the matches into this detector's
// accounting and re-recording the audit event exactly as the live Decide
// would — and returns the decision.
func (d *Detector) ReplayVerdict(fnName string, payload any) engine.CompileDecision {
	p, ok := payload.(*verdictPayload)
	if !ok || p == nil {
		return engine.CompileDecision{}
	}
	if len(p.found) == 0 {
		d.Audit.Append(obs.AuditEvent{Func: fnName, Verdict: obs.VerdictGo})
		return engine.CompileDecision{}
	}
	if d.seen == nil {
		d.seen = map[MatchKey]struct{}{}
	}
	for _, m := range p.found {
		if _, dup := d.seen[m.Key()]; !dup {
			d.seen[m.Key()] = struct{}{}
			d.Matches = append(d.Matches, m)
		}
	}
	if d.Audit != nil {
		verdict := obs.VerdictDisablePass
		if p.noJIT {
			verdict = obs.VerdictNoJIT
		}
		am := make([]obs.AuditMatch, len(p.found))
		for i, m := range p.found {
			am[i] = obs.AuditMatch{
				CVE: m.CVE, VDCFunc: m.VDCFunc, Pass: m.Pass,
				ChainID: m.ChainID, Side: m.Side, Chain: m.Chain(),
			}
		}
		d.Audit.Append(obs.AuditEvent{
			Func:           fnName,
			Verdict:        verdict,
			DisabledPasses: p.names,
			Matches:        am,
			Reason:         "replayed from shared compilation cache",
		})
	}
	if p.noJIT {
		return engine.CompileDecision{NoJIT: true, DisabledPasses: p.names}
	}
	return engine.CompileDecision{DisabledPasses: p.names}
}
