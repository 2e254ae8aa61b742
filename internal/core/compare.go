package core

import (
	"slices"
	"sort"

	"github.com/jitbull/jitbull/internal/engine"
	"github.com/jitbull/jitbull/internal/mir"
	"github.com/jitbull/jitbull/internal/obs"
	"github.com/jitbull/jitbull/internal/passes"
)

// CompareChains implements the COMPARECHAINS function of Algorithm 2: two
// sub-chain sets are similar when the number of chains in common reaches
// both the absolute threshold Thr and the fraction Ratio of the maximum
// possible (the smaller set's size). Inputs are sorted interned chain-ID
// sets (as produced by the extractor or InternChains); because chain IDs
// are bijective with chain contents, the verdict is identical to the
// string-based reference.
func CompareChains(a, b []uint32, ratio float64, thr int) bool {
	maxEq := len(a)
	if len(b) < maxEq {
		maxEq = len(b)
	}
	if maxEq == 0 {
		return false
	}
	eq := 0
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			eq++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return eq >= thr && float64(eq) >= ratio*float64(maxEq)
}

// SimilarDeltas reports whether Δ_i^f ≈ Δ_i^f' — either the removed or
// the added sub-chain sets are similar (Algorithm 2, lines 14-16).
func SimilarDeltas(a, b Delta, ratio float64, thr int) bool {
	return CompareChains(a.Removed, b.Removed, ratio, thr) ||
		CompareChains(a.Added, b.Added, ratio, thr)
}

// Detector is the Δ comparator plus go/no-go policy. It implements
// engine.Policy: install it with Engine.SetPolicy. With an empty database
// Active reports false and the engine skips all snapshotting (zero
// overhead, as §V requires). Comparison goes through the database's
// compiled MatchIndex, so a compilation's finish step visits only deltas
// sharing at least one chain with the candidate DNA.
type Detector struct {
	DB    *Database
	Thr   int
	Ratio float64

	// Matches accumulates every distinct (CVE, VDCFunc, Pass) similarity
	// found (for evaluation runs), each carrying the witness-chain
	// attribution of its first sighting. Duplicates across compilations are
	// suppressed by identity (MatchKey), so the slice stays bounded by the
	// database size on long runs; call Reset to reuse the detector across
	// runs.
	Matches []obs.Match

	// Audit, when set, receives one structured event per go/no-go verdict,
	// with the full match attribution (CVE, VDC function, pass, witness
	// chain).
	Audit *obs.AuditLog
	// Metrics, when set, receives the "dna.delta_chains" histogram (per-pass
	// Δ chain-set sizes of candidate DNAs), "dna.index_probes" (entries
	// scored per match-index query) and "dna.pair_cands" (size of the Δ
	// pairing search, gone chains × new chains after the maxPairCands
	// truncation, per non-empty Δ — the super-linear term of extraction).
	Metrics *obs.Registry

	seen      map[obs.MatchKey]struct{}
	scratch   matchScratch
	found     []obs.Match
	deltaHist *obs.Histogram
	probeHist *obs.Histogram
	pairHist  *obs.Histogram
}

// pairCandBuckets bound "dna.pair_cands": ×16 per bucket up to
// maxPairCands² (obs.SizeBuckets stops two orders of magnitude short).
var pairCandBuckets = []int64{1, 16, 256, 4096, 65536, maxPairCands * maxPairCands}

// resolveHists binds the detector's histograms on first use (Metrics is a
// public field set after construction). Nil histograms discard.
func (d *Detector) resolveHists() {
	if d.Metrics != nil && d.deltaHist == nil {
		d.deltaHist = d.Metrics.Histogram("dna.delta_chains", obs.SizeBuckets)
		d.probeHist = d.Metrics.Histogram("dna.index_probes", obs.SizeBuckets)
		d.pairHist = d.Metrics.Histogram("dna.pair_cands", pairCandBuckets)
	}
}

// NewDetector creates a detector over db with the paper's default
// threshold (3) and ratio (50%).
func NewDetector(db *Database) *Detector {
	return &Detector{DB: db, Thr: DefaultThr, Ratio: DefaultRatio}
}

var _ engine.Policy = (*Detector)(nil)

// Active implements engine.Policy. A fail-safe database is active even
// though it is empty: its verdict (NoJIT for everything) must reach the
// engine.
func (d *Detector) Active() bool {
	return d.DB != nil && (d.DB.FailSafe() || d.DB.Size() > 0)
}

// Reset clears the accumulated matches so the detector can be reused
// across evaluation runs.
func (d *Detector) Reset() {
	d.Matches = nil
	d.seen = nil
}

// BeginCompile implements engine.Policy: it returns an observer that
// extracts the function's DNA pass by pass, and a finish function that
// produces the go/no-go decision via Decide.
func (d *Detector) BeginCompile(fnName string) (passes.Observer, func() engine.CompileDecision) {
	if d.DB != nil && d.DB.FailSafe() {
		// The real database could not be trusted: no DNA to compare
		// against, so take no snapshots and veto every compilation.
		return nil, func() engine.CompileDecision {
			dec := engine.CompileDecision{NoJIT: true}
			d.book(fnName, dec, "fail-safe database: vetoing every compilation")
			return dec
		}
	}
	d.resolveHists()
	dna := DNA{FuncName: fnName, Passes: map[string]Delta{}}
	de := newDeltaExtractor()
	observe := func(_ int, passName string, before, after *mir.Snapshot) {
		if before == nil || after == nil {
			return // pass skipped (already disabled)
		}
		delta := de.delta(before, after)
		if !delta.Empty() {
			dna.Passes[passName] = delta
			d.pairHist.Observe(int64(de.pairCands))
		}
	}
	finish := func() engine.CompileDecision {
		de.release()
		return d.Decide(&dna)
	}
	return observe, finish
}

// Decide compares one function's DNA against the whole database (the
// finish step of Algorithm 2), books the verdict and returns it. Its
// verdicts are defined to be identical to ReferenceDetector.Decide's.
func (d *Detector) Decide(dna *DNA) engine.CompileDecision {
	if d.DB == nil {
		return engine.CompileDecision{}
	}
	if d.DB.FailSafe() {
		return engine.CompileDecision{NoJIT: true}
	}
	d.resolveHists()
	idx := d.DB.Index(d.Thr)
	found := d.found[:0]
	for passName, fdelta := range dna.Passes {
		passName := passName
		d.deltaHist.Observe(int64(len(fdelta.Removed) + len(fdelta.Added)))
		idx.query(passName, fdelta, d.Ratio, d.Thr, &d.scratch, func(cve, vdcFunc string, chain uint32, side matchSide) {
			m := obs.Match{CVE: cve, VDCFunc: vdcFunc, Pass: passName, ChainID: chain, Side: side.String()}
			if chain != NoChain {
				m.Chain = ChainString(chain)
			}
			found = append(found, m)
		})
		d.probeHist.Observe(int64(d.scratch.probes))
	}
	d.found = found[:0]
	dec := decisionOf(found)
	d.book(dna.FuncName, dec, "")
	return dec
}

// decisionOf derives the go/no-go decision from the matches of one
// compilation: every matched pass is disabled, and one that cannot be
// (scenario 3, §IV-C) denies the JIT for the function. The matches are
// copied — found is scratch the next compilation reuses — in the order
// they are booked.
func decisionOf(found []obs.Match) engine.CompileDecision {
	if len(found) == 0 {
		return engine.CompileDecision{}
	}
	// dna.Passes iteration is randomized; order deterministically
	// (attribution fields break the rare key tie).
	sort.Slice(found, func(i, j int) bool {
		a, b := found[i], found[j]
		if a.CVE != b.CVE {
			return a.CVE < b.CVE
		}
		if a.VDCFunc != b.VDCFunc {
			return a.VDCFunc < b.VDCFunc
		}
		if a.Pass != b.Pass {
			return a.Pass < b.Pass
		}
		if a.Side != b.Side {
			return a.Side < b.Side
		}
		return a.ChainID < b.ChainID
	})
	dec := engine.CompileDecision{Matches: append([]obs.Match(nil), found...)}
	for _, m := range found {
		if !slices.Contains(dec.DisabledPasses, m.Pass) {
			dec.DisabledPasses = append(dec.DisabledPasses, m.Pass)
			dec.NoJIT = dec.NoJIT || !passes.Disableable(m.Pass)
		}
	}
	sort.Strings(dec.DisabledPasses)
	return dec
}

// book records one verdict for fnName in the detector's accounting — the
// only place that does: matches not seen before join Matches, and the
// audit log gets the event. A decision made by this detector (Decide, the
// fail-safe veto) and one replayed from the shared cache
// (ReplayDecision) differ in reason alone.
func (d *Detector) book(fnName string, dec engine.CompileDecision, reason string) {
	if d.seen == nil && len(dec.Matches) > 0 {
		d.seen = map[obs.MatchKey]struct{}{}
	}
	for _, m := range dec.Matches {
		if _, dup := d.seen[m.Key()]; !dup {
			d.seen[m.Key()] = struct{}{}
			d.Matches = append(d.Matches, m)
		}
	}
	d.Audit.Append(obs.AuditEvent{
		Func:           fnName,
		Verdict:        dec.Verdict(),
		DisabledPasses: dec.DisabledPasses,
		Matches:        dec.Matches,
		Reason:         reason,
	})
}

// Recorder implements engine.Policy in record-only mode: it extracts the
// DNA of every function the engine compiles without ever vetoing a
// compilation. It is how VDC fingerprints are produced (step 1 of the
// paper's workflow): run the demonstrator code on the vulnerable engine
// with a Recorder installed, then store the collected DNAs in the
// database.
type Recorder struct {
	DNAs []DNA
}

var _ engine.Policy = (*Recorder)(nil)

// Active implements engine.Policy.
func (r *Recorder) Active() bool { return true }

// BeginCompile implements engine.Policy.
func (r *Recorder) BeginCompile(fnName string) (passes.Observer, func() engine.CompileDecision) {
	dna := DNA{FuncName: fnName, Passes: map[string]Delta{}}
	de := newDeltaExtractor()
	observe := func(_ int, passName string, before, after *mir.Snapshot) {
		if before == nil || after == nil {
			return
		}
		delta := de.delta(before, after)
		if !delta.Empty() {
			dna.Passes[passName] = delta
		}
	}
	finish := func() engine.CompileDecision {
		de.release()
		r.DNAs = append(r.DNAs, dna)
		return engine.CompileDecision{}
	}
	return observe, finish
}
