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
// possible (the smaller set's size). Inputs are sorted chain sets, as a
// Delta holds them. The detector itself compares through its MatchIndex.
func CompareChains(a, b []string, ratio float64, thr int) bool {
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
// overhead, as §V requires); otherwise, as an engine.WatchingPolicy, it
// has the engine snapshot only the passes the database fingerprints, so
// the cost follows the database. Comparison goes through the database's
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

	// Metrics, when set, receives the "dna.delta_chains" histogram (per-pass
	// Δ chain-set sizes of candidate DNAs), "dna.index_probes" (entries
	// scored per match-index query), "dna.pair_cands" (size of the Δ
	// pairing search, gone chains × new chains after the maxPairCands
	// truncation, per non-empty Δ — the super-linear term of extraction)
	// and "dna.passes_skipped" (per judged compile, the changed watched
	// passes whose Δ the cannot-match test left unextracted).
	Metrics *obs.Registry

	seen      map[obs.MatchKey]struct{}
	scratch   matchScratch
	found     []obs.Match
	deltaHist *obs.Histogram
	probeHist *obs.Histogram
	pairHist  *obs.Histogram
	skipHist  *obs.Histogram
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
		d.skipHist = d.Metrics.Histogram("dna.passes_skipped", obs.SizeBuckets)
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

// Watches implements engine.WatchingPolicy: a pass is worth snapshotting
// exactly when the database's match index has a bucket for it. Algorithm 2
// compares a candidate's Δ for a pass only with VDC Δs recorded for that
// pass, so the Δ of any other pass can never take part in a verdict. The
// answer follows Add/Remove (the index is rebuilt on mutation).
func (d *Detector) Watches(pass string) bool {
	return d.DB != nil && d.DB.Index(d.Thr).watches(pass)
}

var _ engine.WatchingPolicy = (*Detector)(nil)

// Reset clears the accumulated matches so the detector can be reused
// across evaluation runs.
func (d *Detector) Reset() {
	d.Matches = nil
	d.seen = nil
}

// BeginCompile implements engine.Policy: it returns an observer that
// extracts the function's DNA pass by pass, and a finish function that
// produces the go/no-go decision via Decide. A changed watched pass whose
// graphs fail the cannot-match test (see mayMatch) is left out of the DNA
// unextracted: no entry of its pass could be similar to its Δ, so the
// decision is the one the full DNA gives, though the DNA is not.
func (d *Detector) BeginCompile(fnName string) (passes.Observer, func() engine.CompileDecision) {
	if d.DB != nil && d.DB.FailSafe() {
		// The real database could not be trusted: no DNA to compare
		// against, so take no snapshots and veto every compilation.
		return nil, func() engine.CompileDecision {
			return engine.CompileDecision{NoJIT: true, Reason: "fail-safe database: vetoing every compilation"}
		}
	}
	d.resolveHists()
	dna := map[string]idDelta{}
	// The passes worth extracting, the cannot-match test, the IDs and the
	// decision all read the database as it stands now, so no pass is
	// skipped under one index and judged under another. An Add, Remove or
	// Thr change takes effect from the next compile.
	var ix *MatchIndex
	if d.DB != nil {
		ix = d.DB.Index(d.Thr)
	}
	de := newDeltaExtractor(ix)
	ratio := d.Ratio
	skipped := 0
	observe := func(_ int, passName string, before, after *mir.Snapshot) {
		// A disabled pass comes as (nil, nil). An unwatched one reaches
		// here only through a wrapper that hides Watches: skip its
		// extraction all the same.
		pp := ix.postings(passName)
		if before == nil || after == nil || pp == nil {
			return
		}
		pre, post, changed := de.advance(before, after)
		if !changed {
			return
		}
		if !de.mayMatch(ix, pp, ratio, pre, post) {
			skipped++
			return
		}
		delta := de.diff(pre, post)
		if len(delta.removed)+len(delta.added) > 0 {
			dna[passName] = delta
			d.pairHist.Observe(int64(de.pairCands))
		}
	}
	finish := func() engine.CompileDecision {
		de.release()
		d.skipHist.Observe(int64(skipped))
		return d.decide(ix, ratio, dna)
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
	ix := d.DB.Index(d.Thr)
	ids := make(map[string]idDelta, len(dna.Passes))
	for name, delta := range dna.Passes {
		ids[name] = ix.ids(delta)
	}
	return d.decide(ix, d.Ratio, ids)
}

// decide is Decide against one index, the one a compile's observer read,
// over a DNA in that index's IDs.
func (d *Detector) decide(ix *MatchIndex, ratio float64, dna map[string]idDelta) engine.CompileDecision {
	if ix == nil {
		return engine.CompileDecision{}
	}
	found := d.found[:0]
	for passName, fdelta := range dna {
		passName := passName
		d.deltaHist.Observe(int64(len(fdelta.removed) + len(fdelta.added)))
		ix.query(passName, fdelta, ratio, ix.thr, &d.scratch, func(cve, vdcFunc string, chain uint32, side matchSide) {
			m := obs.Match{CVE: cve, VDCFunc: vdcFunc, Pass: passName, Side: side.String()}
			if chain != noChain {
				m.Chain = ix.chains[chain]
			}
			found = append(found, m)
		})
		d.probeHist.Observe(int64(d.scratch.probes))
	}
	d.found = found[:0]
	dec := decisionOf(found)
	d.book(dec)
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
		return a.Chain < b.Chain
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

// book records one decision's matches in the detector's accounting — the
// only place that does: matches not seen before join Matches. A decision
// made by Decide and one replayed from the shared cache (ReplayDecision)
// go through it alike. Stating the decision is the engine's business (its
// decide fact).
func (d *Detector) book(dec engine.CompileDecision) {
	if d.seen == nil && len(dec.Matches) > 0 {
		d.seen = map[obs.MatchKey]struct{}{}
	}
	for _, m := range dec.Matches {
		if _, dup := d.seen[m.Key()]; !dup {
			d.seen[m.Key()] = struct{}{}
			d.Matches = append(d.Matches, m)
		}
	}
}

// Recorder implements engine.Policy in record-only mode: it extracts the
// DNA of every function the engine compiles, at every pass (it is no
// engine.WatchingPolicy), without ever vetoing a compilation. It is how
// VDC fingerprints are produced (step 1 of the paper's workflow): run the
// demonstrator code on the vulnerable engine with a Recorder installed,
// then store the collected DNAs in the database.
type Recorder struct {
	DNAs []DNA
}

var _ engine.Policy = (*Recorder)(nil)

// Active implements engine.Policy.
func (r *Recorder) Active() bool { return true }

// BeginCompile implements engine.Policy.
func (r *Recorder) BeginCompile(fnName string) (passes.Observer, func() engine.CompileDecision) {
	dna := DNA{FuncName: fnName, Passes: map[string]Delta{}}
	de := newDeltaExtractor(nil)
	observe := func(_ int, passName string, before, after *mir.Snapshot) {
		if before == nil || after == nil {
			return
		}
		if delta := de.render(de.delta(before, after)); !delta.Empty() {
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
