package core

import "github.com/jitbull/jitbull/internal/mir"

// CannotMatch runs the detector's cannot-match test on one observed pass,
// with a fresh extractor. judged is false for a pass the detector does not
// judge at all — disabled (nil snapshots), unwatched, or unchanged (one
// snapshot pointer before and after); skip
// reports that the test leaves the pass's Δ unextracted.
func (d *Detector) CannotMatch(pass string, before, after *mir.Snapshot) (judged, skip bool) {
	ix := d.DB.Index(d.Thr)
	pp := ix.postings(pass)
	if before == nil || after == nil || pp == nil {
		return false, false
	}
	de := newDeltaExtractor(ix)
	defer de.release()
	pre, post, changed := de.advance(before, after)
	if !changed {
		return false, false
	}
	return true, !de.mayMatch(ix, pp, d.Ratio, pre, post)
}

// DeltaMatches reports whether the detector's index query finds an entry
// of the pass similar to delta.
func (d *Detector) DeltaMatches(pass string, delta Delta) bool {
	var sc matchScratch
	matched := false
	ix := d.DB.Index(d.Thr)
	ix.query(pass, ix.ids(delta), d.Ratio, d.Thr, &sc, func(string, string, uint32, matchSide) { matched = true })
	return matched
}

// Vocabulary returns the index's chains and tokens, each in ID order.
func (ix *MatchIndex) Vocabulary() (chains, toks []string) { return ix.chains, ix.toks }

// PooledExtractorLocals takes an extractor from the pool, reports the
// compile-local tokens and chains it holds and whether it has built a
// graph before, and puts it back.
func PooledExtractorLocals() (toks, chains int, used bool) {
	de := extractorPool.Get().(*deltaExtractor)
	defer extractorPool.Put(de)
	return len(de.localToks) + len(de.tokNames), len(de.localChains) + len(de.localSpans), cap(de.states[0].g.toks) > 0
}

// SnapshotsEqual reports whether two snapshots have equal contents.
func SnapshotsEqual(a, b *mir.Snapshot) bool { return snapshotsEqual(a, b) }
