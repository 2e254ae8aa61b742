package core

import "sort"

// MatchIndex is an immutable compiled form of a Database: per optimization
// pass, an inverted index from chain ID to the (VDC, DNA) deltas whose δ⁻
// or δ⁺ set contains that chain, with per-delta sizes. A candidate DNA is
// then compared only against deltas that share at least one chain with it
// (everything else cannot reach Thr), instead of scanning every
// VDC × DNA × pass in the database.
//
// Build-time pruning: a delta side with fewer than Thr chains can never
// satisfy eq ≥ Thr (eq is bounded by the smaller set), so its postings are
// dropped entirely. The index is therefore specific to the Thr it was
// built for; Database.Index caches one per Thr.
type MatchIndex struct {
	thr     int
	entries []indexEntry
	byPass  map[string]*passPostings
}

// indexEntry identifies one (VDC, DNA, pass) delta and its side sizes.
type indexEntry struct {
	cve        string
	vdcFunc    string
	pass       string
	removedLen int
	addedLen   int
}

// passPostings is the inverted index of one optimization pass.
type passPostings struct {
	removed map[uint32][]uint32 // chain ID -> entry IDs with the chain in δ⁻
	added   map[uint32][]uint32 // chain ID -> entry IDs with the chain in δ⁺
	all     []uint32            // every entry ID of this pass (degenerate thresholds)
}

// buildMatchIndex compiles db for the given Thr. Deterministic: entries
// are numbered in (VDC, DNA, sorted pass name) order.
func buildMatchIndex(db *Database, thr int) *MatchIndex {
	ix := &MatchIndex{thr: thr, byPass: map[string]*passPostings{}}
	minShared := thr
	if minShared < 1 {
		minShared = 1
	}
	var passNames []string
	for _, vdc := range db.VDCs {
		for _, dna := range vdc.DNAs {
			passNames = passNames[:0]
			for name := range dna.Passes {
				passNames = append(passNames, name)
			}
			sort.Strings(passNames)
			for _, name := range passNames {
				delta := dna.Passes[name]
				id := uint32(len(ix.entries))
				ix.entries = append(ix.entries, indexEntry{
					cve:        vdc.CVE,
					vdcFunc:    dna.FuncName,
					pass:       name,
					removedLen: len(delta.Removed),
					addedLen:   len(delta.Added),
				})
				pp := ix.byPass[name]
				if pp == nil {
					pp = &passPostings{removed: map[uint32][]uint32{}, added: map[uint32][]uint32{}}
					ix.byPass[name] = pp
				}
				pp.all = append(pp.all, id)
				if len(delta.Removed) >= minShared {
					for _, c := range delta.Removed {
						pp.removed[c] = append(pp.removed[c], id)
					}
				}
				if len(delta.Added) >= minShared {
					for _, c := range delta.Added {
						pp.added[c] = append(pp.added[c], id)
					}
				}
			}
		}
	}
	return ix
}

// NoChain is the witness-chain sentinel for matches that needed no shared
// chain (degenerate thresholds accept any pair of non-empty sides).
const NoChain = ^uint32(0)

// matchSide says which delta side witnessed a match.
type matchSide uint8

// Match sides.
const (
	sideNone matchSide = iota
	sideRemoved
	sideAdded
)

// String renders the side as it appears in Match.Side and audit events.
func (s matchSide) String() string {
	switch s {
	case sideRemoved:
		return "removed"
	case sideAdded:
		return "added"
	default:
		return ""
	}
}

// matchScratch is the reusable query state of one Detector: a per-entry
// hit counter with a touched list for O(hits) reset, a matched set so an
// entry similar on both sides is reported once, and per-entry witness
// attribution (the first — smallest, since candidates are sorted — chain
// shared with the entry, and the side it was shared on).
type matchScratch struct {
	counts     []uint32
	matched    []bool
	witness    []uint32 // chain that first touched the entry this side
	touched    []uint32
	matchedIDs []uint32
	sides      []matchSide // parallel to matchedIDs
	chains     []uint32    // parallel to matchedIDs
	probes     int         // entries scored by the last query (metrics)
}

func (sc *matchScratch) ensure(n int) {
	if cap(sc.counts) < n {
		sc.counts = make([]uint32, n)
		sc.matched = make([]bool, n)
		sc.witness = make([]uint32, n)
	} else {
		sc.counts = sc.counts[:n]
		sc.matched = sc.matched[:n]
		sc.witness = sc.witness[:n]
	}
}

// query calls emit for every database delta of the given pass that is
// similar to d under (ratio, thr) — the indexed form of Algorithm 2's
// inner loop. Early exits: a pass absent from the database costs one map
// lookup; a candidate side smaller than Thr is skipped outright; and only
// deltas sharing at least one chain with the candidate are ever visited or
// scored. emit receives the witness attribution: the smallest chain shared
// with the matched delta and the side it was shared on (NoChain/sideNone
// under degenerate thresholds, which need no shared chain).
func (ix *MatchIndex) query(pass string, d Delta, ratio float64, thr int, sc *matchScratch, emit func(cve, vdcFunc string, chain uint32, side matchSide)) {
	// Reset before the early return: callers read sc.probes after every
	// query, and a pass with no bucket must report 0, not the previous
	// pass's count (callers visit passes in map order, so a stale count
	// would make the dna.index_probes total vary from run to run).
	sc.probes = 0
	pp := ix.byPass[pass]
	if pp == nil {
		return
	}
	sc.ensure(len(ix.entries))
	sc.matchedIDs = sc.matchedIDs[:0]
	sc.sides = sc.sides[:0]
	sc.chains = sc.chains[:0]
	if thr <= 0 && ratio <= 0 {
		// Degenerate thresholds accept any pair of non-empty sides without
		// needing a shared chain; scan the pass bucket directly.
		for _, id := range pp.all {
			e := &ix.entries[id]
			sc.probes++
			if (len(d.Removed) > 0 && e.removedLen > 0) || (len(d.Added) > 0 && e.addedLen > 0) {
				emit(e.cve, e.vdcFunc, NoChain, sideNone)
			}
		}
		return
	}
	ix.querySide(pp.removed, d.Removed, sideRemoved, ratio, thr, sc)
	ix.querySide(pp.added, d.Added, sideAdded, ratio, thr, sc)
	for i, id := range sc.matchedIDs {
		e := &ix.entries[id]
		emit(e.cve, e.vdcFunc, sc.chains[i], sc.sides[i])
		sc.matched[id] = false
	}
}

// querySide accumulates shared-chain counts for one delta side and records
// the entries reaching both thresholds into sc.matchedIDs. Candidates are
// sorted ascending, so the chain that first touches an entry is the
// smallest shared one — the recorded witness.
func (ix *MatchIndex) querySide(post map[uint32][]uint32, cand []uint32, side matchSide, ratio float64, thr int, sc *matchScratch) {
	minShared := thr
	if minShared < 1 {
		minShared = 1
	}
	if len(cand) < minShared {
		return
	}
	sc.touched = sc.touched[:0]
	for _, c := range cand {
		for _, id := range post[c] {
			if sc.counts[id] == 0 {
				sc.touched = append(sc.touched, id)
				sc.witness[id] = c
			}
			sc.counts[id]++
		}
	}
	sc.probes += len(sc.touched)
	for _, id := range sc.touched {
		eq := int(sc.counts[id])
		sc.counts[id] = 0
		e := &ix.entries[id]
		maxEq := e.removedLen
		if side == sideAdded {
			maxEq = e.addedLen
		}
		if len(cand) < maxEq {
			maxEq = len(cand)
		}
		if eq >= thr && float64(eq) >= ratio*float64(maxEq) && !sc.matched[id] {
			sc.matched[id] = true
			sc.matchedIDs = append(sc.matchedIDs, id)
			sc.sides = append(sc.sides, side)
			sc.chains = append(sc.chains, sc.witness[id])
		}
	}
}
