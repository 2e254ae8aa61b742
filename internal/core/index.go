package core

import (
	"slices"
	"strings"
)

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
//
// The index owns the IDs it is queried with. Its vocabulary is the posted
// chains, numbered in string order, and their tokens, numbered in string
// order too; a compile's extractor looks tokens and kept chains up here
// and numbers anything else above this range (see deltaExtractor.token).
// So the smallest shared ID is the smallest shared chain by content, a
// token ID is its own bucket in the cannot-match test, and an Add or
// Remove, which rebuilds the index, frees the chains it no longer posts.
type MatchIndex struct {
	thr     int
	entries []indexEntry
	byPass  map[string]*passPostings

	chains   []string          // chain ID -> "→"-joined chain
	chainIDs map[string]uint32 // chain token IDs (appendChainKey) -> chain ID
	toks     []string          // token ID -> opcode
	tokIDs   map[string]uint32
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
	// post[s][c] lists the entries whose side s (0: δ⁻, 1: δ⁺) holds chain
	// c, for every chain ID of the vocabulary.
	post [2][][]uint32
	all  []uint32 // every entry ID of this pass (degenerate thresholds)

	// paths holds the posted chains of δ⁻ (paths[0]) and δ⁺ (paths[1]) in
	// chain-ID order, as token sequences with their postings: what the
	// cannot-match test looks for in the before and after graphs.
	paths [2][]pathCand
}

// pathCand is one posted chain of a pass side: its tokens and the entries
// whose side holds it.
type pathCand struct {
	toks    []uint32
	entries []uint32
}

// buildMatchIndex compiles db for the given Thr. Deterministic: entries
// are numbered in (VDC, DNA, sorted pass name) order, chains and tokens
// by content.
func buildMatchIndex(db *Database, thr int) *MatchIndex {
	ix := &MatchIndex{thr: thr, byPass: map[string]*passPostings{}}
	minShared := max(thr, 1)
	type side struct {
		pp     *passPostings
		s      int
		entry  uint32
		chains []string
	}
	var posted []side
	vocab := map[string]bool{}
	for _, vdc := range db.VDCs {
		for _, dna := range vdc.DNAs {
			for _, name := range sortedKeys(dna.Passes) {
				delta := dna.Passes[name]
				rem, add := sortedChains(delta.Removed), sortedChains(delta.Added)
				id := uint32(len(ix.entries))
				ix.entries = append(ix.entries, indexEntry{
					cve:        vdc.CVE,
					vdcFunc:    dna.FuncName,
					pass:       name,
					removedLen: len(rem),
					addedLen:   len(add),
				})
				pp := ix.byPass[name]
				if pp == nil {
					pp = &passPostings{}
					ix.byPass[name] = pp
				}
				pp.all = append(pp.all, id)
				for s, cs := range [2][]string{rem, add} {
					if len(cs) >= minShared {
						posted = append(posted, side{pp, s, id, cs})
						for _, c := range cs {
							vocab[c] = true
						}
					}
				}
			}
		}
	}

	ix.chains = sortedKeys(vocab)
	split := make([][]string, len(ix.chains))
	toks := map[string]bool{}
	for c, str := range ix.chains {
		split[c] = strings.Split(str, chainSep)
		for _, t := range split[c] {
			toks[t] = true
		}
	}
	ix.toks = sortedKeys(toks)
	ix.tokIDs = make(map[string]uint32, len(ix.toks))
	for t, str := range ix.toks {
		ix.tokIDs[str] = uint32(t)
	}
	chainToks := make([][]uint32, len(ix.chains))
	ix.chainIDs = make(map[string]uint32, len(ix.chains))
	for c, parts := range split {
		for _, t := range parts {
			chainToks[c] = append(chainToks[c], ix.tokIDs[t])
		}
		ix.chainIDs[string(appendChainKey(nil, chainToks[c]))] = uint32(c)
	}

	for _, p := range posted {
		post := p.pp.post[p.s]
		if post == nil {
			post = make([][]uint32, len(ix.chains))
			p.pp.post[p.s] = post
		}
		for _, str := range p.chains {
			c, _ := slices.BinarySearch(ix.chains, str)
			post[c] = append(post[c], p.entry)
		}
	}
	for _, pp := range ix.byPass {
		for s, post := range pp.post {
			for c, entries := range post {
				if len(entries) > 0 {
					pp.paths[s] = append(pp.paths[s], pathCand{toks: chainToks[c], entries: entries})
				}
			}
		}
	}
	return ix
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// sortedChains returns a chain list as a sorted set, the form the index
// reads a delta side in.
func sortedChains(chains []string) []string {
	out := slices.Clone(chains)
	slices.Sort(out)
	return slices.Compact(out)
}

// appendChainKey renders a token sequence as map-key bytes.
func appendChainKey(dst []byte, toks []uint32) []byte {
	for _, t := range toks {
		dst = append(dst, byte(t), byte(t>>8), byte(t>>16), byte(t>>24))
	}
	return dst
}

// ids maps a Delta onto the index's IDs.
func (ix *MatchIndex) ids(d Delta) idDelta {
	return idDelta{removed: ix.idSet(d.Removed), added: ix.idSet(d.Added)}
}

// idSet maps a chain set onto the index's IDs, ascending: a posted chain
// to its ID, any other to a distinct ID above the vocabulary. Sizes and
// shared chains are what a query reads, and both survive the mapping.
func (ix *MatchIndex) idSet(chains []string) []uint32 {
	cs := sortedChains(chains)
	if len(cs) == 0 {
		return nil
	}
	out := make([]uint32, len(cs))
	next := uint32(len(ix.chains))
	for i, str := range cs {
		if c, ok := slices.BinarySearch(ix.chains, str); ok {
			out[i] = uint32(c)
		} else {
			out[i], next = next, next+1
		}
	}
	slices.Sort(out)
	return out
}

// watches reports whether the index has a bucket for the pass, that is
// whether any database delta was recorded for it. A nil index watches
// nothing.
func (ix *MatchIndex) watches(pass string) bool { return ix.postings(pass) != nil }

// postings returns the pass's bucket, nil for a pass the index does not
// watch (or a nil index).
func (ix *MatchIndex) postings(pass string) *passPostings {
	if ix == nil {
		return nil
	}
	return ix.byPass[pass]
}

// noChain is the witness-chain sentinel for matches that needed no shared
// chain (degenerate thresholds accept any pair of non-empty sides). It
// never leaves core: such a match carries no witness text.
const noChain = ^uint32(0)

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
// attribution (the smallest chain by content shared with the entry, and
// the side it was shared on).
type matchScratch struct {
	counts     []uint32
	matched    []bool
	witness    []uint32 // first (smallest) shared chain this side
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

// idDelta is a Δ as the index reads it: sorted sets of chain IDs in the
// index's numbering (see idSet and deltaExtractor.chainID).
type idDelta struct{ removed, added []uint32 }

// query calls emit for every database delta of the given pass that is
// similar to d under (ratio, thr) — the indexed form of Algorithm 2's
// inner loop. Early exits: a pass absent from the database costs one map
// lookup; a candidate side smaller than Thr is skipped outright; and only
// deltas sharing at least one chain with the candidate are ever visited or
// scored. emit receives the witness attribution: the smallest chain by
// content shared with the matched delta and the side it was shared on
// (noChain/sideNone under degenerate thresholds, which need no shared
// chain).
func (ix *MatchIndex) query(pass string, d idDelta, ratio float64, thr int, sc *matchScratch, emit func(cve, vdcFunc string, chain uint32, side matchSide)) {
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
			if (len(d.removed) > 0 && e.removedLen > 0) || (len(d.added) > 0 && e.addedLen > 0) {
				emit(e.cve, e.vdcFunc, noChain, sideNone)
			}
		}
		return
	}
	ix.querySide(pp.post[0], d.removed, sideRemoved, ratio, thr, sc)
	ix.querySide(pp.post[1], d.added, sideAdded, ratio, thr, sc)
	for i, id := range sc.matchedIDs {
		e := &ix.entries[id]
		emit(e.cve, e.vdcFunc, sc.chains[i], sc.sides[i])
		sc.matched[id] = false
	}
}

// querySide accumulates shared-chain counts for one delta side and records
// the entries reaching both thresholds into sc.matchedIDs. cand ascends,
// and IDs follow content, so the first chain an entry shares is its
// witness: the smallest shared chain by content.
func (ix *MatchIndex) querySide(post [][]uint32, cand []uint32, side matchSide, ratio float64, thr int, sc *matchScratch) {
	if len(cand) < max(thr, 1) {
		return
	}
	sc.touched = sc.touched[:0]
	for _, c := range cand {
		if int(c) >= len(post) {
			break // above the vocabulary: in no posting
		}
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
