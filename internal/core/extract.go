package core

import (
	"math/bits"
	"slices"
	"strings"
	"sync"

	"github.com/jitbull/jitbull/internal/mir"
)

// Resource caps for the Δ extractor. Pathological graphs (deep diamonds)
// can have exponentially many root→leaf paths; extraction truncates
// deterministically instead of blowing up.
const (
	maxChains    = 4096
	maxChainLen  = 48
	maxPairCands = 512
)

// The pairing scorer (lcsMasks/lcsScore) holds one chain in one machine
// word, a bit per token: this fails to compile if maxChainLen outgrows it.
const _ = uint(64 - maxChainLen)

// chainSep joins opcode names into a chain string.
const chainSep = "→"

// ExtractDelta implements Algorithm 1: build the instruction dependency
// graphs of IR_{i-1} and IR_i, enumerate their root→leaf dependency
// chains, and compute the removed (δ⁻) and added (δ⁺) sub-chains, as
// interned chain-ID sets. The result is defined to be identical (chain for
// chain) to RefExtractDelta, the retained string-based reference.
func ExtractDelta(before, after *mir.Snapshot) Delta {
	de := newDeltaExtractor()
	defer de.release()
	pre := de.chainsOf(before)
	post := de.chainsOf(after)
	removed, added := de.diffChainSets(pre, post)
	return Delta{Removed: removed, Added: added}
}

// extractorPool recycles deltaExtractors — and with them the dependency
// graph, DFS, and diff scratch buffers — across compilations.
var extractorPool = sync.Pool{New: func() any { return &deltaExtractor{} }}

// newDeltaExtractor returns a pooled extractor with a cleared memo.
func newDeltaExtractor() *deltaExtractor {
	de := extractorPool.Get().(*deltaExtractor)
	de.lastSnap = nil
	de.lastChains = nil
	return de
}

// release returns the extractor (and its scratch) to the pool.
func (de *deltaExtractor) release() { extractorPool.Put(de) }

// deltaExtractor carries the per-compilation memo plus reusable scratch
// for graph building, chain enumeration, and chain-set diffing, so a
// steady-state Δ extraction allocates only the returned chain sets.
//
// The memo holds the chain multiset of the most recent snapshot:
// consecutive passes share IR snapshots (pass i's "after" is pass i+1's
// "before"), so each snapshot's chains are computed exactly once per
// compilation.
type deltaExtractor struct {
	lastSnap   *mir.Snapshot
	lastChains []uint32

	// buildGraph scratch.
	g       depGraph
	idSlice []int32     // dense ID -> node index (-1 = absent)
	idMap   map[int]int // sparse fallback
	inGraph []bool
	isRoot  []bool

	// chain-walk scratch.
	stack  []walkFrame
	onPath []bool
	path   []uint32

	// diff scratch.
	p, q             []uint32
	usedQ            []bool
	tokMask          []uint64 // lcsMasks scratch, indexed by token ID; all zero between uses
	dp               []int16
	maskA, maskB     []bool
	removedB, addedB []uint32

	// pairCands is len(p)·len(q) of the most recent diffChainSets, after
	// the maxPairCands truncation: the size of the pairing search the
	// detector reports as "dna.pair_cands".
	pairCands int
}

func (de *deltaExtractor) delta(before, after *mir.Snapshot) Delta {
	if snapshotsEqual(before, after) {
		// The pass changed nothing: empty delta, and the memo (if any)
		// stays valid for the new snapshot pointer.
		if de.lastSnap == before {
			de.lastSnap = after
		}
		return Delta{}
	}
	var pre []uint32
	if before == de.lastSnap && before != nil {
		pre = de.lastChains
	} else {
		pre = de.chainsOf(before)
	}
	post := de.chainsOf(after)
	de.lastSnap, de.lastChains = after, post
	removed, added := de.diffChainSets(pre, post)
	return Delta{Removed: removed, Added: added}
}

// snapshotsEqual reports whether two snapshots are structurally identical
// up to instruction renumbering-free equality (same order, opcodes and
// operand references).
func snapshotsEqual(a, b *mir.Snapshot) bool {
	if len(a.Instrs) != len(b.Instrs) {
		return false
	}
	for i := range a.Instrs {
		x, y := &a.Instrs[i], &b.Instrs[i]
		if x.ID != y.ID || x.Opcode != y.Opcode || len(x.Operands) != len(y.Operands) {
			return false
		}
		for j := range x.Operands {
			if x.Operands[j] != y.Operands[j] {
				return false
			}
		}
	}
	return true
}

// depGraph is the dependency-graph form of one IR snapshot (BuildGraph in
// Algorithm 1) in compressed-sparse-row layout: node i's dependencies are
// depList[depStart[i]:depStart[i+1]]; roots are instructions that are not
// a dependency of any other instruction. Opcodes are interned tokens.
type depGraph struct {
	toks     []uint32
	depStart []int32
	depList  []int32
	roots    []int32
}

// grow returns s resized to n, reusing its backing array when possible.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// buildGraph rebuilds de.g from the snapshot, reusing all buffers.
func (de *deltaExtractor) buildGraph(s *mir.Snapshot) {
	n := len(s.Instrs)
	g := &de.g
	g.toks = grow(g.toks, n)
	g.depStart = grow(g.depStart, n+1)
	g.depList = g.depList[:0]
	g.roots = g.roots[:0]
	de.inGraph = grow(de.inGraph, n)
	de.isRoot = grow(de.isRoot, n)
	for i := range de.inGraph {
		de.inGraph[i] = false
		de.isRoot[i] = false
	}

	// Instruction-ID resolution: a dense slice when IDs are compact (the
	// common case), a map otherwise.
	maxID := 0
	for i := range s.Instrs {
		if id := s.Instrs[i].ID; id > maxID {
			maxID = id
		}
	}
	var lookup func(id int) (int, bool)
	if maxID >= 0 && maxID <= 4*n+64 {
		de.idSlice = grow(de.idSlice, maxID+1)
		for i := range de.idSlice {
			de.idSlice[i] = -1
		}
		for i := range s.Instrs {
			de.idSlice[s.Instrs[i].ID] = int32(i)
		}
		lookup = func(id int) (int, bool) {
			if id < 0 || id > maxID {
				return 0, false
			}
			j := de.idSlice[id]
			return int(j), j >= 0
		}
	} else {
		if de.idMap == nil {
			de.idMap = make(map[int]int, n)
		} else {
			clear(de.idMap)
		}
		for i := range s.Instrs {
			de.idMap[s.Instrs[i].ID] = i
		}
		lookup = func(id int) (int, bool) {
			j, ok := de.idMap[id]
			return j, ok
		}
	}

	for i := range s.Instrs {
		in := &s.Instrs[i]
		g.toks[i] = interner.Token(in.Opcode)
		g.depStart[i] = int32(len(g.depList))
		if len(in.Operands) == 0 {
			continue
		}
		if !de.inGraph[i] {
			de.inGraph[i] = true
			de.isRoot[i] = true
		}
		for _, opID := range in.Operands {
			j, ok := lookup(opID)
			if !ok {
				continue
			}
			de.isRoot[j] = false
			de.inGraph[j] = true
			g.depList = append(g.depList, int32(j))
		}
	}
	g.depStart[n] = int32(len(g.depList))
	for i := 0; i < n; i++ {
		if de.inGraph[i] && de.isRoot[i] {
			g.roots = append(g.roots, int32(i))
		}
	}
}

// walkFrame is one level of the iterative chain DFS. depIdx < 0 marks a
// node not yet entered; otherwise it is the next dependency to descend.
type walkFrame struct {
	node   int32
	depIdx int32
}

// chainsOf returns the dependency chains of the snapshot as interned chain
// IDs — MakeChains over every root. The result is a fresh, sorted
// multiset: two different instruction paths with the same opcode sequence
// yield two entries, so duplicate-elimination by later passes stays
// observable. The walk is an explicit-stack DFS with []bool on-path marks
// and mirrors the recursive reference step for step (including the
// maxChains and maxChainLen truncation points), so the chain multiset is
// identical to refChainsOf's.
func (de *deltaExtractor) chainsOf(s *mir.Snapshot) []uint32 {
	de.buildGraph(s)
	g := &de.g
	n := len(g.toks)
	de.onPath = grow(de.onPath, n)
	for i := range de.onPath {
		de.onPath[i] = false
	}
	de.path = de.path[:0]
	de.stack = de.stack[:0]
	out := make([]uint32, 0, len(g.roots)*2)

	emit := func() { out = append(out, interner.Chain(de.path)) }

	for _, r := range g.roots {
		de.stack = append(de.stack, walkFrame{node: r, depIdx: -1})
		for len(de.stack) > 0 {
			f := &de.stack[len(de.stack)-1]
			if f.depIdx < 0 {
				if len(out) >= maxChains {
					de.stack = de.stack[:len(de.stack)-1]
					continue
				}
				if de.onPath[f.node] || len(de.path) >= maxChainLen {
					// Cycle (phi back edge) or depth cap: terminate the
					// chain here.
					emit()
					de.stack = de.stack[:len(de.stack)-1]
					continue
				}
				de.path = append(de.path, g.toks[f.node])
				de.onPath[f.node] = true
				if g.depStart[f.node] == g.depStart[f.node+1] {
					emit()
					de.onPath[f.node] = false
					de.path = de.path[:len(de.path)-1]
					de.stack = de.stack[:len(de.stack)-1]
					continue
				}
				f.depIdx = 0
			}
			if next := g.depStart[f.node] + f.depIdx; next < g.depStart[f.node+1] {
				f.depIdx++
				de.stack = append(de.stack, walkFrame{node: g.depList[next], depIdx: -1})
				continue
			}
			de.onPath[f.node] = false
			de.path = de.path[:len(de.path)-1]
			de.stack = de.stack[:len(de.stack)-1]
		}
	}
	slices.Sort(out)
	return out
}

// diffChainSets computes δ⁻ and δ⁺ between the pre- and post-pass chain
// multisets (sorted chain IDs). Chains whose multiplicity did not change
// cancel; a chain whose count dropped (classic CSE of a duplicate) is
// emitted whole into δ⁻ (and symmetrically for δ⁺); each remaining
// brand-new/brand-gone chain is aligned with its best-matching counterpart
// and the differing runs (anchored on an adjacent common element, as in
// the paper's worked example) are emitted. Candidate ordering — which
// fixes the maxPairCands truncation and LCS tie-breaks — follows the
// chains' string forms, exactly as the string-sorted reference does.
func (de *deltaExtractor) diffChainSets(pre, post []uint32) (removed, added []uint32) {
	rem := de.removedB[:0]
	add := de.addedB[:0]
	p := de.p[:0]
	q := de.q[:0]

	// Merge-walk the sorted multisets: one-sided chains collect into p/q
	// (with multiplicity); both-sided chains with a count change are
	// emitted whole.
	i, j := 0, 0
	for i < len(pre) || j < len(post) {
		switch {
		case j >= len(post) || (i < len(pre) && pre[i] < post[j]):
			c := pre[i]
			for i < len(pre) && pre[i] == c {
				p = append(p, c)
				i++
			}
		case i >= len(pre) || post[j] < pre[i]:
			c := post[j]
			for j < len(post) && post[j] == c {
				q = append(q, c)
				j++
			}
		default:
			c := pre[i]
			n, m := 0, 0
			for i < len(pre) && pre[i] == c {
				n++
				i++
			}
			for j < len(post) && post[j] == c {
				m++
				j++
			}
			if n > m {
				rem = append(rem, c)
			} else if m > n {
				add = append(add, c)
			}
		}
	}

	cs := interner.chainsView()
	byStr := func(a, b uint32) int { return strings.Compare(cs[a].str, cs[b].str) }
	slices.SortFunc(p, byStr)
	slices.SortFunc(q, byStr)
	if len(p) > maxPairCands {
		p = p[:maxPairCands]
	}
	if len(q) > maxPairCands {
		q = q[:maxPairCands]
	}

	de.pairCands = len(p) * len(q)

	// Pair each gone chain with the new chain it shares the longest common
	// subsequence with (first best in string order), exactly as the
	// reference does, but scoring each distinct chain once: p and q carry
	// multiplicities, equal IDs score and align identically, and under the
	// strict > only the first of a run of duplicates can win. Duplicate q
	// entries are still left unused (and so emitted whole) as the reference
	// leaves them.
	de.usedQ = grow(de.usedQ, len(q))
	for qi := range de.usedQ {
		de.usedQ[qi] = false
	}
	for pi, pc := range p {
		if pi > 0 && pc == p[pi-1] {
			continue
		}
		pt := cs[pc].toks
		masks := de.lcsMasks(pt)
		bestScore, bestIdx := 0, -1
		for qi, qc := range q {
			if bestScore == len(pt) {
				break // a full-length match cannot be beaten
			}
			if qi > 0 && qc == q[qi-1] {
				continue
			}
			qt := cs[qc].toks
			if len(qt) <= bestScore {
				continue // LCS ≤ len(qt): cannot be strictly better
			}
			if score := lcsScore(masks, qt); score > bestScore {
				bestScore, bestIdx = score, qi
			}
		}
		de.clearLCSMasks(pt)
		if bestIdx < 0 {
			rem = append(rem, pc)
			continue
		}
		de.usedQ[bestIdx] = true
		rem, add = de.alignDiff(pt, cs[q[bestIdx]].toks, rem, add)
	}
	for qi, qc := range q {
		if !de.usedQ[qi] {
			add = append(add, qc)
		}
	}

	de.p, de.q = p, q
	de.removedB, de.addedB = rem, add
	return copyIDSet(rem), copyIDSet(add)
}

// copyIDSet sorts and dedups scratch IDs into a fresh slice.
func copyIDSet(ids []uint32) []uint32 {
	if len(ids) == 0 {
		return nil
	}
	slices.Sort(ids)
	out := make([]uint32, 0, len(ids))
	out = append(out, ids[0])
	for _, c := range ids[1:] {
		if c != out[len(out)-1] {
			out = append(out, c)
		}
	}
	return out
}

// lcsMasks prepares chain a (at most 64 tokens — chainsOf caps chains at
// maxChainLen) for lcsScore: the returned table maps a token ID to the set
// of positions it occupies in a, one bit per position. The table is shared
// scratch; clearLCSMasks(a) must run before the next lcsMasks.
func (de *deltaExtractor) lcsMasks(a []uint32) []uint64 {
	n := 0
	for _, t := range a {
		if int(t) >= n {
			n = int(t) + 1
		}
	}
	if n > len(de.tokMask) {
		de.tokMask = grow(de.tokMask, n) // zero either way: fresh, or never written past len
	}
	for i, t := range a {
		de.tokMask[t] |= 1 << uint(i)
	}
	return de.tokMask
}

// clearLCSMasks undoes lcsMasks(a), restoring the all-zero table.
func (de *deltaExtractor) clearLCSMasks(a []uint32) {
	for _, t := range a {
		de.tokMask[t] = 0
	}
}

// lcsScore is the longest-common-subsequence length of b and the chain
// masks was built from, by the word-parallel recurrence of Allison–Dix in
// Hyyrö's form. Bit i of v encodes the difference of two vertically
// adjacent cells of the classic DP column, v_i = 1 − (L[i+1][j] − L[i][j]);
// consuming one token of b updates the whole column with one add, one
// subtract and one or (the carry chain of the add is what moves a match
// to the first free row), and the zeros of the final column sum to
// L[len a][len b]. The result is the same integer the cell-by-cell DP
// computes — this is a different evaluation order, not an approximation.
// Positions past len(a) never match, so their bits stay set and do not
// count.
func lcsScore(masks []uint64, b []uint32) int {
	v := ^uint64(0)
	for _, t := range b {
		if int(t) >= len(masks) {
			continue // token absent from a
		}
		u := v & masks[t]
		v = (v + u) | (v - u)
	}
	return bits.OnesCount64(^v)
}

// alignDiff aligns two chains on their LCS and appends the removed runs of
// a and added runs of b (each anchored with the adjacent common element)
// to rem and add: for a = A→B→C→D and b = B→C→E it emits removed
// {A→B, C→D} and added {C→E}, matching §IV-D's example.
func (de *deltaExtractor) alignDiff(a, b []uint32, rem, add []uint32) ([]uint32, []uint32) {
	de.lcsMask(a, b)
	rem = de.runsWithAnchors(a, de.maskA, rem)
	add = de.runsWithAnchors(b, de.maskB, add)
	return rem, add
}

// lcsMask marks (into de.maskA/de.maskB) the elements of a and b that
// belong to one LCS, using the same dp tie-breaks as the reference.
func (de *deltaExtractor) lcsMask(a, b []uint32) {
	la, lb := len(a), len(b)
	w := lb + 1
	de.dp = grow(de.dp, (la+1)*w)
	dp := de.dp
	for j := 0; j <= lb; j++ {
		dp[j] = 0
	}
	for i := 1; i <= la; i++ {
		dp[i*w] = 0
		for j := 1; j <= lb; j++ {
			switch {
			case a[i-1] == b[j-1]:
				dp[i*w+j] = dp[(i-1)*w+j-1] + 1
			case dp[(i-1)*w+j] >= dp[i*w+j-1]:
				dp[i*w+j] = dp[(i-1)*w+j]
			default:
				dp[i*w+j] = dp[i*w+j-1]
			}
		}
	}
	de.maskA = grow(de.maskA, la)
	de.maskB = grow(de.maskB, lb)
	for i := range de.maskA {
		de.maskA[i] = false
	}
	for j := range de.maskB {
		de.maskB[j] = false
	}
	for i, j := la, lb; i > 0 && j > 0; {
		switch {
		case a[i-1] == b[j-1]:
			de.maskA[i-1], de.maskB[j-1] = true, true
			i--
			j--
		case dp[(i-1)*w+j] >= dp[i*w+j-1]:
			i--
		default:
			j--
		}
	}
}

// runsWithAnchors appends each maximal run of non-kept elements, extended
// with the adjacent kept element on each side when present, as an interned
// chain.
func (de *deltaExtractor) runsWithAnchors(seq []uint32, kept []bool, out []uint32) []uint32 {
	i := 0
	for i < len(seq) {
		if kept[i] {
			i++
			continue
		}
		j := i
		for j < len(seq) && !kept[j] {
			j++
		}
		start, end := i, j // run [i, j)
		if start > 0 {
			start-- // include preceding kept anchor
		}
		if end < len(seq) {
			end++ // include following kept anchor
		}
		out = append(out, interner.Chain(seq[start:end]))
		i = j
	}
	return out
}
