package core

import (
	"cmp"
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
// chains, and compute the removed (δ⁻) and added (δ⁺) sub-chains. The
// result is defined to be identical (chain for chain) to RefExtractDelta,
// the retained string-based reference.
func ExtractDelta(before, after *mir.Snapshot) Delta {
	de := newDeltaExtractor(nil)
	defer de.release()
	pre, post := &de.states[0], &de.states[1]
	de.load(pre, before)
	de.load(post, after)
	return de.render(de.diff(pre, post))
}

// extractorPool recycles deltaExtractors — and with them the dependency
// graphs, DFS, and diff scratch buffers — across compilations.
var extractorPool = sync.Pool{New: func() any { return &deltaExtractor{} }}

// newDeltaExtractor returns a pooled extractor with a cleared memo that
// numbers tokens and chains as ix does (nil: no index, every ID local).
func newDeltaExtractor(ix *MatchIndex) *deltaExtractor {
	de := extractorPool.Get().(*deltaExtractor)
	if ix == nil {
		ix = &MatchIndex{}
	}
	de.ix = ix
	de.tokNames = append(de.tokNames, ix.toks...)
	return de
}

// release clears the memo and the compile-local IDs and returns the
// extractor (and its scratch) to the pool.
func (de *deltaExtractor) release() {
	for i := range de.states {
		de.states[i].snap, de.states[i].bucketed = nil, nil
	}
	de.ix = nil
	clear(de.tokNames)
	de.tokNames = de.tokNames[:0]
	clear(de.localToks)
	clear(de.localChains)
	de.localSpans, de.localToksBuf = de.localSpans[:0], de.localToksBuf[:0]
	extractorPool.Put(de)
}

// deltaExtractor carries the per-compilation memo plus reusable scratch
// for graph building, chain enumeration, and chain-set diffing, so a
// steady-state Δ extraction allocates only the returned chain sets.
//
// The memo is the most recent "after" IR state, states[memo]: the engine
// hands equal consecutive IR states over as one snapshot pointer (pass
// i's "after" is pass i+1's "before" unless the graph changed in
// between), so each distinct snapshot's graph — and, when a Δ is
// extracted, its chains — is built once per compilation.
type deltaExtractor struct {
	states [2]irState
	memo   int

	// The compile's IDs: ix's tokens and chains, then compile-local IDs
	// above them for the rest, in order of first sight. tokNames renders
	// every token ID; local chain i is the token span localSpans[i] of
	// localToksBuf.
	ix           *MatchIndex
	tokNames     []string
	localToks    map[string]uint32
	localChains  map[string]uint32 // key: appendChainKey
	localSpans   []chainSpan
	localToksBuf []uint32

	// buildGraph scratch.
	idSlice []int32     // dense ID -> node index (-1 = absent)
	idMap   map[int]int // sparse fallback
	inGraph []bool
	isRoot  []bool

	// chain-walk scratch.
	stack  []walkFrame
	onPath []bool
	path   []uint32
	hpath  []uint64 // hpath[k]: running hash of path[:k]

	// diff scratch.
	p, q             [][]uint32 // one-sided chains (spans of the sets' toks)
	usedQ            []bool
	qDistinct        []int32  // indexes of q's first copies
	tokMask          []uint64 // lcsMasks scratch, indexed by token ID; all zero between uses
	dp               []int16
	maskA, maskB     []bool
	removedB, addedB []uint32

	// cannot-match scratch (see mayMatch).
	shared          []uint32 // per index entry: posted chains found as paths
	sharedTouched   []uint32
	mark            []uint32 // per node: the frontier stamp that last took it
	stamp           uint32
	frontier, fnext []int32

	// pairCands is len(p)·len(q) of the most recent diffChainSets, after
	// the maxPairCands truncation: the size of the pairing search the
	// detector reports as "dna.pair_cands".
	pairCands int
}

// irState is one IR snapshot as the extractor reads it: its dependency
// graph, built once, and — only once a Δ needs them — its chains.
type irState struct {
	snap   *mir.Snapshot // nil: the state holds no snapshot
	g      depGraph
	set    chainSet
	hasSet bool // set holds g's chains

	// The graph's nodes bucketed by the tokens of index bucketed (nil:
	// not bucketed): token t's nodes are byTok[tokStart[t]:tokStart[t+1]].
	bucketed *MatchIndex
	tokStart []int32
	byTok    []int32
}

// load makes st the state of snapshot s.
func (de *deltaExtractor) load(st *irState, s *mir.Snapshot) {
	de.buildGraph(s, &st.g)
	st.snap, st.hasSet, st.bucketed = s, false, nil
}

// chains returns the state's chain multiset, walking the graph on first use.
func (de *deltaExtractor) chains(st *irState) *chainSet {
	if !st.hasSet {
		de.walkChains(&st.g, &st.set)
		st.hasSet = true
	}
	return &st.set
}

// advance moves the memo across one pass and returns the states of its
// before and after snapshots. changed is false (and the states nil) when
// the pass changed nothing. States are told apart by pointer, as
// passes.RunWith hands them over (equal consecutive states are one
// pointer): a distinct but equal snapshot is loaded afresh and its Δ comes
// out empty, at the cost of building its graph.
func (de *deltaExtractor) advance(before, after *mir.Snapshot) (pre, post *irState, changed bool) {
	last := &de.states[de.memo]
	if before == after {
		return nil, nil, false
	}
	if last.snap != before {
		de.load(last, before)
	}
	post = &de.states[1-de.memo]
	de.load(post, after)
	de.memo = 1 - de.memo
	return last, post, true
}

// delta is the Δ of one observed pass, through the memo.
func (de *deltaExtractor) delta(before, after *mir.Snapshot) idDelta {
	pre, post, changed := de.advance(before, after)
	if !changed {
		return idDelta{}
	}
	return de.diff(pre, post)
}

// diff computes the Δ between two loaded states.
func (de *deltaExtractor) diff(pre, post *irState) idDelta {
	removed, added := de.diffChainSets(de.chains(pre), de.chains(post))
	return idDelta{removed: removed, added: added}
}

// token returns the ID of an opcode: the index's, or a compile-local one.
func (de *deltaExtractor) token(op string) uint32 {
	if id, ok := de.ix.tokIDs[op]; ok {
		return id
	}
	if id, ok := de.localToks[op]; ok {
		return id
	}
	if de.localToks == nil {
		de.localToks = map[string]uint32{}
	}
	id := uint32(len(de.tokNames))
	de.tokNames = append(de.tokNames, op)
	de.localToks[op] = id
	return id
}

// chainID returns the ID of a chain given as tokens: the index's, or a
// compile-local one. A known chain costs no allocation.
func (de *deltaExtractor) chainID(toks []uint32) uint32 {
	var arr [4 * maxChainLen]byte
	key := appendChainKey(arr[:0], toks)
	if id, ok := de.ix.chainIDs[string(key)]; ok {
		return id
	}
	if id, ok := de.localChains[string(key)]; ok {
		return id
	}
	if de.localChains == nil {
		de.localChains = map[string]uint32{}
	}
	id := uint32(len(de.ix.chains) + len(de.localSpans))
	de.localSpans = append(de.localSpans, chainSpan{off: uint32(len(de.localToksBuf)), n: uint32(len(toks))})
	de.localToksBuf = append(de.localToksBuf, toks...)
	de.localChains[string(key)] = id
	return id
}

// render returns the chains of d as a public Delta: sorted strings, each
// side's rendered into one backing string.
func (de *deltaExtractor) render(d idDelta) Delta {
	side := func(ids []uint32) []string {
		if len(ids) == 0 {
			return nil
		}
		var sb strings.Builder
		ends := make([]int, len(ids))
		for i, id := range ids {
			if int(id) < len(de.ix.chains) {
				sb.WriteString(de.ix.chains[id])
			} else {
				sp := de.localSpans[int(id)-len(de.ix.chains)]
				for j, t := range de.localToksBuf[sp.off : sp.off+sp.n] {
					if j > 0 {
						sb.WriteString(chainSep)
					}
					sb.WriteString(de.tokNames[t])
				}
			}
			ends[i] = sb.Len()
		}
		all, out, start := sb.String(), make([]string, len(ids)), 0
		for i, end := range ends {
			out[i], start = all[start:end], end
		}
		slices.Sort(out)
		return out
	}
	return Delta{Removed: side(d.removed), Added: side(d.added)}
}

// depGraph is the dependency-graph form of one IR snapshot (BuildGraph in
// Algorithm 1) in compressed-sparse-row layout: node i's dependencies are
// depList[depStart[i]:depStart[i+1]]; roots are instructions that are not
// a dependency of any other instruction. Opcodes are token IDs.
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

// buildGraph rebuilds g from the snapshot, reusing all buffers.
func (de *deltaExtractor) buildGraph(s *mir.Snapshot, g *depGraph) {
	n := len(s.Instrs)
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
		g.toks[i] = de.token(in.Opcode)
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

// walkChains fills cs with the dependency chains of the graph —
// MakeChains over every root — as a sorted multiset: two different
// instruction paths with the same opcode sequence yield two entries, so
// duplicate-elimination by later passes stays observable. No chain gets
// an ID: each is a token span with a content hash, hashed as the path
// grows. The walk is an explicit-stack DFS with []bool on-path marks
// and mirrors the recursive reference step for step (including the
// maxChains and maxChainLen truncation points), so the chain multiset is
// identical to refChainsOf's. Every chain is a path along the graph's
// dependency edges, which is what the cannot-match test relies on.
func (de *deltaExtractor) walkChains(g *depGraph, cs *chainSet) {
	n := len(g.toks)
	de.onPath = grow(de.onPath, n)
	for i := range de.onPath {
		de.onPath[i] = false
	}
	de.path = de.path[:0]
	de.hpath = append(de.hpath[:0], chainHashSeed)
	de.stack = de.stack[:0]
	cs.reset()

	emit := func() { cs.add(de.path, chainHashFinal(de.hpath[len(de.path)])) }
	push := func(tok uint32) {
		de.hpath = append(de.hpath, chainHashStep(de.hpath[len(de.path)], tok))
		de.path = append(de.path, tok)
	}
	pop := func() {
		de.path = de.path[:len(de.path)-1]
		de.hpath = de.hpath[:len(de.hpath)-1]
	}

	for _, r := range g.roots {
		de.stack = append(de.stack, walkFrame{node: r, depIdx: -1})
		for len(de.stack) > 0 {
			f := &de.stack[len(de.stack)-1]
			if f.depIdx < 0 {
				if len(cs.keys) >= maxChains {
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
				push(g.toks[f.node])
				de.onPath[f.node] = true
				if g.depStart[f.node] == g.depStart[f.node+1] {
					emit()
					de.onPath[f.node] = false
					pop()
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
			pop()
			de.stack = de.stack[:len(de.stack)-1]
		}
	}
	cs.sort()
}

// chainSet is the chain multiset of one snapshot, held without chain IDs:
// chain i is the token span toks[spans[i].off:][:spans[i].n] with a 64-bit
// content hash. keys packs hash<<chainIdxBits | i into one word, so the
// multiset sorts as plain integers; runs of equal hash are then ordered by
// content, so equal chains are adjacent and two sets merge-walk in one
// total order (hash, content). Ties are settled by content, never by hash
// alone: the result is exact whatever collides.
type chainSet struct {
	toks  []uint32
	spans []chainSpan
	keys  []uint64
}

// chainSpan locates one chain in chainSet.toks.
type chainSpan struct{ off, n uint32 }

// A key's low chainIdxBits bits index spans; the high bits are the low
// 64−chainIdxBits bits of the chain's hash.
const (
	chainIdxBits = 12
	chainIdxMask = 1<<chainIdxBits - 1
)

// A snapshot yields at most maxChains chains: this fails to compile if
// their indexes outgrow the key's index field.
const _ = uint(1<<chainIdxBits - maxChains)

// The chain hash is FNV-1a over token IDs, finished with the splitmix64
// mixer so the bits a key keeps are well spread.
const (
	chainHashSeed  = 0xcbf29ce484222325
	chainHashPrime = 0x100000001b3
)

func chainHashStep(h uint64, tok uint32) uint64 { return (h ^ uint64(tok)) * chainHashPrime }

func chainHashFinal(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

func (cs *chainSet) reset() {
	cs.toks, cs.spans, cs.keys = cs.toks[:0], cs.spans[:0], cs.keys[:0]
}

// add appends a chain (copied) with its content hash h.
func (cs *chainSet) add(toks []uint32, h uint64) {
	cs.keys = append(cs.keys, h<<chainIdxBits|uint64(len(cs.spans)))
	cs.spans = append(cs.spans, chainSpan{off: uint32(len(cs.toks)), n: uint32(len(toks))})
	cs.toks = append(cs.toks, toks...)
}

// chain returns the token span a key names.
func (cs *chainSet) chain(key uint64) []uint32 {
	sp := cs.spans[key&chainIdxMask]
	return cs.toks[sp.off : sp.off+sp.n : sp.off+sp.n]
}

// sort orders keys by (hash, content).
func (cs *chainSet) sort() {
	slices.Sort(cs.keys)
	for i := 0; i < len(cs.keys); {
		j, mixed := i+1, false
		for ; j < len(cs.keys) && cs.keys[j]>>chainIdxBits == cs.keys[i]>>chainIdxBits; j++ {
			mixed = mixed || !slices.Equal(cs.chain(cs.keys[j]), cs.chain(cs.keys[i]))
		}
		if mixed { // a hash collision: distinct chains share the run
			slices.SortFunc(cs.keys[i:j], func(a, b uint64) int {
				if c := slices.Compare(cs.chain(a), cs.chain(b)); c != 0 {
					return c
				}
				return cmp.Compare(a, b)
			})
		}
		i = j
	}
}

// run returns the end of the run of chains equal to keys[i].
func (cs *chainSet) run(i int) int {
	h, c := cs.keys[i]>>chainIdxBits, cs.chain(cs.keys[i])
	j := i + 1
	for j < len(cs.keys) && cs.keys[j]>>chainIdxBits == h && slices.Equal(cs.chain(cs.keys[j]), c) {
		j++
	}
	return j
}

// orderChains compares key ka of a with key kb of b in the (hash,
// content) order both sets are sorted in.
func orderChains(a *chainSet, ka uint64, b *chainSet, kb uint64) int {
	if c := cmp.Compare(ka>>chainIdxBits, kb>>chainIdxBits); c != 0 {
		return c
	}
	return slices.Compare(a.chain(ka), b.chain(kb))
}

// compareJoined orders two token sequences as strings.Compare orders their
// "→"-joined renderings, without building them: a shared token prefix
// renders to shared bytes, the first differing tokens decide unless one is
// a prefix of the other, and the rest is then compared segment by segment.
func compareJoined(a, b []uint32, toks []string) int {
	k := 0
	for k < len(a) && k < len(b) && a[k] == b[k] {
		k++
	}
	if k == len(a) || k == len(b) {
		return cmp.Compare(len(a), len(b)) // one rendering is a prefix of the other
	}
	x, y := toks[a[k]], toks[b[k]]
	if n := min(len(x), len(y)); x[:n] != y[:n] {
		return strings.Compare(x[:n], y[:n])
	}
	// seg(c, i) is the i-th segment of c's rendering from token k on:
	// token, separator, token, ... (x and y hold segment 0).
	seg := func(c []uint32, i int) string {
		if i%2 == 1 {
			return chainSep
		}
		return toks[c[k+i/2]]
	}
	na, nb := 2*(len(a)-k)-1, 2*(len(b)-k)-1
	for i, j := 1, 1; ; {
		for x == "" && i < na {
			x, i = seg(a, i), i+1
		}
		for y == "" && j < nb {
			y, j = seg(b, j), j+1
		}
		if x == "" || y == "" {
			return cmp.Compare(len(x), len(y))
		}
		n := min(len(x), len(y))
		if c := strings.Compare(x[:n], y[:n]); c != 0 {
			return c
		}
		x, y = x[n:], y[n:]
	}
}

// diffChainSets computes δ⁻ and δ⁺ between the pre- and post-pass chain
// multisets. Chains whose multiplicity did not change cancel; a chain
// whose count dropped (classic CSE of a duplicate) is emitted whole into
// δ⁻ (and symmetrically for δ⁺); each remaining brand-new/brand-gone chain
// is aligned with its best-matching counterpart and the differing runs
// (anchored on an adjacent common element, as in the paper's worked
// example) are emitted. Candidate ordering — which fixes the maxPairCands
// truncation and LCS tie-breaks — follows the chains' string forms,
// exactly as the string-sorted reference does. Only the emitted chains
// get IDs (chainID): a chain on both sides with an unchanged count, or one
// that is paired and emits its runs instead, never does.
func (de *deltaExtractor) diffChainSets(pre, post *chainSet) (removed, added []uint32) {
	rem := de.removedB[:0]
	add := de.addedB[:0]
	p := de.p[:0]
	q := de.q[:0]

	// Merge-walk the sorted multisets: one-sided chains collect into p/q
	// (with multiplicity); both-sided chains with a count change are
	// emitted whole.
	i, j := 0, 0
	for i < len(pre.keys) || j < len(post.keys) {
		var c int
		switch {
		case j >= len(post.keys):
			c = -1
		case i >= len(pre.keys):
			c = 1
		default:
			c = orderChains(pre, pre.keys[i], post, post.keys[j])
		}
		switch {
		case c < 0:
			for end := pre.run(i); i < end; i++ {
				p = append(p, pre.chain(pre.keys[i]))
			}
		case c > 0:
			for end := post.run(j); j < end; j++ {
				q = append(q, post.chain(post.keys[j]))
			}
		default:
			ie, je := pre.run(i), post.run(j)
			if n, m := ie-i, je-j; n > m {
				rem = append(rem, de.chainID(pre.chain(pre.keys[i])))
			} else if m > n {
				add = append(add, de.chainID(post.chain(post.keys[j])))
			}
			i, j = ie, je
		}
	}

	byStr := func(a, b []uint32) int { return compareJoined(a, b, de.tokNames) }
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
	// multiplicities, equal chains score and align identically, and under
	// the strict > only the first of a run of duplicates can win. Duplicate
	// q entries are still left unused (and so emitted whole) as the
	// reference leaves them.
	de.usedQ = grow(de.usedQ, len(q))
	qd := de.qDistinct[:0]
	for qi := range q {
		de.usedQ[qi] = false
		if qi == 0 || !slices.Equal(q[qi], q[qi-1]) {
			qd = append(qd, int32(qi))
		}
	}
	for pi, pt := range p {
		if pi > 0 && slices.Equal(pt, p[pi-1]) {
			continue
		}
		masks := de.lcsMasks(pt)
		bestScore, bestIdx := 0, -1
		for _, qi := range qd {
			if bestScore == len(pt) {
				break // a full-length match cannot be beaten
			}
			qt := q[qi]
			if len(qt) <= bestScore {
				continue // LCS ≤ len(qt): cannot be strictly better
			}
			if score := lcsScore(masks, qt); score > bestScore {
				bestScore, bestIdx = score, int(qi)
			}
		}
		de.clearLCSMasks(pt)
		if bestIdx < 0 {
			rem = append(rem, de.chainID(pt))
			continue
		}
		de.usedQ[bestIdx] = true
		rem, add = de.alignDiff(pt, q[bestIdx], rem, add)
	}
	for qi, qt := range q {
		if !de.usedQ[qi] {
			add = append(add, de.chainID(qt))
		}
	}

	de.p, de.q, de.qDistinct = p, q, qd
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

// lcsMasks prepares chain a (at most 64 tokens — walkChains caps chains at
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
// with the adjacent kept element on each side when present, as a chain ID.
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
		out = append(out, de.chainID(seq[start:end]))
		i = j
	}
	return out
}
