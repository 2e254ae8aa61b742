package core

// The retained reference implementation of Algorithm 1 + Algorithm 2.
//
// This file is the original string-based extraction/matching pipeline,
// kept verbatim as a test oracle: chains are "→"-joined opcode strings, diffing re-splits
// and LCS-aligns them, and the detector brute-force scans every
// VDC × DNA × pass in the database. It exists so the chain-ID fast path
// (extract.go, compare.go, index.go) can be held to a golden-equivalence
// standard — the fuzz, property, and corpus tests assert that the fast
// path produces the same Δ sets and the same CompileDecisions — and so
// the pre-optimization cost can be benchmarked as a baseline
// (BenchmarkDetectorFinish/ref4VDC).

import (
	"sort"
	"strings"

	"github.com/jitbull/jitbull/internal/engine"
	"github.com/jitbull/jitbull/internal/mir"
	"github.com/jitbull/jitbull/internal/obs"
	"github.com/jitbull/jitbull/internal/passes"
)

// Ref renders the delta in the reference (string) representation.
func (d Delta) Ref() RefDelta {
	return RefDelta(d)
}

// Ref renders the DNA in the reference (string) representation.
func (dna *DNA) Ref() *RefDNA {
	rd := &RefDNA{FuncName: dna.FuncName, Passes: make(map[string]RefDelta, len(dna.Passes))}
	for name, d := range dna.Passes {
		rd.Passes[name] = d.Ref()
	}
	return rd
}

// RefDelta is Δ_i^f in the reference representation: removed and added
// sub-chains as sorted "→"-joined string sets.
type RefDelta struct {
	Removed []string
	Added   []string
}

// Empty reports whether the pass had no observable effect.
func (d RefDelta) Empty() bool { return len(d.Removed) == 0 && len(d.Added) == 0 }

// RefDNA is one function's DNA in the reference representation.
type RefDNA struct {
	FuncName string
	Passes   map[string]RefDelta
}

// RefExtractDelta is the reference Algorithm 1: identical semantics to
// ExtractDelta, computed over chain strings.
func RefExtractDelta(before, after *mir.Snapshot) RefDelta {
	pre := refChainsOf(before)
	post := refChainsOf(after)
	removed, added := refDiffChainSets(pre, post)
	return RefDelta{Removed: removed, Added: added}
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

// refDeltaExtractor is the reference per-compilation memo (the original
// deltaExtractor): consecutive passes share IR snapshots, so each
// snapshot's chains are computed exactly once per compilation.
type refDeltaExtractor struct {
	lastSnap   *mir.Snapshot
	lastChains []string
}

func (de *refDeltaExtractor) delta(before, after *mir.Snapshot) RefDelta {
	if snapshotsEqual(before, after) {
		if de.lastSnap == before {
			de.lastSnap = after
		}
		return RefDelta{}
	}
	var pre []string
	if before == de.lastSnap && before != nil {
		pre = de.lastChains
	} else {
		pre = refChainsOf(before)
	}
	post := refChainsOf(after)
	de.lastSnap, de.lastChains = after, post
	removed, added := refDiffChainSets(pre, post)
	return RefDelta{Removed: removed, Added: added}
}

// refDepGraph is the map/slice-based dependency graph of the reference.
type refDepGraph struct {
	ops   []string // opcode by node index
	deps  [][]int  // node -> dependency node indexes
	roots []int
}

func refBuildGraph(s *mir.Snapshot) refDepGraph {
	idToIdx := make(map[int]int, len(s.Instrs))
	for i, in := range s.Instrs {
		idToIdx[in.ID] = i
	}
	g := refDepGraph{
		ops:  make([]string, len(s.Instrs)),
		deps: make([][]int, len(s.Instrs)),
	}
	inGraph := make([]bool, len(s.Instrs))
	isRoot := make([]bool, len(s.Instrs))
	for i, in := range s.Instrs {
		g.ops[i] = in.Opcode
		if len(in.Operands) == 0 {
			continue
		}
		if !inGraph[i] {
			inGraph[i] = true
			isRoot[i] = true
		}
		for _, opID := range in.Operands {
			j, ok := idToIdx[opID]
			if !ok {
				continue
			}
			if isRoot[j] {
				isRoot[j] = false
			}
			inGraph[j] = true
			g.deps[i] = append(g.deps[i], j)
		}
	}
	for i := range s.Instrs {
		if inGraph[i] && isRoot[i] {
			g.roots = append(g.roots, i)
		}
	}
	return g
}

// refChainsOf returns the dependency chains (as opcode-sequence strings)
// of the snapshot — MakeChains over every root, recursively. The result
// is a sorted multiset.
func refChainsOf(s *mir.Snapshot) []string {
	g := refBuildGraph(s)
	var out []string
	var path []string
	onPath := map[int]bool{}
	var walk func(n int)
	walk = func(n int) {
		if len(out) >= maxChains {
			return
		}
		if onPath[n] || len(path) >= maxChainLen {
			// Cycle (phi back edge) or depth cap: terminate the chain here.
			out = append(out, strings.Join(path, chainSep))
			return
		}
		path = append(path, g.ops[n])
		onPath[n] = true
		if len(g.deps[n]) == 0 {
			out = append(out, strings.Join(path, chainSep))
		} else {
			for _, d := range g.deps[n] {
				walk(d)
			}
		}
		onPath[n] = false
		path = path[:len(path)-1]
	}
	for _, r := range g.roots {
		walk(r)
	}
	sort.Strings(out)
	return out
}

// refDiffChainSets computes δ⁻ and δ⁺ between the pre- and post-pass
// chain collections (sorted string multisets).
func refDiffChainSets(pre, post []string) (removed, added []string) {
	preCount := map[string]int{}
	for _, c := range pre {
		preCount[c]++
	}
	postCount := map[string]int{}
	for _, c := range post {
		postCount[c]++
	}
	var p, q []string
	for _, c := range pre {
		if postCount[c] == 0 {
			p = append(p, c)
		}
	}
	for _, c := range post {
		if preCount[c] == 0 {
			q = append(q, c)
		}
	}
	// Multiplicity drops/rises for chains present on both sides.
	seen := map[string]bool{}
	for c, n := range preCount {
		if seen[c] {
			continue
		}
		seen[c] = true
		m := postCount[c]
		if m == 0 {
			continue // handled by the alignment path
		}
		if n > m {
			removed = append(removed, c)
		} else if m > n {
			added = append(added, c)
		}
	}
	if len(p) > maxPairCands {
		p = p[:maxPairCands]
	}
	if len(q) > maxPairCands {
		q = q[:maxPairCands]
	}

	usedQ := make([]bool, len(q))
	for _, pc := range p {
		pt := strings.Split(pc, chainSep)
		bestScore, bestIdx := 0, -1
		for qi, qc := range q {
			score := lcsLen(pt, strings.Split(qc, chainSep))
			if score > bestScore {
				bestScore, bestIdx = score, qi
			}
		}
		if bestIdx < 0 {
			removed = append(removed, pc)
			continue
		}
		usedQ[bestIdx] = true
		qt := strings.Split(q[bestIdx], chainSep)
		rem, add := alignDiff(pt, qt)
		removed = append(removed, rem...)
		added = append(added, add...)
	}
	for qi, qc := range q {
		if !usedQ[qi] {
			added = append(added, qc)
		}
	}
	return sortedSet(removed), sortedSet(added)
}

// lcsLen is the longest-common-subsequence length of two token sequences.
func lcsLen(a, b []string) int {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for i := 1; i <= len(a); i++ {
		for j := 1; j <= len(b); j++ {
			if a[i-1] == b[j-1] {
				cur[j] = prev[j-1] + 1
			} else if prev[j] >= cur[j-1] {
				cur[j] = prev[j]
			} else {
				cur[j] = cur[j-1]
			}
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// alignDiff aligns two chains on their LCS and returns the removed runs of
// a and added runs of b, each anchored with the adjacent common element:
// for a = A→B→C→D and b = B→C→E it returns removed {A→B, C→D} and added
// {C→E}, matching §IV-D's example.
func alignDiff(a, b []string) (removed, added []string) {
	keepA, keepB := lcsMask(a, b)
	removed = runsWithAnchors(a, keepA)
	added = runsWithAnchors(b, keepB)
	return removed, added
}

// lcsMask marks the elements of a and b that belong to one LCS.
func lcsMask(a, b []string) (maskA, maskB []bool) {
	la, lb := len(a), len(b)
	dp := make([][]int16, la+1)
	for i := range dp {
		dp[i] = make([]int16, lb+1)
	}
	for i := 1; i <= la; i++ {
		for j := 1; j <= lb; j++ {
			if a[i-1] == b[j-1] {
				dp[i][j] = dp[i-1][j-1] + 1
			} else if dp[i-1][j] >= dp[i][j-1] {
				dp[i][j] = dp[i-1][j]
			} else {
				dp[i][j] = dp[i][j-1]
			}
		}
	}
	maskA = make([]bool, la)
	maskB = make([]bool, lb)
	for i, j := la, lb; i > 0 && j > 0; {
		switch {
		case a[i-1] == b[j-1]:
			maskA[i-1], maskB[j-1] = true, true
			i--
			j--
		case dp[i-1][j] >= dp[i][j-1]:
			i--
		default:
			j--
		}
	}
	return maskA, maskB
}

// runsWithAnchors extracts each maximal run of non-kept elements, extended
// with the adjacent kept element on each side when present.
func runsWithAnchors(seq []string, kept []bool) []string {
	var out []string
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
		out = append(out, strings.Join(seq[start:end], chainSep))
		i = j
	}
	return out
}

// sortedSet sorts and dedups a chain list in place, returning it.
func sortedSet(chains []string) []string {
	if len(chains) == 0 {
		return nil
	}
	sort.Strings(chains)
	out := chains[:1]
	for _, c := range chains[1:] {
		if c != out[len(out)-1] {
			out = append(out, c)
		}
	}
	return out
}

// RefCompareChains is the reference COMPARECHAINS over sorted string sets.
func RefCompareChains(a, b []string, ratio float64, thr int) bool {
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

// RefSimilarDeltas is the reference delta similarity.
func RefSimilarDeltas(a, b RefDelta, ratio float64, thr int) bool {
	return RefCompareChains(a.Removed, b.Removed, ratio, thr) ||
		RefCompareChains(a.Added, b.Added, ratio, thr)
}

// ReferenceDetector is the original brute-force detector: string-based Δ
// extraction and a full database scan per compilation. It implements
// engine.Policy so whole engine runs can be replayed against it; the
// equivalence tests assert it and Detector produce identical decisions.
// Unlike Detector it does not deduplicate Matches (the historical
// behavior). The database is converted to the reference representation at
// first use; mutations after that are not observed.
type ReferenceDetector struct {
	DB    *Database
	Thr   int
	Ratio float64

	// Matches accumulates every similarity found, duplicates included.
	Matches []obs.Match

	refVDCs []refVDC
}

type refVDC struct {
	cve  string
	dnas []*RefDNA
}

// NewReferenceDetector creates a reference detector over db with the
// paper's default threshold (3) and ratio (50%).
func NewReferenceDetector(db *Database) *ReferenceDetector {
	return &ReferenceDetector{DB: db, Thr: DefaultThr, Ratio: DefaultRatio}
}

var _ engine.Policy = (*ReferenceDetector)(nil)

// Active implements engine.Policy.
func (r *ReferenceDetector) Active() bool { return r.DB != nil && r.DB.Size() > 0 }

// Reset clears the accumulated matches.
func (r *ReferenceDetector) Reset() { r.Matches = nil }

// refDB converts the database to the reference representation once.
func (r *ReferenceDetector) refDB() []refVDC {
	if r.refVDCs != nil || r.DB == nil {
		return r.refVDCs
	}
	for _, vdc := range r.DB.VDCs {
		rv := refVDC{cve: vdc.CVE}
		for i := range vdc.DNAs {
			rv.dnas = append(rv.dnas, vdc.DNAs[i].Ref())
		}
		r.refVDCs = append(r.refVDCs, rv)
	}
	return r.refVDCs
}

// BeginCompile implements engine.Policy with the reference pipeline.
func (r *ReferenceDetector) BeginCompile(fnName string) (passes.Observer, func() engine.CompileDecision) {
	dna := RefDNA{FuncName: fnName, Passes: map[string]RefDelta{}}
	var de refDeltaExtractor
	obs := func(_ int, passName string, before, after *mir.Snapshot) {
		if before == nil || after == nil {
			return // pass skipped (already disabled)
		}
		delta := de.delta(before, after)
		if !delta.Empty() {
			dna.Passes[passName] = delta
		}
	}
	finish := func() engine.CompileDecision {
		return r.Decide(&dna)
	}
	return obs, finish
}

// Decide is the reference finish step: brute-force comparison of one
// function's DNA against every VDC DNA in the database.
func (r *ReferenceDetector) Decide(dna *RefDNA) engine.CompileDecision {
	disSet := map[string]bool{}
	for _, vdc := range r.refDB() {
		for _, vdna := range vdc.dnas {
			for passName, vdelta := range vdna.Passes {
				fdelta, ok := dna.Passes[passName]
				if !ok {
					continue
				}
				if RefSimilarDeltas(fdelta, vdelta, r.Ratio, r.Thr) {
					if !disSet[passName] {
						disSet[passName] = true
					}
					// The reference scan does not attribute witness chains.
					r.Matches = append(r.Matches, obs.Match{CVE: vdc.cve, VDCFunc: vdna.FuncName, Pass: passName})
				}
			}
		}
	}
	if len(disSet) == 0 {
		return engine.CompileDecision{}
	}
	names := make([]string, 0, len(disSet))
	noJIT := false
	for name := range disSet {
		if !passes.Disableable(name) {
			noJIT = true
		}
		names = append(names, name)
	}
	sort.Strings(names)
	if noJIT {
		return engine.CompileDecision{NoJIT: true, DisabledPasses: names}
	}
	return engine.CompileDecision{DisabledPasses: names}
}
