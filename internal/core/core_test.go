package core

import (
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"github.com/jitbull/jitbull/internal/mir"
)

// snap builds a snapshot from "id opcode [operand ids...]" lines.
func snap(lines ...string) *mir.Snapshot {
	s := &mir.Snapshot{FuncName: "t"}
	for _, l := range lines {
		parts := strings.Fields(l)
		in := mir.SnapInstr{Opcode: parts[1]}
		in.ID = atoi(parts[0])
		for _, p := range parts[2:] {
			in.Operands = append(in.Operands, atoi(p))
		}
		s.Instrs = append(s.Instrs, in)
	}
	return s
}

func atoi(s string) int {
	n := 0
	for _, c := range s {
		n = n*10 + int(c-'0')
	}
	return n
}

func TestBuildGraphRootsAndChains(t *testing.T) {
	// Mirrors the paper's Listing 1 shape: boundscheck(unbox,
	// initializedlength(elements(unbox))).
	s := snap(
		"1 parameter",
		"2 unbox 1",
		"6 elements 2",
		"7 initializedlength 6",
		"3 constant",
		"8 boundscheck 3 7",
	)
	chains := chainStringsOf(s)
	want := []string{
		"boundscheck→constant",
		"boundscheck→initializedlength→elements→unbox→parameter",
	}
	if !reflect.DeepEqual(chains, want) {
		t.Fatalf("chains = %v, want %v", chains, want)
	}
	if ref := refChainsOf(s); !reflect.DeepEqual(ref, want) {
		t.Fatalf("reference chains = %v, want %v", ref, want)
	}
}

// chainsOf fills cs with the chain multiset of one snapshot.
func (de *deltaExtractor) chainsOf(s *mir.Snapshot, cs *chainSet) {
	var g depGraph
	de.buildGraph(s, &g)
	de.walkChains(&g, cs)
}

// chainStringsOf runs the chain enumeration and renders the result as
// sorted strings.
func chainStringsOf(s *mir.Snapshot) []string {
	de := newDeltaExtractor(nil)
	defer de.release()
	var cs chainSet
	de.chainsOf(s, &cs)
	return de.strings(&cs)
}

// strings renders a chain set as sorted chain strings, duplicates kept
// (nil when empty).
func (de *deltaExtractor) strings(cs *chainSet) []string {
	if len(cs.keys) == 0 {
		return nil
	}
	out := make([]string, 0, len(cs.keys))
	for _, k := range cs.keys {
		out = append(out, de.chainStr(cs.chain(k)))
	}
	sort.Strings(out)
	return out
}

// chainStr renders a token span.
func (de *deltaExtractor) chainStr(toks []uint32) string {
	parts := make([]string, len(toks))
	for i, tok := range toks {
		parts[i] = de.tokNames[tok]
	}
	return strings.Join(parts, chainSep)
}

// chainSetOf builds a sorted chain set from chain strings, hashed as
// walkChains hashes them.
func (de *deltaExtractor) chainSetOf(chains []string) *chainSet {
	cs := &chainSet{}
	for _, c := range chains {
		toks := de.tokensOf(c)
		cs.add(toks, chainHash(toks))
	}
	cs.sort()
	return cs
}

// mkDelta builds a Delta from chain lists, each side as a sorted set.
func mkDelta(removed, added []string) Delta {
	return Delta{Removed: sortedSet(slices.Clone(removed)), Added: sortedSet(slices.Clone(added))}
}

// chainHash is the content hash walkChains computes as the path grows.
func chainHash(toks []uint32) uint64 {
	h := uint64(chainHashSeed)
	for _, t := range toks {
		h = chainHashStep(h, t)
	}
	return chainHashFinal(h)
}

// tokensOf returns a chain string's token IDs in de's numbering.
func (de *deltaExtractor) tokensOf(c string) []uint32 {
	var toks []uint32
	for _, p := range strings.Split(c, chainSep) {
		toks = append(toks, de.token(p))
	}
	return toks
}

func TestChainsCutCycles(t *testing.T) {
	// phi <-> add cycle, as loop headers produce.
	s := snap(
		"1 constant",
		"2 phi 1 3",
		"3 add 2 1",
		"4 return 3",
	)
	chains := chainStringsOf(s)
	if len(chains) == 0 {
		t.Fatal("no chains from cyclic graph")
	}
	for _, c := range chains {
		if strings.Count(c, "phi") > 2 {
			t.Fatalf("cycle not cut: %s", c)
		}
	}
}

func TestAlignDiffPaperExample(t *testing.T) {
	// §IV-D: C_{i-1} = A→B→C→D, C_i = B→C→E
	// δ⁻ = {A→B, C→D}, δ⁺ = {C→E}.
	removed, added := alignDiff(
		[]string{"A", "B", "C", "D"},
		[]string{"B", "C", "E"},
	)
	if !reflect.DeepEqual(removed, []string{"A→B", "C→D"}) {
		t.Errorf("removed = %v", removed)
	}
	if !reflect.DeepEqual(added, []string{"C→E"}) {
		t.Errorf("added = %v", added)
	}
}

func TestAlignDiffMiddleRun(t *testing.T) {
	removed, added := alignDiff(
		[]string{"A", "X", "B"},
		[]string{"A", "B"},
	)
	if !reflect.DeepEqual(removed, []string{"A→X→B"}) {
		t.Errorf("removed = %v", removed)
	}
	if len(added) != 0 {
		t.Errorf("added = %v", added)
	}
}

func TestExtractDeltaIdenticalSnapshotsIsEmpty(t *testing.T) {
	s := snap("1 parameter", "2 unbox 1", "3 return 2")
	d := ExtractDelta(s, s)
	if !d.Empty() {
		t.Fatalf("delta of identical IRs must be empty: %+v", d)
	}
}

func TestExtractDeltaRemovedInstruction(t *testing.T) {
	before := snap(
		"1 parameter",
		"2 unbox 1",
		"3 elements 2",
		"4 initializedlength 3",
		"5 constant",
		"6 boundscheck 5 4",
		"7 loadelement 3 5",
		"8 return 7",
	)
	after := snap(
		"1 parameter",
		"2 unbox 1",
		"3 elements 2",
		"4 initializedlength 3",
		"5 constant",
		"7 loadelement 3 5",
		"8 return 7",
	)
	d := ExtractDelta(before, after)
	joined := strings.Join(d.Removed, " | ")
	if !strings.Contains(joined, "boundscheck") {
		t.Fatalf("removed chains should mention boundscheck: %v", d.Removed)
	}
	// Renumbering between snapshots must not matter: shift all post IDs.
	after2 := snap(
		"11 parameter",
		"12 unbox 11",
		"13 elements 12",
		"14 initializedlength 13",
		"15 constant",
		"17 loadelement 13 15",
		"18 return 17",
	)
	d2 := ExtractDelta(before, after2)
	if !reflect.DeepEqual(d, d2) {
		t.Fatalf("delta must be ID-independent:\n%v\nvs\n%v", d, d2)
	}
}

func TestCompareChains(t *testing.T) {
	mk := func(n int, prefix string) []string {
		var out []string
		for i := 0; i < n; i++ {
			out = append(out, prefix+string(rune('a'+i)))
		}
		return out
	}
	tests := []struct {
		a, b []string
		thr  int
		rat  float64
		want bool
	}{
		{mk(4, "x"), mk(4, "x"), 3, 0.5, true},                                                // identical
		{mk(2, "x"), mk(2, "x"), 3, 0.5, false},                                               // below Thr
		{mk(10, "x"), mk(10, "y"), 3, 0.5, false},                                             // disjoint
		{append(mk(3, "x"), mk(9, "y")...), mk(3, "x"), 3, 0.5, true},                         // 3 of min(12,3)=3
		{append(mk(3, "x"), mk(9, "y")...), append(mk(3, "x"), mk(9, "z")...), 3, 0.5, false}, // 3 of 12 < 50%
		{nil, mk(3, "x"), 3, 0.5, false},
	}
	for i, tt := range tests {
		ra := sortedSet(append([]string(nil), tt.a...))
		rb := sortedSet(append([]string(nil), tt.b...))
		if got := CompareChains(ra, rb, tt.rat, tt.thr); got != tt.want {
			t.Errorf("case %d: got %v, want %v", i, got, tt.want)
		}
		if got := RefCompareChains(ra, rb, tt.rat, tt.thr); got != tt.want {
			t.Errorf("case %d (reference): got %v, want %v", i, got, tt.want)
		}
	}
}

func TestCompareChainsPropertySymmetric(t *testing.T) {
	f := func(xs, ys []uint8) bool {
		mk := func(v []uint8) []string {
			var out []string
			for _, x := range v {
				out = append(out, strings.Repeat("c", int(x%7)+1))
			}
			return sortedSet(out)
		}
		a, b := mk(xs), mk(ys)
		return CompareChains(a, b, 0.5, 3) == CompareChains(b, a, 0.5, 3)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSimilarDeltasEitherSideSuffices(t *testing.T) {
	a := mkDelta([]string{"p", "q", "r"}, nil)
	b := mkDelta([]string{"p", "q", "r"}, nil)
	if !SimilarDeltas(a, b, 0.5, 3) {
		t.Error("removed-side similarity not detected")
	}
	c := mkDelta(nil, []string{"p", "q", "r"})
	d := mkDelta(nil, []string{"p", "q", "r"})
	if !SimilarDeltas(c, d, 0.5, 3) {
		t.Error("added-side similarity not detected")
	}
	if SimilarDeltas(a, d, 0.5, 3) {
		t.Error("removed-vs-added must not match")
	}
}

func TestDatabaseAddRemoveSaveLoad(t *testing.T) {
	db := &Database{}
	db.Add(VDC{CVE: "CVE-1", DNAs: []DNA{{FuncName: "f", Passes: map[string]Delta{
		"GVN": mkDelta([]string{"a→b", "c→d", "e→f"}, nil),
	}}}})
	db.Add(VDC{CVE: "CVE-2", DNAs: []DNA{{FuncName: "g", Passes: map[string]Delta{}}}})
	if db.Size() != 2 {
		t.Fatalf("size = %d", db.Size())
	}
	db.Add(VDC{CVE: "CVE-1", DNAs: nil}) // replace
	if db.Size() != 2 {
		t.Fatalf("size after replace = %d", db.Size())
	}
	if !db.Remove("CVE-2") || db.Remove("CVE-2") {
		t.Fatal("remove semantics")
	}
	path := filepath.Join(t.TempDir(), "db.json")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadDatabase(path)
	if err != nil {
		t.Fatal(err)
	}
	// Compare the VDC payload only: the compiled-index cache (unexported)
	// is per-instance state, not part of the database's identity.
	if !reflect.DeepEqual(db.VDCs, loaded.VDCs) {
		t.Fatalf("round-trip mismatch:\n%+v\nvs\n%+v", db.VDCs, loaded.VDCs)
	}
}

func TestSortedSetDedups(t *testing.T) {
	got := sortedSet([]string{"b", "a", "b", "c", "a"})
	if !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Fatalf("sortedSet = %v", got)
	}
}

func TestDiffChainSetsWholeChains(t *testing.T) {
	pre := []string{"a→b→c", "x→y"}
	post := []string{"a→b→c"}
	removed, added := refDiffChainSets(pre, post)
	// x→y has no counterpart with common elements; emitted whole.
	if len(removed) != 1 || removed[0] != "x→y" {
		t.Fatalf("removed = %v", removed)
	}
	if len(added) != 0 {
		t.Fatalf("added = %v", added)
	}
	de := newDeltaExtractor(nil)
	defer de.release()
	rem, add := de.diffChainSets(de.chainSetOf(pre), de.chainSetOf(post))
	if got := de.render(idDelta{removed: rem}).Removed; !reflect.DeepEqual(got, removed) {
		t.Fatalf("fast removed = %v, want %v", got, removed)
	}
	if len(add) != 0 {
		t.Fatalf("fast added = %v", de.render(idDelta{added: add}).Added)
	}
}
