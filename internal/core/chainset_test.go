package core

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// TestChainSetHashTiesGroupByContent: chains whose hashes collide are told
// apart by content, so equal chains still group and the Δ is exact. Every
// chain here is given the same hash.
func TestChainSetHashTiesGroupByContent(t *testing.T) {
	a, b, c := tokensOf("tie-a→x"), tokensOf("tie-b→x"), tokensOf("tie-c→x")
	collide := func(chains ...[]uint32) *chainSet {
		cs := &chainSet{}
		for _, ch := range chains {
			cs.add(ch, 42)
		}
		cs.sort()
		return cs
	}
	pre := collide(a, b, a, c)
	post := collide(b, a, b)
	for _, cs := range []*chainSet{pre, post} {
		seen := map[string]bool{}
		for i := 0; i < len(cs.keys); {
			end := cs.run(i)
			key := chainStr(cs.chain(cs.keys[i]))
			if seen[key] {
				t.Fatalf("chain %q is split into two runs", key)
			}
			seen[key] = true
			i = end
		}
	}

	de := newDeltaExtractor()
	defer de.release()
	rem, add := de.diffChainSets(pre, post)
	// a: 2 → 1 and b: 1 → 2 change multiplicity, emitted whole; c is gone
	// with nothing to pair it with.
	if got, want := ChainStrings(rem), []string{"tie-a→x", "tie-c→x"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("removed = %q, want %q", got, want)
	}
	if got, want := ChainStrings(add), []string{"tie-b→x"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("added = %q, want %q", got, want)
	}
}

// TestCompareJoinedMatchesStrings: compareJoined orders token sequences as
// strings.Compare orders their renderings, including tokens that are
// prefixes of one another ("add" < "addx" but "add→x" > "addx").
func TestCompareJoinedMatchesStrings(t *testing.T) {
	alphabet := []string{"add", "addx", "ad", "a", "b", "constant(1)", "constant(10)", "→", "x→"}
	toks := make([]uint32, len(alphabet))
	for i, s := range alphabet {
		toks[i] = interner.Token(s)
	}
	view := interner.tokensView()
	rng := rand.New(rand.NewSource(7))
	chain := func() []uint32 {
		out := make([]uint32, rng.Intn(4))
		for i := range out {
			out[i] = toks[rng.Intn(len(toks))]
		}
		return out
	}
	for trial := 0; trial < 20000; trial++ {
		a, b := chain(), chain()
		want := strings.Compare(chainStr(a), chainStr(b))
		if got := compareJoined(a, b, view); got != want {
			t.Fatalf("compareJoined(%q, %q) = %d, strings.Compare = %d", chainStr(a), chainStr(b), got, want)
		}
	}
}
