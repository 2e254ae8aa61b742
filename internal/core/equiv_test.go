package core

// Golden-equivalence tests: the interned fast path (extract.go, index.go,
// compare.go) must be indistinguishable — chain for chain, decision for
// decision — from the retained string-based reference (reference.go).

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/jitbull/jitbull/internal/engine"
	"github.com/jitbull/jitbull/internal/mir"
	"github.com/jitbull/jitbull/internal/obs"
)

// fuzzOpcodes is the opcode alphabet for generated snapshots. Multiple
// tokens with shared prefixes exercise LCS tie-breaks; a token that sorts
// before and after the others exercises candidate ordering.
var fuzzOpcodes = []string{
	"add", "boundscheck", "constant(0)", "constant(1)",
	"elements", "loadelement", "phi", "unbox",
}

// snapshotFromBytes decodes one synthetic snapshot from a byte stream.
// Layout per instruction: opcode selector, operand count (0-3), then one
// byte per operand selecting a target instruction slot (may be dangling
// or self/backward-referential — the graph builder must tolerate both).
// idStride spreads instruction IDs out to hit the sparse-lookup path.
func snapshotFromBytes(data []byte, n int, idStride int) (*mir.Snapshot, []byte) {
	s := &mir.Snapshot{FuncName: "fuzz"}
	for i := 0; i < n && len(data) > 0; i++ {
		op := fuzzOpcodes[int(data[0])%len(fuzzOpcodes)]
		data = data[1:]
		in := mir.SnapInstr{ID: 1 + i*idStride, Opcode: op}
		if len(data) > 0 {
			nOps := int(data[0]) % 4
			data = data[1:]
			for k := 0; k < nOps && len(data) > 0; k++ {
				slot := int(data[0]) % (n + 2) // may dangle past the end
				data = data[1:]
				in.Operands = append(in.Operands, 1+slot*idStride)
			}
		}
		s.Instrs = append(s.Instrs, in)
	}
	return s, data
}

// checkDeltaEquivalence asserts every fast-path product equals its
// reference counterpart for one snapshot pair.
func checkDeltaEquivalence(t *testing.T, before, after *mir.Snapshot) {
	t.Helper()

	de := newDeltaExtractor()
	var pre, post chainSet
	de.chainsOf(before, &pre)
	de.chainsOf(after, &post)
	gotPre, gotPost := pre.strings(), post.strings()
	de.release()
	wantPre := refChainsOf(before)
	wantPost := refChainsOf(after)
	if !reflect.DeepEqual(gotPre, wantPre) {
		t.Fatalf("chainsOf(before) diverged:\nfast %v\nref  %v", gotPre, wantPre)
	}
	if !reflect.DeepEqual(gotPost, wantPost) {
		t.Fatalf("chainsOf(after) diverged:\nfast %v\nref  %v", gotPost, wantPost)
	}

	got := ExtractDelta(before, after).Ref()
	want := RefExtractDelta(before, after)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("delta diverged:\nfast %+v\nref  %+v", got, want)
	}

	// COMPARECHAINS must agree across thresholds, including degenerate ones.
	fa := InternChains(want.Removed)
	fb := InternChains(want.Added)
	for _, thr := range []int{0, 1, 3} {
		for _, ratio := range []float64{0, 0.5, 1} {
			if CompareChains(fa, fb, ratio, thr) != RefCompareChains(want.Removed, want.Added, ratio, thr) {
				t.Fatalf("CompareChains diverged at thr=%d ratio=%v for %v vs %v", thr, ratio, want.Removed, want.Added)
			}
		}
	}
}

func FuzzExtractDeltaEquivalence(f *testing.F) {
	f.Add([]byte{}, uint8(3), uint8(3), false)
	f.Add([]byte{1, 2, 0, 3, 1, 1, 2, 2, 0, 4, 2, 1, 2}, uint8(5), uint8(4), false)
	f.Add([]byte{7, 1, 1, 6, 2, 0, 1, 5, 3, 0, 1, 2, 0, 0, 4, 1, 3}, uint8(6), uint8(6), true)
	f.Add([]byte{0, 3, 1, 1, 1, 0, 3, 2, 2, 1, 2, 3, 3, 0, 1, 2}, uint8(8), uint8(2), false)
	f.Fuzz(func(t *testing.T, data []byte, nBefore, nAfter uint8, sparse bool) {
		stride := 1
		if sparse {
			stride = 1000 // force the map-based instruction-ID lookup
		}
		before, rest := snapshotFromBytes(data, int(nBefore)%24, stride)
		after, _ := snapshotFromBytes(rest, int(nAfter)%24, stride)
		checkDeltaEquivalence(t, before, after)
	})
}

// randSnapshot generates a denser random snapshot than the fuzz decoder:
// mostly-forward operand references (DAG-like, as real MIR is) with
// occasional back edges (phi loops).
func randSnapshot(rng *rand.Rand, n int) *mir.Snapshot {
	s := &mir.Snapshot{FuncName: "rand"}
	for i := 0; i < n; i++ {
		in := mir.SnapInstr{ID: i + 1, Opcode: fuzzOpcodes[rng.Intn(len(fuzzOpcodes))]}
		for k := rng.Intn(3); k > 0 && i > 0; k-- {
			if rng.Intn(8) == 0 {
				in.Operands = append(in.Operands, rng.Intn(n)+1) // back/self edge
			} else {
				in.Operands = append(in.Operands, rng.Intn(i)+1)
			}
		}
		s.Instrs = append(s.Instrs, in)
	}
	return s
}

func TestExtractDeltaEquivalenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(20)
		before := randSnapshot(rng, n)
		// Mutate a copy, so the pair is related (the interesting regime for
		// the pairing/alignment logic) rather than independent noise.
		after := &mir.Snapshot{FuncName: before.FuncName}
		for _, in := range before.Instrs {
			if rng.Intn(5) == 0 {
				continue // drop instruction
			}
			cp := in
			cp.Operands = append([]int(nil), in.Operands...)
			if rng.Intn(5) == 0 {
				cp.Opcode = fuzzOpcodes[rng.Intn(len(fuzzOpcodes))]
			}
			after.Instrs = append(after.Instrs, cp)
		}
		checkDeltaEquivalence(t, before, after)
	}
}

// randDelta builds a random delta over a fixed chain vocabulary.
func randDelta(rng *rand.Rand, vocab []string) ([]string, []string) {
	pick := func() []string {
		var out []string
		for _, c := range vocab {
			if rng.Intn(3) == 0 {
				out = append(out, c)
			}
		}
		return out
	}
	return pick(), pick()
}

// TestDecideEquivalenceRandomDB drives Detector (inverted index) and
// ReferenceDetector (brute-force scan) over the same random databases and
// candidate DNAs, across threshold settings including the degenerate ones,
// asserting identical CompileDecisions.
func TestDecideEquivalenceRandomDB(t *testing.T) {
	vocab := []string{
		"a→b→c", "a→b→d", "b→c", "c→d→e", "e→f",
		"boundscheck→constant(0)", "boundscheck→elements→unbox",
		"phi→add", "unbox→a", "x→y→z",
	}
	passNames := []string{"GVN", "LICM", "ApplyTypes", "BoundsCheckElimination", "NotARealPass"}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		db := &Database{}
		for v := rng.Intn(4); v >= 0; v-- {
			vdc := VDC{CVE: "CVE-" + string(rune('A'+v))}
			for d := rng.Intn(3); d >= 0; d-- {
				dna := DNA{FuncName: "poc" + string(rune('0'+d)), Passes: map[string]Delta{}}
				for _, pn := range passNames {
					if rng.Intn(2) == 0 {
						continue
					}
					rem, add := randDelta(rng, vocab)
					dna.Passes[pn] = MakeDelta(rem, add)
				}
				vdc.DNAs = append(vdc.DNAs, dna)
			}
			db.Add(vdc)
		}

		cand := DNA{FuncName: "victim", Passes: map[string]Delta{}}
		for _, pn := range passNames {
			if rng.Intn(2) == 0 {
				continue
			}
			rem, add := randDelta(rng, vocab)
			cand.Passes[pn] = MakeDelta(rem, add)
		}
		refCand := cand.Ref()

		for _, thr := range []int{0, 1, 3} {
			for _, ratio := range []float64{0, 0.5, 1} {
				fast := NewDetector(db)
				fast.Thr, fast.Ratio = thr, ratio
				ref := NewReferenceDetector(db)
				ref.Thr, ref.Ratio = thr, ratio
				got := fast.Decide(&cand)
				want := ref.Decide(refCand)
				got.Matches = nil // the reference's decision carries no evidence; keys are compared below
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d thr=%d ratio=%v: decision diverged\nfast %+v\nref  %+v",
						trial, thr, ratio, got, want)
				}
				// The deduplicated fast-path matches must equal the set of
				// reference matches. Identity is the MatchKey projection:
				// witness-chain attribution is a fast-path-only extra.
				gotSet := map[obs.MatchKey]bool{}
				for _, m := range fast.Matches {
					if gotSet[m.Key()] {
						t.Fatalf("trial %d: duplicate match recorded: %+v", trial, m)
					}
					gotSet[m.Key()] = true
				}
				wantSet := map[obs.MatchKey]bool{}
				for _, m := range ref.Matches {
					wantSet[m.Key()] = true
				}
				if !reflect.DeepEqual(gotSet, wantSet) {
					t.Fatalf("trial %d thr=%d ratio=%v: match sets diverged\nfast %v\nref  %v",
						trial, thr, ratio, fast.Matches, ref.Matches)
				}
			}
		}
	}
}

// TestDetectorMatchesDeduplicated: repeated compilations of the same
// function must not grow Matches past the distinct set, and Reset must
// re-arm accumulation.
func TestDetectorMatchesDeduplicated(t *testing.T) {
	before := richSnap(4)
	after := richSnap(0)
	vdcDelta := ExtractDelta(before, after)
	db := &Database{}
	db.Add(VDC{CVE: "CVE-D", DNAs: []DNA{{FuncName: "poc", Passes: map[string]Delta{"GVN": vdcDelta}}}})
	det := NewDetector(db)
	for i := 0; i < 5; i++ {
		obs, finish := det.BeginCompile("victim")
		fakePassRun(obs, "GVN", before, after)
		if d := finish(); len(d.DisabledPasses) != 1 {
			t.Fatalf("iteration %d: %+v", i, d)
		}
	}
	if len(det.Matches) != 1 {
		t.Fatalf("Matches grew past the distinct set: %+v", det.Matches)
	}
	det.Reset()
	if det.Matches != nil {
		t.Fatal("Reset did not clear Matches")
	}
	obs, finish := det.BeginCompile("victim")
	fakePassRun(obs, "GVN", before, after)
	finish()
	if len(det.Matches) != 1 {
		t.Fatalf("post-Reset accumulation broken: %+v", det.Matches)
	}
}

// TestDetectorAsPolicyEquivalence runs both detectors as engine policies
// over the same observer feed (the integration seam engine.compile uses).
func TestDetectorAsPolicyEquivalence(t *testing.T) {
	before := richSnap(4)
	mid := richSnap(2)
	after := richSnap(0)
	vdcDelta := ExtractDelta(before, after)
	db := &Database{}
	db.Add(VDC{CVE: "CVE-P", DNAs: []DNA{{FuncName: "poc", Passes: map[string]Delta{
		"GVN":  vdcDelta,
		"LICM": vdcDelta,
	}}}})

	run := func(p engine.Policy) engine.CompileDecision {
		obs, finish := p.BeginCompile("victim")
		obs(0, "GVN", before, mid)
		obs(1, "Sink", nil, nil) // skipped pass
		obs(2, "LICM", mid, after)
		return finish()
	}
	got := run(NewDetector(db))
	want := run(NewReferenceDetector(db))
	if len(got.Matches) == 0 {
		t.Fatal("the detector's decision carries no matches")
	}
	got.Matches = nil // the reference's decision carries no evidence
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("policy decisions diverged:\nfast %+v\nref  %+v", got, want)
	}
	if len(got.DisabledPasses) == 0 {
		t.Fatal("fixture found no matches; test is vacuous")
	}
}
