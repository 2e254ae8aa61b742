package core

// Tests for the Δ pairing scorer: the word-parallel lcsScore must return
// the integer the reference's cell-by-cell lcsLen returns, and the
// pairing loop's prunes, multiplicity collapse and maxPairCands truncation
// must leave ExtractDelta identical to RefExtractDelta.

import (
	"math/rand"
	"strconv"
	"testing"

	"github.com/jitbull/jitbull/internal/obs"
)

// scoreBoth scores one pair with the word-parallel scorer and with the
// reference DP over the tokens' decimal renderings.
func scoreBoth(de *deltaExtractor, a, b []uint32) (fast, ref int) {
	masks := de.lcsMasks(a)
	fast = lcsScore(masks, b)
	de.clearLCSMasks(a)
	str := func(toks []uint32) []string {
		out := make([]string, len(toks))
		for i, t := range toks {
			out[i] = strconv.Itoa(int(t))
		}
		return out
	}
	return fast, lcsLen(str(a), str(b))
}

// lcsLengths are the chain lengths the scorer's edge cases live at: empty,
// one token, and either side of the maxChainLen cap.
var lcsLengths = []int{0, 1, maxChainLen - 1, maxChainLen}

func TestLCSScoreMatchesReference(t *testing.T) {
	de := newDeltaExtractor()
	defer de.release()
	rng := rand.New(rand.NewSource(13))
	randToks := func(n, alphabet int) []uint32 {
		out := make([]uint32, n)
		for i := range out {
			out[i] = uint32(rng.Intn(alphabet))
		}
		return out
	}
	check := func(a, b []uint32) {
		t.Helper()
		if fast, ref := scoreBoth(de, a, b); fast != ref {
			t.Fatalf("lcsScore = %d, reference lcsLen = %d\na %v\nb %v", fast, ref, a, b)
		}
	}
	// Small alphabets repeat tokens heavily (several set bits per mask, long
	// carry chains); 200 mostly does not.
	for _, alphabet := range []int{1, 2, 3, 8, 200} {
		for _, la := range lcsLengths {
			for _, lb := range lcsLengths {
				for trial := 0; trial < 20; trial++ {
					check(randToks(la, alphabet), randToks(lb, alphabet))
				}
			}
		}
		for trial := 0; trial < 500; trial++ {
			check(randToks(rng.Intn(maxChainLen+1), alphabet), randToks(rng.Intn(maxChainLen+1), alphabet))
		}
	}
	// The mask table must be all zero between uses, whatever was scored.
	for tok, m := range de.tokMask {
		if m != 0 {
			t.Fatalf("tokMask[%d] = %#x left behind", tok, m)
		}
	}
}

func FuzzLCSLen(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte{1}, []byte{1})
	f.Add([]byte{1, 2, 3, 4}, []byte{2, 4})
	f.Add([]byte{0, 0, 0, 0, 0, 0}, []byte{0, 0, 0})
	full := make([]byte, maxChainLen)
	for i := range full {
		full[i] = byte(i % 3)
	}
	f.Add(full, full[1:])
	f.Add(full[:maxChainLen-1], full)
	f.Fuzz(func(t *testing.T, a, b []byte) {
		toks := func(raw []byte) []uint32 {
			if len(raw) > maxChainLen {
				raw = raw[:maxChainLen]
			}
			out := make([]uint32, len(raw))
			for i, c := range raw {
				out[i] = uint32(c)
			}
			return out
		}
		de := newDeltaExtractor()
		defer de.release()
		if fast, ref := scoreBoth(de, toks(a), toks(b)); fast != ref {
			t.Fatalf("lcsScore = %d, reference lcsLen = %d\na %v\nb %v", fast, ref, a, b)
		}
	})
}

// ladderSnapshotBytes encodes, in snapshotFromBytes' layout, an n-node
// ladder: node i depends on i+1 and i+2, so root→leaf paths number
// Fibonacci(n) and (with distinct opcode sequences along them) so do the
// distinct chains; the last edge is listed twice, which duplicates every
// chain through it (a doubled edge near the root would sit past the
// maxChains cut). opcode(i) selects node i's opcode.
func ladderSnapshotBytes(n int, opcode func(i int) byte) []byte {
	var out []byte
	for i := 0; i < n; i++ {
		out = append(out, opcode(i))
		switch {
		case i+2 < n:
			out = append(out, 2, byte(i+1), byte(i+2))
		case i+1 < n:
			out = append(out, 2, byte(i+1), byte(i+1))
		default:
			out = append(out, 0)
		}
	}
	return out
}

// heavyPairingSeed is the FuzzExtractDeltaEquivalence input (also checked
// in under testdata/fuzz) whose two ladders share no chain: more than
// maxPairCands one-sided chains on both sides, with duplicates on both.
func heavyPairingSeed() (data []byte, nBefore, nAfter uint8) {
	const n = 23
	before := ladderSnapshotBytes(n, func(i int) byte { return byte(i % 8) })
	after := ladderSnapshotBytes(n, func(i int) byte { return byte((3*i + 1) % 8) })
	return append(before, after...), n, n
}

// oneSided returns the chains (with multiplicity) present in a but not b.
func oneSided(a, b []string) []string {
	in := map[string]bool{}
	for _, c := range b {
		in[c] = true
	}
	var out []string
	for _, c := range a {
		if !in[c] {
			out = append(out, c)
		}
	}
	return out
}

func hasDuplicates(sorted []string) bool {
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			return true
		}
	}
	return false
}

func TestExtractDeltaEquivalenceHeavyPairing(t *testing.T) {
	data, nb, na := heavyPairingSeed()
	before, rest := snapshotFromBytes(data, int(nb), 1)
	after, rest := snapshotFromBytes(rest, int(na), 1)
	if len(rest) != 0 || len(before.Instrs) != int(nb) || len(after.Instrs) != int(na) {
		t.Fatalf("seed does not decode to two %d-instruction snapshots", nb)
	}
	pre, post := refChainsOf(before), refChainsOf(after)
	p, q := oneSided(pre, post), oneSided(post, pre)
	if len(p) <= maxPairCands || len(q) <= maxPairCands {
		t.Fatalf("seed no longer overflows maxPairCands: %d gone, %d new chains", len(p), len(q))
	}
	if !hasDuplicates(p[:maxPairCands]) || !hasDuplicates(q[:maxPairCands]) {
		t.Fatal("seed has no duplicated chain among the kept candidates of both sides")
	}
	checkDeltaEquivalence(t, before, after)
}

// TestExtractDeltaEquivalenceFullMatch drives the scan's early stop: every
// gone chain is a subsequence of a new chain (an instruction was inserted
// mid-chain), so the best score reaches len(p) and later candidates —
// which tie at best and must not win — are never scored.
func TestExtractDeltaEquivalenceFullMatch(t *testing.T) {
	before := snap(
		"1 add 2 2 3",
		"2 unbox 4",
		"3 phi 4",
		"4 constant(0)",
	)
	after := snap(
		"1 add 2 2 3",
		"2 unbox 5",
		"3 phi 5",
		"5 boundscheck 4 6",
		"6 boundscheck 4",
		"4 constant(0)",
	)
	checkDeltaEquivalence(t, before, after)
	checkDeltaEquivalence(t, after, before)
}

// TestDetectorPairCandsHistogram: "dna.pair_cands" gets one observation
// per non-empty Δ, the product of the one-sided chain counts.
func TestDetectorPairCandsHistogram(t *testing.T) {
	before, after := richSnap(4), richSnap(0)
	db := &Database{}
	db.Add(VDC{CVE: "CVE-H", DNAs: []DNA{{FuncName: "poc", Passes: map[string]Delta{"GVN": ExtractDelta(before, after)}}}})
	det := NewDetector(db)
	det.Metrics = obs.NewRegistry()

	o, finish := det.BeginCompile("victim")
	fakePassRun(o, "GVN", before, after)
	fakePassRun(o, "LICM", after, after) // empty Δ: not observed
	o(2, "Sink", nil, nil)               // skipped pass: not observed
	finish()

	pre, post := refChainsOf(before), refChainsOf(after)
	want := int64(len(oneSided(pre, post)) * len(oneSided(post, pre)))
	h, ok := det.Metrics.Snapshot()["dna.pair_cands"].(obs.HistSnapshot)
	if !ok || h.Count != 1 || h.Sum != want {
		t.Fatalf("dna.pair_cands = %+v, want one observation of %d", h, want)
	}
}
