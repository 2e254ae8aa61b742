package core

import (
	"testing"

	"github.com/jitbull/jitbull/internal/mir"
)

// TestIsPathFollowsDependencyEdges: a token sequence is a path when some
// walk along operand edges spells it, through shared nodes and cycles;
// an edge taken backwards or a token the graph lacks is not.
func TestIsPathFollowsDependencyEdges(t *testing.T) {
	s := snap(
		"1 parameter",
		"2 unbox 1",
		"6 elements 2",
		"7 initializedlength 6",
		"3 constant",
		"8 boundscheck 3 7",
		"9 phi 3 10",
		"10 add 9 3",
	)
	db := &Database{}
	cases := map[string]bool{
		"boundscheck→initializedlength→elements→unbox→parameter": true,
		"initializedlength→elements":                             true,
		"constant":                                               true,
		"phi→add→phi→add→constant":                               true, // around the cycle
		"elements→initializedlength":                             false,
		"boundscheck→elements":                                   false,
		"unbox→parameter→unbox":                                  false,
		"neg":                                                    false,
	}
	var chains []string
	for c := range cases {
		chains = append(chains, c)
	}
	db.Add(VDC{CVE: "CVE-P", DNAs: []DNA{{FuncName: "poc", Passes: map[string]Delta{"GVN": mkDelta(chains, nil)}}}})
	ix := db.Index(1)
	de := newDeltaExtractor(ix)
	defer de.release()
	var st irState
	de.load(&st, s)
	de.bucket(ix, &st)
	for c, want := range cases {
		if got := de.isPath(&st, de.tokensOf(c)); got != want {
			t.Errorf("isPath(%s) = %v, want %v", c, got, want)
		}
	}
}

// TestMayMatchCountsPathsPerEntry: an entry can match only when at least
// max(Thr,1) of one side's chains are paths of that side's graph. The
// test passes a pass whose Δ is the entry's own, skips one whose graphs
// hold fewer than Thr of its chains, and passes every changed pass under
// degenerate thresholds.
func TestMayMatchCountsPathsPerEntry(t *testing.T) {
	before, after := richSnap(4), richSnap(0)
	db := &Database{}
	db.Add(VDC{CVE: "CVE-M", DNAs: []DNA{{FuncName: "poc", Passes: map[string]Delta{
		"GVN": ExtractDelta(before, after),
	}}}})
	other, otherAfter := snap("1 parameter#0", "2 neg 1", "3 return 2"), snap("1 parameter#0", "3 return 1")
	for _, tc := range []struct {
		name          string
		before, after *mir.Snapshot
		thr           int
		ratio         float64
		want          bool
	}{
		{"own Δ", before, after, DefaultThr, DefaultRatio, true},
		{"unrelated pass", other, otherAfter, DefaultThr, DefaultRatio, false},
		{"unrelated pass, Thr 1", other, otherAfter, 1, DefaultRatio, false},
		{"unrelated pass, degenerate thresholds", other, otherAfter, 0, 0, true},
	} {
		ix := db.Index(tc.thr)
		de := newDeltaExtractor(ix)
		pre, post, changed := de.advance(tc.before, tc.after)
		if !changed {
			t.Fatalf("%s: fixture unchanged", tc.name)
		}
		if got := de.mayMatch(ix, ix.postings("GVN"), tc.ratio, pre, post); got != tc.want {
			t.Errorf("%s: mayMatch = %v, want %v", tc.name, got, tc.want)
		}
		de.release()
	}
}
