package mir_test

import (
	"reflect"
	"testing"

	"github.com/jitbull/jitbull/internal/mir"
)

// TestSnapUnlessEqualAgreesWithSnap: on every graph between passes of the
// corpus, SnapUnlessEqual(prev) returns prev exactly when Snap's snapshot
// equals it, and otherwise a new snapshot equal to Snap's. prev is the
// Snap of each of the two boundaries before (the first of a compile's
// boundaries meets the last ones of another function) and nil.
func TestSnapUnlessEqualAgreesWithSnap(t *testing.T) {
	var prev [2]*mir.Snapshot
	same, differ := 0, 0
	forEachCorpusGraph(t, func(g *mir.Graph) {
		if t.Failed() {
			return
		}
		want := g.Snap()
		for _, p := range []*mir.Snapshot{prev[0], prev[1], nil} {
			got := g.SnapUnlessEqual(p)
			switch {
			case p != nil && reflect.DeepEqual(want, p):
				same++
				if got != p {
					t.Fatalf("%s: the graph snapshots equal to prev, but SnapUnlessEqual did not return prev", g.Name)
				}
			case got == p:
				t.Fatalf("%s: SnapUnlessEqual returned prev for a graph whose snapshot differs from it", g.Name)
			default:
				differ++
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: SnapUnlessEqual's new snapshot differs from Snap's", g.Name)
				}
			}
		}
		prev[0], prev[1] = want, prev[0]
	})
	t.Logf("%d comparisons returned prev, %d built a snapshot", same, differ)
	if same == 0 || differ == 0 {
		t.Error("the corpus exercised only one outcome")
	}
}
