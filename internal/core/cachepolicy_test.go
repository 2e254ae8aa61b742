package core

// Tests for the verdict-cache identity — the policy cache key must follow
// the database's *contents*, not its address: a recycled allocation or a
// post-caching mutation must never let an old verdict be replayed against
// a different database — and for the replay itself.

import (
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"github.com/jitbull/jitbull/internal/engine"
	"github.com/jitbull/jitbull/internal/obs"
)

func TestPolicyCacheKeyTracksDatabaseContents(t *testing.T) {
	db := &Database{}
	d := NewDetector(db)
	k1, ok := d.PolicyCacheKey()
	if !ok || k1 == "" {
		t.Fatalf("healthy detector vetoed caching: %q %v", k1, ok)
	}
	if k2, _ := d.PolicyCacheKey(); k2 != k1 {
		t.Errorf("key not stable: %q vs %q", k1, k2)
	}
	// Content-addressed identity: a structurally identical database — the
	// same contents built or loaded a second time, say — shares the key.
	if other, _ := NewDetector(&Database{}).PolicyCacheKey(); other != k1 {
		t.Errorf("detectors over identical contents report different keys: %q vs %q", other, k1)
	}
	db.Add(VDC{CVE: "CVE-TEST-2"})
	k3, _ := d.PolicyCacheKey()
	if k3 == k1 {
		t.Errorf("key %q survived a database mutation", k1)
	}
	// Different contents must never collide.
	other := &Database{}
	other.Add(VDC{CVE: "CVE-TEST-3"})
	if ko, _ := NewDetector(other).PolicyCacheKey(); ko == k3 || ko == k1 {
		t.Errorf("detectors over different contents share key %q", ko)
	}
	if _, ok := NewDetector(nil).PolicyCacheKey(); ok {
		t.Error("nil database did not veto caching")
	}
	if _, ok := NewDetector(NewFailSafeDatabase()).PolicyCacheKey(); ok {
		t.Error("fail-safe database did not veto caching")
	}
}

// TestFingerprintStableAcrossLoads: saving a database and loading it
// twice yields one fingerprint, so detectors over the two loads share
// verdict keys.
func TestFingerprintStableAcrossLoads(t *testing.T) {
	db := &Database{}
	db.Add(VDC{CVE: "CVE-FP-1", DNAs: []DNA{{FuncName: "f"}}})
	path := filepath.Join(t.TempDir(), "db.json")
	if err := db.Save(path); err != nil {
		t.Fatalf("save: %v", err)
	}
	a, err := LoadDatabase(path)
	if err != nil {
		t.Fatalf("load a: %v", err)
	}
	b, err := LoadDatabase(path)
	if err != nil {
		t.Fatalf("load b: %v", err)
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Errorf("same contents, different fingerprints: %x vs %x", a.Fingerprint(), b.Fingerprint())
	}
	if a.Fingerprint() != db.Fingerprint() {
		t.Errorf("round-tripped fingerprint differs from the original: %x vs %x", a.Fingerprint(), db.Fingerprint())
	}
	b.Add(VDC{CVE: "CVE-FP-2"})
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("mutation did not change the fingerprint")
	}
}

// TestReplayDecisionBooksLikeDecide: the decision a live finish returns,
// replayed into a second detector, leaves the same match accounting —
// both go through book — and comes back as the same decision, reason
// aside, for the engine to state.
func TestReplayDecisionBooksLikeDecide(t *testing.T) {
	before, after := richSnap(4), richSnap(0)
	db := &Database{}
	db.Add(VDC{CVE: "CVE-X", DNAs: []DNA{{FuncName: "poc", Passes: map[string]Delta{
		"GVN": ExtractDelta(before, after),
	}}}})
	live := NewDetector(db)
	observe, finish := live.BeginCompile("victim")
	fakePassRun(observe, "GVN", before, after)
	dec := finish()
	if len(dec.Matches) == 0 || !reflect.DeepEqual(dec.Matches, live.Matches) {
		t.Fatalf("decision matches %+v, detector booked %+v", dec.Matches, live.Matches)
	}

	replayed := NewDetector(db)
	first := replayed.ReplayDecision("victim", dec)
	second := replayed.ReplayDecision("victim", dec) // a second hit books no second match
	if !reflect.DeepEqual(replayed.Matches, live.Matches) {
		t.Errorf("replayed matches %+v, live %+v", replayed.Matches, live.Matches)
	}
	if dec.Reason != "" || first.Reason != "replayed from shared compilation cache" {
		t.Errorf("reasons: live %q, replayed %q", dec.Reason, first.Reason)
	}
	for _, r := range []engine.CompileDecision{first, second} {
		r.Reason = ""
		if !reflect.DeepEqual(r, dec) {
			t.Errorf("decisions differ beyond the reason:\nlive     %+v\nreplayed %+v", dec, r)
		}
	}

	// A go verdict replays as a go decision with no reason.
	if got := replayed.ReplayDecision("benign", engine.CompileDecision{}); got.Verdict() != obs.VerdictGo || got.Reason != "" || len(replayed.Matches) != len(live.Matches) {
		t.Errorf("go replay returned %+v", got)
	}
}

// TestReplayDecisionBooksAsHandedIn: a decision in the cache was made by
// another detector. Its witnesses are text, so replay books it as it is:
// each witness chain keeps its text, a match that had no witness still
// has none, and the decision handed in — shared with the cache — is not
// written to.
func TestReplayDecisionBooksAsHandedIn(t *testing.T) {
	text := "boundscheck→add→replay-test-token"
	matches := []obs.Match{
		{CVE: "CVE-A", VDCFunc: "f", Pass: "GVN", Side: "removed", Chain: text},
		{CVE: "CVE-B", VDCFunc: "g", Pass: "GVN"},
	}
	dec := engine.CompileDecision{DisabledPasses: []string{"GVN"}, Matches: slices.Clone(matches)}
	d := NewDetector(&Database{})
	stated := d.ReplayDecision("victim", dec)

	for _, ms := range [][]obs.Match{d.Matches, stated.Matches} {
		if !reflect.DeepEqual(ms, matches) {
			t.Errorf("booked %+v, want %+v", ms, matches)
		}
	}
	if !reflect.DeepEqual(dec.Matches, matches) || dec.Reason != "" {
		t.Errorf("replay wrote to the decision it was handed: %+v", dec)
	}
}
