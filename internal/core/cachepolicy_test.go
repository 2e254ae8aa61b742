package core

// Tests for the verdict-cache identity — the policy cache key must follow
// the database's *contents*, not its address: a recycled allocation or a
// post-caching mutation must never let an old verdict be replayed against
// a different database — and for the replay itself.

import (
	"path/filepath"
	"reflect"
	"testing"

	"github.com/jitbull/jitbull/internal/engine"
	"github.com/jitbull/jitbull/internal/obs"
)

func TestDatabaseGenerationIdentity(t *testing.T) {
	a, b := &Database{}, &Database{}
	ga, gb := a.Generation(), b.Generation()
	if ga == 0 || gb == 0 {
		t.Fatal("generation 0 is reserved for unassigned")
	}
	if ga == gb {
		t.Fatalf("distinct databases share generation %d", ga)
	}
	if a.Generation() != ga {
		t.Error("generation not stable across calls")
	}
	a.Add(VDC{CVE: "CVE-TEST-1"})
	ga2 := a.Generation()
	if ga2 == ga {
		t.Error("Add did not move the database to a fresh generation")
	}
	if ga2 == gb || ga2 == b.Generation() {
		t.Error("mutated database collided with another database's generation")
	}
	a.Remove("CVE-TEST-1")
	if a.Generation() == ga2 || a.Generation() == ga {
		// Same contents as at ga, but verdicts cached in between must not
		// resurrect: any mutation is a fresh generation.
		t.Error("Remove did not move the database to a fresh generation")
	}
}

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
	// same contents loaded by another process, say — shares the key, which
	// is what lets the persistent store replay verdicts across a restart.
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
// twice (two "processes") yields one fingerprint — the property that
// keeps persistent verdict keys valid across a restart — while different
// contents yield different fingerprints.
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
// replayed into a second detector, leaves the same match accounting and the
// same audit event — reason aside — because both go through book.
func TestReplayDecisionBooksLikeDecide(t *testing.T) {
	before, after := richSnap(4), richSnap(0)
	db := &Database{}
	db.Add(VDC{CVE: "CVE-X", DNAs: []DNA{{FuncName: "poc", Passes: map[string]Delta{
		"GVN": ExtractDelta(before, after),
	}}}})
	live := NewDetector(db)
	live.Audit = obs.NewAuditLog(nil)
	observe, finish := live.BeginCompile("victim")
	fakePassRun(observe, "GVN", before, after)
	dec := finish()
	if len(dec.Matches) == 0 || !reflect.DeepEqual(dec.Matches, live.Matches) {
		t.Fatalf("decision matches %+v, detector booked %+v", dec.Matches, live.Matches)
	}

	replayed := NewDetector(db)
	replayed.Audit = obs.NewAuditLog(nil)
	replayed.ReplayDecision("victim", dec)
	replayed.ReplayDecision("victim", dec) // a second hit books no second match
	if !reflect.DeepEqual(replayed.Matches, live.Matches) {
		t.Errorf("replayed matches %+v, live %+v", replayed.Matches, live.Matches)
	}
	le, re := live.Audit.Events(), replayed.Audit.Events()
	if len(le) != 1 || len(re) != 2 {
		t.Fatalf("audit events: live %d, replayed %d, want 1 and 2", len(le), len(re))
	}
	if le[0].Reason != "" || re[0].Reason != "replayed from shared compilation cache" {
		t.Errorf("reasons: live %q, replayed %q", le[0].Reason, re[0].Reason)
	}
	for _, ev := range []*obs.AuditEvent{&le[0], &re[0], &re[1]} {
		ev.Seq, ev.TimeUnixNs, ev.Reason = 0, 0, ""
	}
	if !reflect.DeepEqual(le[0], re[0]) || !reflect.DeepEqual(le[0], re[1]) {
		t.Errorf("audit events differ beyond the reason:\nlive     %+v\nreplayed %+v", le[0], re[0])
	}

	// A go verdict replays as a go event with no reason.
	replayed.ReplayDecision("benign", engine.CompileDecision{})
	if ev := replayed.Audit.Events()[2]; ev.Verdict != obs.VerdictGo || ev.Reason != "" || len(replayed.Matches) != len(live.Matches) {
		t.Errorf("go replay booked %+v", ev)
	}
}

// TestReplayDecisionReinternsChains: a decision read from the store was
// made in another process, whose chain IDs mean nothing here. Replay
// interns each witness chain's text again — the chain survives, the ID is
// this process's — and a match that had no witness (NoChain) still has
// none. The decision handed in is shared with the cache and is not
// written to.
func TestReplayDecisionReinternsChains(t *testing.T) {
	const stale = uint32(1 << 30) // no such chain in this process
	text := "boundscheck→add→replay-test-token"
	dec := engine.CompileDecision{
		DisabledPasses: []string{"GVN"},
		Matches: []obs.Match{
			{CVE: "CVE-A", VDCFunc: "f", Pass: "GVN", ChainID: stale, Side: "removed", Chain: text},
			{CVE: "CVE-B", VDCFunc: "g", Pass: "GVN", ChainID: NoChain},
		},
	}
	d := NewDetector(&Database{})
	d.Audit = obs.NewAuditLog(nil)
	d.ReplayDecision("victim", dec)

	want := InternChain(text)
	for _, ms := range [][]obs.Match{d.Matches, d.Audit.Events()[0].Matches} {
		if len(ms) != 2 {
			t.Fatalf("booked %d matches, want 2", len(ms))
		}
		if ms[0].ChainID != want || ChainString(ms[0].ChainID) != text || ms[0].Chain != text {
			t.Errorf("witness chain: id %d chain %q, want id %d rendering %q", ms[0].ChainID, ms[0].Chain, want, text)
		}
		if ms[1].ChainID != NoChain || ms[1].Chain != "" || ms[1].Side != "" {
			t.Errorf("NoChain match came back as %+v", ms[1])
		}
	}
	if dec.Matches[0].ChainID != stale {
		t.Error("replay wrote to the decision it was handed")
	}
}
