package core

// Witness-chain attribution tests: a Match must name the chain (and delta
// side) that connected the candidate DNA to the matched VDC delta, the
// decision must carry the verdict with full attribution to the audit log,
// and the detector's histograms must observe every query.

import (
	"bytes"
	"slices"
	"sync"
	"testing"

	"github.com/jitbull/jitbull/internal/obs"
)

// smallestShared returns the smallest chain common to two sorted chain
// sets — the witness the index is specified to record.
func smallestShared(a, b []string) (string, bool) {
	for _, c := range a {
		if _, ok := slices.BinarySearch(b, c); ok {
			return c, true
		}
	}
	return "", false
}

func TestMatchAttributionWitnessChain(t *testing.T) {
	vdcRem := []string{"a→b→c", "b→c", "c→d→e"}
	vdcAdd := []string{"e→f", "phi→add", "unbox→a"}
	// Listed in reverse string order: the witness must still be the
	// smallest by content.
	vdcSink := []string{"witness-z→y", "witness-m→y", "witness-a→y"}
	db := &Database{}
	db.Add(VDC{CVE: "CVE-W", DNAs: []DNA{{FuncName: "poc", Passes: map[string]Delta{
		"GVN":  mkDelta(vdcRem, nil),
		"LICM": mkDelta(nil, vdcAdd),
		"Sink": mkDelta(vdcSink, nil),
	}}}})

	cases := []struct {
		name     string
		pass     string
		cand     Delta
		wantSide string
	}{
		{"removed side", "GVN", mkDelta([]string{"a→b→c", "b→c", "x→y→z"}, nil), "removed"},
		{"added side", "LICM", mkDelta(nil, []string{"e→f", "phi→add", "x→y→z"}), "added"},
		{"content order", "Sink", mkDelta(vdcSink, nil), "removed"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			det := NewDetector(db)
			det.Thr, det.Ratio = 2, 0.5
			dec := det.Decide(&DNA{FuncName: "victim", Passes: map[string]Delta{tc.pass: tc.cand}})
			if len(dec.DisabledPasses) != 1 || len(det.Matches) != 1 {
				t.Fatalf("expected one match, got decision %+v matches %+v", dec, det.Matches)
			}
			m := det.Matches[0]
			if m.Side != tc.wantSide {
				t.Fatalf("Side = %q, want %q", m.Side, tc.wantSide)
			}
			vdcSide, candSide := db.VDCs[0].DNAs[0].Passes[tc.pass].Removed, tc.cand.Removed
			if tc.wantSide == "added" {
				vdcSide, candSide = db.VDCs[0].DNAs[0].Passes[tc.pass].Added, tc.cand.Added
			}
			want, ok := smallestShared(vdcSide, candSide)
			if !ok {
				t.Fatal("fixture broken: no shared chain")
			}
			if m.Chain != want {
				t.Fatalf("Chain = %q, want %q", m.Chain, want)
			}
			if tc.pass == "Sink" && m.Chain != "witness-a→y" {
				t.Fatalf("Chain = %q, want the smallest by content %q", m.Chain, "witness-a→y")
			}
		})
	}
}

func TestMatchAttributionDegenerateThreshold(t *testing.T) {
	db := &Database{}
	db.Add(VDC{CVE: "CVE-0", DNAs: []DNA{{FuncName: "poc", Passes: map[string]Delta{
		"GVN": mkDelta([]string{"a→b→c"}, nil),
	}}}})
	det := NewDetector(db)
	det.Thr, det.Ratio = 0, 0
	// No shared chain at all — the degenerate thresholds still match, and
	// the attribution must say so explicitly rather than invent a witness.
	det.Decide(&DNA{FuncName: "victim", Passes: map[string]Delta{
		"GVN": mkDelta([]string{"x→y→z"}, nil),
	}})
	if len(det.Matches) != 1 {
		t.Fatalf("expected one degenerate match, got %+v", det.Matches)
	}
	m := det.Matches[0]
	if m.Side != "" || m.Chain != "" {
		t.Fatalf("degenerate match must carry no witness, got %+v", m)
	}
}

func TestDetectorAuditAndMetrics(t *testing.T) {
	before := richSnap(4)
	after := richSnap(0)
	db := &Database{}
	db.Add(VDC{CVE: "CVE-A", DNAs: []DNA{{FuncName: "poc", Passes: map[string]Delta{
		"GVN": ExtractDelta(before, after),
	}}}})

	var buf bytes.Buffer
	audit := obs.NewAuditLog(&buf)
	det := NewDetector(db)
	det.Metrics = obs.NewRegistry()

	// One hit, one miss, each stated as the engine states a decision.
	tr := obs.NewTracer(audit)
	o, finish := det.BeginCompile("victim")
	fakePassRun(o, "GVN", before, after)
	dec := finish()
	if len(dec.DisabledPasses) != 1 {
		t.Fatalf("expected a disable-pass decision, got %+v", dec)
	}
	tr.Begin(obs.CatPolicy, obs.FactDecide, "victim").EndDecision(dec)
	o, finish = det.BeginCompile("clean")
	fakePassRun(o, "GVN", before, before) // empty delta: no DNA recorded
	tr.Begin(obs.CatPolicy, obs.FactDecide, "clean").EndDecision(finish())

	evs := audit.Events()
	if len(evs) != 2 {
		t.Fatalf("expected 2 audit events, got %d: %+v", len(evs), evs)
	}
	hit, miss := evs[0], evs[1]
	if hit.Func != "victim" || hit.Verdict != obs.VerdictDisablePass {
		t.Fatalf("hit event wrong: %+v", hit)
	}
	if len(hit.Matches) != 1 || hit.Matches[0].CVE != "CVE-A" || hit.Matches[0].Chain == "" {
		t.Fatalf("hit event lacks attribution: %+v", hit.Matches)
	}
	if len(hit.DisabledPasses) != 1 || hit.DisabledPasses[0] != "GVN" {
		t.Fatalf("hit event lacks disabled passes: %+v", hit)
	}
	if miss.Func != "clean" || miss.Verdict != obs.VerdictGo || len(miss.Matches) != 0 {
		t.Fatalf("miss event wrong: %+v", miss)
	}

	// The JSONL stream must round-trip to the same events.
	read, err := obs.ReadAudit(&buf)
	if err != nil {
		t.Fatalf("ReadAudit: %v", err)
	}
	if len(read) != 2 || read[0].Verdict != hit.Verdict || read[1].Verdict != miss.Verdict {
		t.Fatalf("JSONL round-trip diverged: %+v", read)
	}

	snap := det.Metrics.Snapshot()
	for _, name := range []string{"dna.delta_chains", "dna.index_probes"} {
		h, ok := snap[name].(obs.HistSnapshot)
		if !ok || h.Count < 1 {
			t.Fatalf("%s not observed: %+v", name, snap[name])
		}
	}
}

func TestFailSafeAudit(t *testing.T) {
	det := NewDetector(NewFailSafeDatabase())
	_, finish := det.BeginCompile("victim")
	dec := finish()
	if !dec.NoJIT {
		t.Fatalf("fail-safe database must veto, got %+v", dec)
	}
	audit := obs.NewAuditLog(nil)
	obs.NewTracer(audit).Begin(obs.CatPolicy, obs.FactDecide, "victim").EndDecision(dec)
	evs := audit.Events()
	if len(evs) != 1 || evs[0].Verdict != obs.VerdictNoJIT || evs[0].Reason == "" {
		t.Fatalf("fail-safe verdict not audited with its reason: %+v", evs)
	}
}

// TestIndexProbesNotCarriedAcrossPasses: a pass the index has no bucket for
// scores no entries, whatever the previous query scored. The detector
// observes the probe count after every pass in map-iteration order, so a
// stale count would make the dna.index_probes total differ between
// identical runs.
func TestIndexProbesNotCarriedAcrossPasses(t *testing.T) {
	db := &Database{}
	db.Add(VDC{CVE: "CVE-0", DNAs: []DNA{{FuncName: "poc", Passes: map[string]Delta{
		"GVN": mkDelta([]string{"a→b→c"}, nil),
	}}}})
	ix := db.Index(1)
	var sc matchScratch
	none := func(string, string, uint32, matchSide) {}
	ix.query("GVN", ix.ids(mkDelta([]string{"a→b→c"}, nil)), 0.5, 1, &sc, none)
	if sc.probes == 0 {
		t.Fatal("fixture broken: the GVN query scored no entry")
	}
	ix.query("LICM", ix.ids(mkDelta([]string{"a→b→c"}, nil)), 0.5, 1, &sc, none)
	if sc.probes != 0 {
		t.Fatalf("query on a pass with no bucket reported %d probes, want 0", sc.probes)
	}
}

// TestIndexReadsShareOneBuild: the engines and compile workers sharing a
// database read its compiled index without a lock. Concurrent readers of
// several thresholds each get the one index built for theirs, and a
// mutation is followed by a fresh index that watches what the database
// now fingerprints. Run under -race.
func TestIndexReadsShareOneBuild(t *testing.T) {
	db := &Database{}
	db.Add(VDC{CVE: "CVE-0", DNAs: []DNA{{FuncName: "poc", Passes: map[string]Delta{
		"GVN": mkDelta([]string{"a→b→c"}, nil),
	}}}})
	const readers, thrs = 8, 3
	got := make([][thrs]*MatchIndex, readers)
	var wg sync.WaitGroup
	for r := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				for thr := range thrs {
					ix := db.Index(thr)
					if got[r][thr] != nil && got[r][thr] != ix {
						t.Errorf("reader %d: Index(%d) returned a second index", r, thr)
					}
					got[r][thr] = ix
				}
			}
		}()
	}
	wg.Wait()
	for r := range got {
		if got[r] != got[0] {
			t.Fatalf("readers disagree on the indexes: %v vs %v", got[r], got[0])
		}
	}
	before := db.Index(1)
	db.Add(VDC{CVE: "CVE-1", DNAs: []DNA{{FuncName: "poc", Passes: map[string]Delta{
		"LICM": mkDelta([]string{"a→b→c"}, nil),
	}}}})
	after := db.Index(1)
	if after == before || !after.watches("LICM") || !after.watches("GVN") || before.watches("LICM") {
		t.Fatal("an Add did not replace the index with one that watches the new pass")
	}
}
