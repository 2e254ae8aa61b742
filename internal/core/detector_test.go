package core

import (
	"reflect"
	"testing"

	"github.com/jitbull/jitbull/internal/mir"
)

// fakePassRun feeds synthetic snapshots through a policy's observer.
func fakePassRun(obs func(int, string, *mir.Snapshot, *mir.Snapshot), passName string, before, after *mir.Snapshot) {
	obs(0, passName, before, after)
}

func richSnap(extraChecks int) *mir.Snapshot {
	s := snap(
		"1 parameter#0",
		"2 unbox 1",
		"3 elements 2",
		"4 initializedlength 3",
	)
	id := 10
	for i := 0; i < extraChecks; i++ {
		s.Instrs = append(s.Instrs,
			mir.SnapInstr{ID: id, Opcode: "constant(" + string(rune('0'+i)) + ")"},
			mir.SnapInstr{ID: id + 1, Opcode: "boundscheck", Operands: []int{id, 4}},
		)
		id += 2
	}
	return s
}

func TestDetectorScenario2DisablesPasses(t *testing.T) {
	before := richSnap(4)
	after := richSnap(0)
	vdcDelta := ExtractDelta(before, after)
	if len(vdcDelta.Removed) < 3 {
		t.Fatalf("fixture too poor: %v", vdcDelta.Removed)
	}
	db := &Database{}
	db.Add(VDC{CVE: "CVE-X", DNAs: []DNA{{FuncName: "poc", Passes: map[string]Delta{
		"GVN": vdcDelta,
	}}}})
	det := NewDetector(db)
	obs, finish := det.BeginCompile("victim")
	fakePassRun(obs, "GVN", before, after)
	decision := finish()
	if decision.NoJIT {
		t.Fatal("GVN is disableable; expected scenario 2")
	}
	if len(decision.DisabledPasses) != 1 || decision.DisabledPasses[0] != "GVN" {
		t.Fatalf("decision = %+v", decision)
	}
	if len(det.Matches) == 0 || det.Matches[0].CVE != "CVE-X" {
		t.Fatalf("matches = %+v", det.Matches)
	}
}

func TestDetectorScenario3MandatoryPass(t *testing.T) {
	before := richSnap(4)
	after := richSnap(0)
	vdcDelta := ExtractDelta(before, after)
	db := &Database{}
	db.Add(VDC{CVE: "CVE-Y", DNAs: []DNA{{FuncName: "poc", Passes: map[string]Delta{
		"ApplyTypes": vdcDelta, // mandatory pass
	}}}})
	det := NewDetector(db)
	obs, finish := det.BeginCompile("victim")
	fakePassRun(obs, "ApplyTypes", before, after)
	decision := finish()
	if !decision.NoJIT {
		t.Fatalf("mandatory-pass match must force NoJIT (scenario 3): %+v", decision)
	}
}

func TestDetectorScenario1NoMatch(t *testing.T) {
	db := &Database{}
	db.Add(VDC{CVE: "CVE-Z", DNAs: []DNA{{FuncName: "poc", Passes: map[string]Delta{
		"GVN": mkDelta([]string{"x→y", "p→q", "r→s"}, nil),
	}}}})
	det := NewDetector(db)
	obs, finish := det.BeginCompile("victim")
	// A pass with a completely different delta.
	before := snap("1 parameter#0", "2 neg 1", "3 return 2")
	after := snap("1 parameter#0", "3 return 1")
	fakePassRun(obs, "GVN", before, after)
	decision := finish()
	if decision.NoJIT || len(decision.DisabledPasses) != 0 {
		t.Fatalf("scenario 1 expected: %+v", decision)
	}
}

func TestDetectorIgnoresSkippedPasses(t *testing.T) {
	db := &Database{}
	db.Add(VDC{CVE: "CVE-W", DNAs: []DNA{{FuncName: "poc", Passes: map[string]Delta{
		"GVN": mkDelta([]string{"a", "b", "c"}, nil),
	}}}})
	det := NewDetector(db)
	obs, finish := det.BeginCompile("victim")
	obs(0, "GVN", nil, nil) // skipped pass: nil snapshots
	decision := finish()
	if len(decision.DisabledPasses) != 0 {
		t.Fatalf("skipped pass produced a match: %+v", decision)
	}
}

func TestDetectorInactiveWhenEmpty(t *testing.T) {
	det := NewDetector(&Database{})
	if det.Active() {
		t.Fatal("empty DB must be inactive (the zero-overhead contract)")
	}
	det2 := NewDetector(nil)
	if det2.Active() {
		t.Fatal("nil DB must be inactive")
	}
}

func TestRecorderCollectsDNA(t *testing.T) {
	rec := &Recorder{}
	if !rec.Active() {
		t.Fatal("recorder must always be active")
	}
	obs, finish := rec.BeginCompile("fn1")
	before := richSnap(3)
	after := richSnap(0)
	fakePassRun(obs, "GVN", before, after)
	finish()
	if len(rec.DNAs) != 1 || rec.DNAs[0].FuncName != "fn1" {
		t.Fatalf("DNAs = %+v", rec.DNAs)
	}
	if _, ok := rec.DNAs[0].Passes["GVN"]; !ok {
		t.Fatal("GVN delta missing")
	}
}

func TestThresholdAndRatioKnobs(t *testing.T) {
	before := richSnap(1) // only 2 distinct removed chains (const + length path)
	after := richSnap(0)
	delta := ExtractDelta(before, after)
	db := &Database{}
	db.Add(VDC{CVE: "CVE-K", DNAs: []DNA{{FuncName: "poc", Passes: map[string]Delta{"GVN": delta}}}})

	det := NewDetector(db) // Thr = 3: two chains are not enough
	obs, finish := det.BeginCompile("victim")
	fakePassRun(obs, "GVN", before, after)
	if d := finish(); len(d.DisabledPasses) != 0 {
		t.Fatalf("Thr=3 should reject a 2-chain match: %+v", d)
	}

	low := NewDetector(db)
	low.Thr = 1
	obs, finish = low.BeginCompile("victim")
	fakePassRun(obs, "GVN", before, after)
	if d := finish(); len(d.DisabledPasses) != 1 {
		t.Fatalf("Thr=1 should accept: %+v", d)
	}
}

func TestDeltaExtractorMemoization(t *testing.T) {
	de := newDeltaExtractor(nil)
	defer de.release()
	s1 := richSnap(3)
	s2 := richSnap(1)
	s3 := richSnap(0)
	d1 := de.render(de.delta(s1, s2))
	d2 := de.render(de.delta(s2, s3)) // before == memoized after
	if d1.Empty() || d2.Empty() {
		t.Fatal("expected non-empty deltas")
	}
	// Equality short-circuit must report an empty delta.
	if d := de.render(de.delta(s3, s3)); !d.Empty() {
		t.Fatalf("identical snapshots gave %+v", d)
	}
	// Cross-check against the non-memoized extractor.
	if want := ExtractDelta(s2, s3); !reflect.DeepEqual(want, d2) {
		t.Fatalf("memoized delta differs: %v vs %v", want, d2)
	}
}
