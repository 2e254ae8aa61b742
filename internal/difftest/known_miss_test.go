package difftest

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/jitbull/jitbull/internal/core"
	"github.com/jitbull/jitbull/internal/engine"
	"github.com/jitbull/jitbull/internal/obs"
	"github.com/jitbull/jitbull/internal/octane"
	"github.com/jitbull/jitbull/internal/vulndb"
)

// TestKnownPolicyMissApplyTypesUnboxParam pins a JITBULL false negative
// rather than a behavior anyone wants. With all eight bugs active,
// CVE-2019-9791 drops the unbox guard of an array parameter (the removed
// unbox→parameter chain of ApplyTypes), and DB #8 still judges the function
// `go`, so the policy lets the divergence through: lin of
// testdata/known_miss_applytypes_unbox.js, and linSolve of NavierStokes.
// Whether NavierStokes diverges depends on the tier-up order: an Ion
// threshold of 1, or OSR at 100 or 300, lets it through; 100 or 300 without
// OSR (the benchmark's octane_jitbull8 cell) runs clean. Both halves are
// asserted for every schedule: what the run does without a policy and what
// it does under DB #8, with the function's verdict. A fix to the policy
// flips the second half: update the case to what the fix gives,
// deliberately.
func TestKnownPolicyMissApplyTypesUnboxParam(t *testing.T) {
	lin, err := os.ReadFile(filepath.Join("testdata", "known_miss_applytypes_unbox.js"))
	if err != nil {
		t.Fatal(err)
	}
	navier, err := octane.ByName("NavierStokes")
	if err != nil {
		t.Fatal(err)
	}
	db, bugs, err := vulndb.BuildDB(8, 100)
	if err != nil {
		t.Fatal(err)
	}
	const zero, three = "cannot index non-array value 0", "cannot index non-array value 3"

	for _, tc := range []struct {
		name   string
		src    string
		result string        // the interpreter's `result`
		fn     string        // the function DB #8 judges go
		cfg    engine.Config // Bugs is set for every case
		err    string        // how the JIT run ends, with or without the policy ("" = clean)
	}{
		{"lin/ion30", string(lin), "600", "lin", engine.Config{IonThreshold: 30}, zero},
		{"NavierStokes/ion1", navier.Source(1), "4955", "linSolve", engine.Config{IonThreshold: 1}, three},
		{"NavierStokes/ion1-osr", navier.Source(1), "4955", "linSolve", engine.Config{IonThreshold: 1, OSR: true}, three},
		{"NavierStokes/ion100-osr-spec", navier.Source(1), "4955", "linSolve", engine.Config{IonThreshold: 100, OSR: true, Speculate: true}, zero},
		{"NavierStokes/ion300-osr-spec", navier.Source(1), "4955", "linSolve", engine.Config{IonThreshold: 300, OSR: true, Speculate: true}, zero},
		{"NavierStokes/ion100", navier.Source(1), "4955", "linSolve", engine.Config{IonThreshold: 100}, ""},
		{"NavierStokes/ion300", navier.Source(1), "4955", "linSolve", engine.Config{IonThreshold: 300}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ref := Observe(tc.src, Config{Name: "interp", Engine: engine.Config{DisableJIT: true}})
			if ref.ErrKind != "" || ref.ResultG != tc.result {
				t.Fatalf("interpreter: err %s %q, result %q; want result %q", ref.ErrKind, ref.ErrMsg, ref.ResultG, tc.result)
			}
			ends := func(o Observation) bool {
				if tc.err == "" {
					return o.ErrKind == "" && o.ResultG == ref.ResultG && o.Output == ref.Output
				}
				return strings.Contains(o.ErrMsg, tc.err)
			}

			jit := tc.cfg
			jit.Bugs = bugs
			open := Observe(tc.src, Config{Name: "jit", Engine: jit})
			if !ends(open) {
				t.Errorf("no policy: err %s %q, result %q; want it to end in %q", open.ErrKind, open.ErrMsg, open.ResultG, tc.err)
			}

			audit := obs.NewAuditLog(nil)
			jit.Tracer = obs.NewTracer(audit)
			prot := Observe(tc.src, Config{Name: "jitbull", Engine: jit,
				Policy: func() engine.Policy { return core.NewDetector(db) }})
			var verdicts []string
			for _, ev := range decisions(audit.Events()) {
				if ev.Func == tc.fn {
					verdicts = append(verdicts, string(ev.Verdict))
				}
			}
			if len(verdicts) != 1 || verdicts[0] != string(obs.VerdictGo) {
				t.Errorf("DB #8: %s verdicts %v, want [go] (the known miss)", tc.fn, verdicts)
			}
			if !ends(prot) {
				t.Errorf("DB #8: err %s %q, result %q; want the miss to end in %q", prot.ErrKind, prot.ErrMsg, prot.ResultG, tc.err)
			}
		})
	}
}
