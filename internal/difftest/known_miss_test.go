package difftest

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/jitbull/jitbull/internal/core"
	"github.com/jitbull/jitbull/internal/engine"
	"github.com/jitbull/jitbull/internal/obs"
	"github.com/jitbull/jitbull/internal/vulndb"
)

// TestKnownPolicyMissApplyTypesUnboxParam pins a JITBULL false negative
// rather than a behavior anyone wants: with all eight bugs active, the
// compiled lin of testdata/known_miss_applytypes_unbox.js diverges from
// the interpreter (CVE-2019-9791 drops the unbox guard of its array
// parameter, the removed unbox→parameter chain of ApplyTypes), and DB #8
// still judges lin `go`, so the policy lets the divergence through. Both
// halves are asserted. A fix to the policy flips the second half: update
// this test to the verdict the fix gives, deliberately.
func TestKnownPolicyMissApplyTypesUnboxParam(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "known_miss_applytypes_unbox.js"))
	if err != nil {
		t.Fatal(err)
	}
	db, bugs, err := vulndb.BuildDB(8, 100)
	if err != nil {
		t.Fatal(err)
	}
	const wantErr = "cannot index non-array value 0"

	ref := Observe(string(src), Config{Name: "interp", Engine: engine.Config{DisableJIT: true}})
	if ref.ErrKind != "" || ref.Output != "600\n" {
		t.Fatalf("interpreter: err %s %q, output %q; want output \"600\\n\"", ref.ErrKind, ref.ErrMsg, ref.Output)
	}

	jit := engine.Config{IonThreshold: 30, Bugs: bugs}
	open := Observe(string(src), Config{Name: "jit", Engine: jit})
	if !strings.Contains(open.ErrMsg, wantErr) {
		t.Errorf("no policy: err %s %q, output %q; want the run to end in %q", open.ErrKind, open.ErrMsg, open.Output, wantErr)
	}

	audit := obs.NewAuditLog(nil)
	jit.Tracer = obs.NewTracer(audit)
	prot := Observe(string(src), Config{Name: "jitbull", Engine: jit,
		Policy: func() engine.Policy { return core.NewDetector(db) }})
	var verdicts []string
	for _, ev := range decisions(audit.Events()) {
		if ev.Func == "lin" {
			verdicts = append(verdicts, string(ev.Verdict))
		}
	}
	if len(verdicts) != 1 || verdicts[0] != string(obs.VerdictGo) {
		t.Errorf("DB #8: lin verdicts %v, want [go] (the known miss)", verdicts)
	}
	if !strings.Contains(prot.ErrMsg, wantErr) {
		t.Errorf("DB #8: err %s %q, output %q; want the miss to end in %q", prot.ErrKind, prot.ErrMsg, prot.Output, wantErr)
	}
}
