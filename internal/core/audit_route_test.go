package core_test

import (
	"testing"

	"github.com/jitbull/jitbull/internal/core"
	"github.com/jitbull/jitbull/internal/engine"
	"github.com/jitbull/jitbull/internal/obs"
	"github.com/jitbull/jitbull/internal/vulndb"
)

// TestVerdictReachesAuditThroughTheStream: a go/no-go verdict is a fact.
// An audit log that is nothing but the tracer's sink logs a demonstrator's
// disable-pass verdict with every match and its witness chain, because the
// decide fact carries the decision.
func TestVerdictReachesAuditThroughTheStream(t *testing.T) {
	v := vulndb.All()[0]
	vdc, err := vulndb.ExtractVDC(v, 0)
	if err != nil {
		t.Fatal(err)
	}
	db := &core.Database{}
	db.Add(vdc)
	audit := obs.NewAuditLog(nil)
	e, err := engine.New(v.Demonstrator, engine.Config{Bugs: v.Bug(), Tracer: obs.NewTracer(audit)})
	if err != nil {
		t.Fatal(err)
	}
	e.SetPolicy(core.NewDetector(db))
	if _, err := e.Run(); err != nil {
		t.Fatalf("%s under its own fingerprint: %v", v.CVE, err)
	}

	var lines []obs.AuditEvent
	for _, ev := range audit.Events() {
		if ev.Verdict == obs.VerdictDisablePass {
			lines = append(lines, ev)
		}
	}
	if len(lines) == 0 {
		t.Fatalf("no disable-pass line in the audit log: %+v", audit.Events())
	}
	chains := 0
	for _, ev := range lines {
		if ev.Func == "" || len(ev.DisabledPasses) == 0 || len(ev.Matches) == 0 {
			t.Errorf("disable-pass line without its evidence: %+v", ev)
		}
		for _, m := range ev.Matches {
			if m.CVE != v.CVE || m.Pass == "" || m.VDCFunc == "" {
				t.Errorf("match %+v does not name %s, a VDC function and a pass", m, v.CVE)
			}
			if m.Chain != "" {
				chains++
			}
		}
	}
	if chains == 0 {
		t.Errorf("no match in %+v carries its witness chain", lines)
	}
}
