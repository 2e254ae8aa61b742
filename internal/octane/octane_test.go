package octane

import (
	"math"
	"testing"

	"github.com/jitbull/jitbull/internal/engine"
	"github.com/jitbull/jitbull/internal/passes"
	"github.com/jitbull/jitbull/internal/value"
)

func runWith(t *testing.T, b Benchmark, cfg engine.Config) (*engine.Engine, value.Value) {
	t.Helper()
	e, err := engine.New(b.Source(1), cfg)
	if err != nil {
		t.Fatalf("%s: setup: %v", b.Name, err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatalf("%s: run: %v", b.Name, err)
	}
	return e, e.Global("result")
}

func TestBenchmarksRunAndAgreeAcrossTiers(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			_, interpRes := runWith(t, b, engine.Config{DisableJIT: true})
			eJIT, jitRes := runWith(t, b, engine.Config{IonThreshold: 40})
			if !sameNum(interpRes, jitRes) {
				t.Fatalf("checksum mismatch: interp=%v jit=%v", interpRes, jitRes)
			}
			if eJIT.Stats().NrJIT < b.ExpectJITs {
				t.Errorf("NrJIT = %d, want >= %d (stats %+v)", eJIT.Stats().NrJIT, b.ExpectJITs, eJIT.Stats())
			}
			if !interpRes.IsNumber() {
				t.Errorf("benchmark has no numeric checksum: %v", interpRes)
			}
		})
	}
}

func TestBenchmarksSafeOnFullyVulnerableEngine(t *testing.T) {
	// The corpus must neither crash nor misbehave when every injected bug
	// is active: the benign code avoids all trigger idioms, matching how
	// real-world pages keep working on a vulnerable browser.
	bugs := passes.BugSet{}
	for _, cve := range passes.AllCVEs {
		bugs[cve] = true
	}
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			_, interpRes := runWith(t, b, engine.Config{DisableJIT: true})
			eVuln, vulnRes := runWith(t, b, engine.Config{IonThreshold: 40, Bugs: bugs})
			if eVuln.Arena().Crashed() != nil || eVuln.Hijacked() != nil {
				t.Fatalf("benign benchmark crashed the vulnerable engine")
			}
			if !sameNum(interpRes, vulnRes) {
				t.Fatalf("checksum drift on vulnerable engine: %v vs %v", interpRes, vulnRes)
			}
		})
	}
}

func TestByName(t *testing.T) {
	if _, err := ByName("Splay"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByName("NoSuch"); err == nil {
		t.Fatal("want error")
	}
	if len(Suite()) != 13 || len(Microbenches()) != 2 {
		t.Fatalf("corpus sizes: %d suite, %d micro", len(Suite()), len(Microbenches()))
	}
}

func sameNum(a, b value.Value) bool {
	if !a.IsNumber() || !b.IsNumber() {
		return value.StrictEquals(a, b)
	}
	x, y := a.AsNumber(), b.AsNumber()
	return x == y || (math.IsNaN(x) && math.IsNaN(y))
}
