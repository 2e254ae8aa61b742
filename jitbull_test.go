package jitbull

// End-to-end tests of the public facade — the API the examples and a
// downstream user consume.

import (
	"reflect"
	"strings"
	"testing"
)

func TestPublicAPIRoundTrip(t *testing.T) {
	vuln, err := VulnerabilityByID("CVE-2019-17026")
	if err != nil {
		t.Fatal(err)
	}

	// Unprotected vulnerable engine: payload executes.
	eng, err := New(vuln.Demonstrator, Config{Bugs: vuln.Bug(), IonThreshold: 300})
	if err != nil {
		t.Fatal(err)
	}
	_, runErr := eng.Run()
	if !IsHijack(runErr) {
		t.Fatalf("exploit should hijack control flow, got %v", runErr)
	}

	// Fingerprint + protect: the renamed variant is neutralized.
	vdc, err := Fingerprint(vuln.CVE, vuln.Demonstrator, vuln.Bug(), 300)
	if err != nil {
		t.Fatal(err)
	}
	db := &Database{}
	db.Add(vdc)

	variant, err := RenameVariant(vuln.Demonstrator)
	if err != nil {
		t.Fatal(err)
	}
	prot, err := New(variant, Config{Bugs: vuln.Bug(), IonThreshold: 300})
	if err != nil {
		t.Fatal(err)
	}
	det := Protect(prot, db)
	if _, runErr := prot.Run(); IsHijack(runErr) || IsCrash(runErr) {
		t.Fatalf("JITBULL missed the variant: %v", runErr)
	}
	if len(det.Matches) == 0 {
		t.Fatal("no DNA matches recorded")
	}
	if prot.Stats().NrDisJIT == 0 && prot.Stats().NrNoJIT == 0 {
		t.Fatalf("no go/no-go action taken: %+v", prot.Stats())
	}
}

func TestDatabasePersistenceThroughFacade(t *testing.T) {
	vuln, err := VulnerabilityByID("CVE-2019-9810")
	if err != nil {
		t.Fatal(err)
	}
	vdc, err := Fingerprint(vuln.CVE, vuln.Demonstrator, vuln.Bug(), 300)
	if err != nil {
		t.Fatal(err)
	}
	db := &Database{}
	db.Add(vdc)
	path := t.TempDir() + "/db.json"
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadDatabase(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Size() != 1 || loaded.CVEs()[0] != vuln.CVE {
		t.Fatalf("loaded DB: %+v", loaded.CVEs())
	}
	// The loaded fingerprint must still protect.
	eng, err := New(vuln.Demonstrator, Config{Bugs: vuln.Bug(), IonThreshold: 300})
	if err != nil {
		t.Fatal(err)
	}
	Protect(eng, loaded)
	if _, runErr := eng.Run(); IsCrash(runErr) {
		t.Fatalf("persisted fingerprint failed to protect: %v", runErr)
	}
}

func TestFacadeInventory(t *testing.T) {
	if len(Vulnerabilities()) != 8 {
		t.Fatalf("vulnerabilities = %d, want 8", len(Vulnerabilities()))
	}
	if len(Benchmarks()) != 15 {
		t.Fatalf("benchmarks = %d, want 15 (13 suite + 2 micro)", len(Benchmarks()))
	}
	names := PassNames()
	if len(names) != 23 {
		t.Fatalf("passes = %d, want 23", len(names))
	}
	joined := strings.Join(names, ",")
	for _, want := range []string{"GVN", "LICM", "RangeAnalysis", "BoundsCheckElimination"} {
		if !strings.Contains(joined, want) {
			t.Errorf("pipeline missing %s", want)
		}
	}
	if _, err := VulnerabilityByID("CVE-0000-1"); err == nil {
		t.Error("unknown CVE should error")
	}
	// A store attaches under a cache with nothing from the detector.
	st, err := OpenStore(t.TempDir(), StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	AttachStore(NewCodeCache(nil), st)
	// The alias exports the store's whole method set, so that set is
	// facade surface: a store is its directory (copy it to move it), with
	// no second on-disk form.
	var methods []string
	for typ, i := reflect.TypeOf(st), 0; i < typ.NumMethod(); i++ {
		methods = append(methods, typ.Method(i).Name)
	}
	if got, want := strings.Join(methods, ","), "Dir,Get,Len,Put,QuarantineDir,Verify"; got != want {
		t.Errorf("ArtifactStore methods = %s, want %s", got, want)
	}
}

func TestMinifyVariantFacade(t *testing.T) {
	out, err := MinifyVariant("var x = 1;\nvar y = x + 2;\n")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "\n\n") || strings.Contains(out, "x") {
		t.Fatalf("not minified/renamed: %q", out)
	}
}

func TestCrashClassification(t *testing.T) {
	vuln, err := VulnerabilityByID("CVE-2019-9813")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(vuln.Demonstrator, Config{Bugs: vuln.Bug(), IonThreshold: 300})
	if err != nil {
		t.Fatal(err)
	}
	_, runErr := eng.Run()
	if !IsCrash(runErr) {
		t.Fatalf("want simulated segfault, got %v", runErr)
	}
	if IsHijack(runErr) {
		t.Fatal("crash misclassified as hijack")
	}
}
