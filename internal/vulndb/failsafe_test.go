package vulndb

import (
	"os"
	"path/filepath"
	"testing"

	"github.com/jitbull/jitbull/internal/core"
	"github.com/jitbull/jitbull/internal/store"
)

// TestCorruptDatabaseFailsSafe is the fail-safe acceptance check: when the
// on-disk DNA database is corrupted (torn write or silent bit rot), the
// recovery path must yield a database that denies JIT to everything — so
// the seeded CVE exploit, which needs the JIT tier, does not fire even
// though its fingerprint was lost with the corruption.
func TestCorruptDatabaseFailsSafe(t *testing.T) {
	v := Primary()[0]

	// Sanity: the exploit works against an unprotected vulnerable engine.
	unprotected := Run(v.Demonstrator, v.Bug(), nil, testThreshold)
	if !unprotected.Exploited() {
		t.Fatalf("%s demonstrator lost its exploit (err=%v)", v.CVE, unprotected.Err)
	}

	// Fingerprint the vulnerability and persist the database for real.
	db, err := BuildDatabase([]Vuln{v}, testThreshold)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "dna.json")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	corruptions := map[string]func([]byte) []byte{
		"truncated": func(b []byte) []byte { return b[:len(b)/2] },
		"bitflip": func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)/2] ^= 0x01
			return c
		},
	}
	for name, mutate := range corruptions {
		t.Run(name, func(t *testing.T) {
			if err := os.WriteFile(path, mutate(pristine), 0o644); err != nil {
				t.Fatal(err)
			}
			loaded, loadErr := core.LoadDatabaseFailSafe(path)
			if loadErr == nil {
				t.Fatal("corrupted database loaded without an error")
			}
			if !store.IsCorrupt(loadErr) {
				t.Fatalf("corruption not classified: %v", loadErr)
			}
			if !loaded.FailSafe() {
				t.Fatal("recovery did not hand back a fail-safe database")
			}

			protected := Run(v.Demonstrator, v.Bug(), loaded, testThreshold)
			if protected.Exploited() {
				t.Fatalf("%s fired under the fail-safe database (crash=%v hijack=%v)",
					v.CVE, protected.Crashed, protected.Hijacked)
			}
			if protected.Stats.NrNoJIT == 0 {
				t.Error("fail-safe database never forced a NoJIT decision")
			}
			if protected.Stats.NrDisJIT != 0 {
				t.Errorf("fail-safe mode must deny JIT outright, not disable passes (NrDisJIT=%d)", protected.Stats.NrDisJIT)
			}
		})
	}
}

// TestGoldenDatabaseFile pins the database's byte format across the
// envelope's move into internal/store: core/testdata/golden_db_v2.json
// was written by Save at the commit before that move, for BuildDB(2, 100).
// It must load to the same policy identity and be written back byte for
// byte — a protected browser keeps the file it was handed.
func TestGoldenDatabaseFile(t *testing.T) {
	const golden = "../core/testdata/golden_db_v2.json"
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := core.LoadDatabase(golden)
	if err != nil {
		t.Fatalf("golden database does not load: %v", err)
	}
	built, _, err := BuildDB(2, 100)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Fingerprint() != built.Fingerprint() {
		t.Errorf("golden fingerprint %016x, BuildDB(2, 100) gives %016x", loaded.Fingerprint(), built.Fingerprint())
	}
	out := filepath.Join(t.TempDir(), "db.json")
	if err := loaded.Save(out); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(out); err != nil || string(got) != string(want) {
		t.Errorf("Save did not reproduce the golden file byte for byte (err %v, %d bytes, want %d)", err, len(got), len(want))
	}
}
