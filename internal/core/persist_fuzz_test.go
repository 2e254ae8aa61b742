package core

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzLoadDatabase throws arbitrary bytes — seeded with a valid v2
// envelope, its truncations, a mutated checksum, two bare {"vdcs": ...}
// objects (the pre-envelope layout, which must not load), and garbage
// JSON — at the envelope parser and holds it to the persistence contract:
// it never panics, and it either returns a database that passes Validate
// or an error (corruption surfaces as *CorruptError, structural
// invalidity as a Validate error). Only a checksummed envelope loads, and
// an input that loads must also survive a save/load round trip.
func FuzzLoadDatabase(f *testing.F) {
	db := &Database{}
	db.Add(VDC{CVE: "CVE-FUZZ-1", DNAs: []DNA{{FuncName: "f"}}})
	dir := f.TempDir()
	seedPath := filepath.Join(dir, "seed.json")
	if err := db.Save(seedPath); err != nil {
		f.Fatalf("save seed: %v", err)
	}
	valid, err := os.ReadFile(seedPath)
	if err != nil {
		f.Fatalf("read seed: %v", err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])              // truncation mid-envelope
	f.Add(valid[:len(valid)-2])              // truncation at the tail
	mutated := append([]byte(nil), valid...) // checksum mismatch
	mutated[len(mutated)/2] ^= 0x20
	f.Add(mutated)
	f.Add([]byte(`{"vdcs": []}`))                                             // no envelope: must not load
	f.Add([]byte(`{"vdcs": [{"cve":"C","dnas":[{"func":"f"}]}]}`))            // no envelope, with content
	f.Add([]byte(`{"format":"jitbull-dna","version":99,"payload":{}}`))       // version skew
	f.Add([]byte(`{"format":"other","version":2,"payload":{}}`))              // foreign format
	f.Add([]byte(`{"format":"jitbull-dna","version":2,"crc32c":"00000000"}`)) // missing payload
	f.Add([]byte(`not json at all`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(``))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		db, err := LoadDatabase(path) // must not panic, whatever data holds
		if err != nil {
			if db != nil {
				t.Fatalf("error %v alongside a non-nil database", err)
			}
			return
		}
		if db == nil {
			t.Fatal("nil database with nil error")
		}
		var env struct{ Format, CRC32C string }
		if json.Unmarshal(data, &env) != nil || env.Format != dbFormat.Name || env.CRC32C == "" {
			t.Fatalf("LoadDatabase accepted a file without the checksummed envelope: %q", data)
		}
		if verr := db.Validate(); verr != nil {
			t.Fatalf("LoadDatabase accepted an invalid database: %v", verr)
		}
		// A database that loaded must round-trip.
		rt := filepath.Join(t.TempDir(), "rt.json")
		if err := db.Save(rt); err != nil {
			t.Fatalf("round-trip save failed: %v", err)
		}
		if _, err := LoadDatabase(rt); err != nil {
			t.Fatalf("round-trip load failed: %v", err)
		}
		// The fail-safe path must always produce a usable database.
		fs, _ := LoadDatabaseFailSafe(path)
		if fs == nil {
			t.Fatal("LoadDatabaseFailSafe returned a nil database")
		}
	})
}
