package core

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/jitbull/jitbull/internal/faults"
	"github.com/jitbull/jitbull/internal/store"
)

func sampleDB() *Database {
	db := &Database{}
	db.Add(VDC{CVE: "CVE-2019-9813", DNAs: []DNA{{FuncName: "trigger", Passes: map[string]Delta{
		"GVN":           MakeDelta([]string{"shape→load→add", "guard→load"}, nil),
		"AliasAnalysis": MakeDelta(nil, []string{"store→load"}),
	}}}})
	db.Add(VDC{CVE: "CVE-2020-9802", DNAs: []DNA{{FuncName: "cse", Passes: map[string]Delta{}}}})
	return db
}

func saveSample(t *testing.T) (*Database, string) {
	t.Helper()
	db := sampleDB()
	path := filepath.Join(t.TempDir(), "db.json")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	return db, path
}

func TestSaveLoadV2RoundTrip(t *testing.T) {
	db, path := saveSample(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"format": "jitbull-dna"`, `"version": 2`, `"crc32c"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("saved file missing %s", want)
		}
	}
	loaded, err := LoadDatabase(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(db.VDCs, loaded.VDCs) {
		t.Fatalf("round-trip mismatch:\n%+v\nvs\n%+v", db.VDCs, loaded.VDCs)
	}
	if loaded.FailSafe() {
		t.Error("a cleanly loaded database must not be in fail-safe mode")
	}
}

func TestLoadTruncatedFileIsCorrupt(t *testing.T) {
	_, path := saveSample(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = LoadDatabase(path)
	if !store.IsCorrupt(err) {
		t.Fatalf("truncated file: err = %v, want CorruptError", err)
	}
}

func TestLoadBitFlippedPayloadIsCorrupt(t *testing.T) {
	_, path := saveSample(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one bit in the middle of the file — inside the payload, where a
	// plain JSON parse would happily accept the altered chain string.
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = LoadDatabase(path)
	if !store.IsCorrupt(err) {
		t.Fatalf("bit-flipped file: err = %v, want CorruptError", err)
	}
}

// TestLoadLegacyV1Layout: a bare {"vdcs": ...} object — the layout before
// the envelope, and what a v2 file looks like with its envelope stripped
// — carries no checksum and must not load.
func TestLoadLegacyV1Layout(t *testing.T) {
	path := filepath.Join(t.TempDir(), "legacy.json")
	payload, err := json.MarshalIndent(sampleDB(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, payload, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = LoadDatabase(path)
	if !store.IsCorrupt(err) || !strings.Contains(err.Error(), "missing envelope") {
		t.Fatalf("unchecksummed database: err = %v, want a CorruptError naming the missing envelope", err)
	}
	if db, _ := LoadDatabaseFailSafe(path); db == nil || !db.FailSafe() {
		t.Fatal("protection path did not fail safe on an unchecksummed database")
	}
}

func TestLoadRejectsForeignJSON(t *testing.T) {
	dir := t.TempDir()
	for name, content := range map[string]string{
		"garbage.json": "not json at all {{{",
		"foreign.json": `{"hello": "world"}`,
		"badfmt.json":  `{"format": "something-else", "version": 2, "payload": {}}`,
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadDatabase(path); !store.IsCorrupt(err) {
			t.Errorf("%s: err = %v, want CorruptError", name, err)
		}
	}
}

func TestValidateRejectsDuplicateAndEmptyCVE(t *testing.T) {
	dup := &Database{VDCs: []VDC{{CVE: "CVE-X"}, {CVE: "CVE-X"}}}
	if err := dup.Validate(); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate CVE: err = %v", err)
	}
	if err := dup.Save(filepath.Join(t.TempDir(), "dup.json")); err == nil {
		t.Error("Save accepted a database with duplicate VDC names")
	}
	empty := &Database{VDCs: []VDC{{CVE: ""}}}
	if err := empty.Validate(); err == nil || !strings.Contains(err.Error(), "empty CVE") {
		t.Errorf("empty CVE: err = %v", err)
	}
}

func TestValidateRejectsDanglingChainID(t *testing.T) {
	db := &Database{VDCs: []VDC{{CVE: "CVE-X", DNAs: []DNA{{FuncName: "f", Passes: map[string]Delta{
		"GVN": {Removed: []uint32{1 << 30}},
	}}}}}}
	err := db.Validate()
	if err == nil || !strings.Contains(err.Error(), "dangling") {
		t.Fatalf("dangling chain ID: err = %v", err)
	}
	for _, frag := range []string{"CVE-X", `"f"`, `"GVN"`} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("error %q does not name %s", err, frag)
		}
	}
	if err := db.Save(filepath.Join(t.TempDir(), "dangling.json")); err == nil {
		t.Error("Save accepted a dangling chain reference")
	}
}

func TestPersistenceFaultInjection(t *testing.T) {
	// Both error and panic injections at the db.save / db.load points must
	// degrade into returned errors — never an escaped panic, never a file
	// half-written or a half-parsed database.
	for _, kind := range []faults.Kind{faults.KindError, faults.KindPanic} {
		t.Run(string(kind), func(t *testing.T) {
			db := sampleDB()
			path := filepath.Join(t.TempDir(), "db.json")
			inj := faults.NewInjector(1, faults.Rule{Point: faults.PointDBSave, Kind: kind, Times: 1})
			if err := db.SaveWith(path, inj); !faults.IsInjected(err) {
				t.Fatalf("SaveWith: err = %v, want injected fault surfaced as error", err)
			}
			if _, statErr := os.Stat(path); statErr == nil {
				t.Error("failed save left a file behind")
			}
			if err := db.SaveWith(path, inj); err != nil { // rule exhausted
				t.Fatal(err)
			}
			linj := faults.NewInjector(1, faults.Rule{Point: faults.PointDBLoad, Kind: kind, Times: 1})
			if _, err := LoadDatabaseWith(path, linj); !faults.IsInjected(err) {
				t.Fatalf("LoadDatabaseWith: err = %v, want injected fault surfaced as error", err)
			}
			if loaded, err := LoadDatabaseWith(path, linj); err != nil || loaded.Size() != 2 {
				t.Fatalf("retry after exhausted rule: %v", err)
			}
		})
	}
}

func TestLoadDatabaseFailSafe(t *testing.T) {
	// A broken database must come back as a usable fail-safe instance plus
	// the diagnostic error, so callers can keep running with JIT denied.
	path := filepath.Join(t.TempDir(), "missing.json")
	db, err := LoadDatabaseFailSafe(path)
	if err == nil {
		t.Fatal("missing file reported no error")
	}
	if db == nil || !db.FailSafe() {
		t.Fatal("fail-safe load did not return a fail-safe database")
	}
	_, good := saveSample(t)
	db, err = LoadDatabaseFailSafe(good)
	if err != nil || db.FailSafe() {
		t.Fatalf("healthy file: err=%v failSafe=%v", err, db.FailSafe())
	}
}
