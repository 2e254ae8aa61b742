package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"

	"github.com/jitbull/jitbull/internal/faults"
)

// On-disk format of the VDC DNA database: a versioned envelope whose
// payload (the {"vdcs": ...} JSON) is covered by a CRC-32C checksum, so
// truncation and bit rot are detected instead of silently loading a wrong
// — and therefore wrongly-permissive — match index.
const (
	dbFormat  = "jitbull-dna"
	dbVersion = 2
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// dbEnvelope is the v2 on-disk layout.
type dbEnvelope struct {
	Format  string          `json:"format"`
	Version int             `json:"version"`
	CRC32C  string          `json:"crc32c"`
	Payload json.RawMessage `json:"payload"`
}

// CorruptError reports that a database file exists but cannot be trusted:
// torn JSON, an unknown layout, a failed checksum, or an unsupported
// version. Callers on the protection path must treat it as "the database
// is unavailable" and fail safe toward NoJIT, never as "no protection
// configured".
type CorruptError struct {
	Path   string
	Reason string
	Err    error // underlying parse error, when any
}

// Error implements the error interface.
func (e *CorruptError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("corrupt DNA database %s: %s: %v", e.Path, e.Reason, e.Err)
	}
	return fmt.Sprintf("corrupt DNA database %s: %s", e.Path, e.Reason)
}

// Unwrap exposes the underlying cause.
func (e *CorruptError) Unwrap() error { return e.Err }

// IsCorrupt reports whether err marks an untrustworthy database file.
func IsCorrupt(err error) bool {
	var c *CorruptError
	return errors.As(err, &c)
}

// Save writes the database in the checksummed v2 format. The write is
// atomic: the data goes to a temporary file in the destination directory
// which is then renamed over path, so a concurrent reader (or a crash
// mid-write) never observes a torn database.
func (db *Database) Save(path string) error { return db.SaveWith(path, nil) }

// SaveWith is Save with a fault-injection point (inj may be nil). All
// injected fault kinds — including panics — degrade to a returned error:
// persistence contains its own faults.
func (db *Database) SaveWith(path string, inj *faults.Injector) (err error) {
	defer func() {
		if r := recover(); r != nil {
			f, ok := faults.FromPanic(r)
			if !ok {
				panic(r)
			}
			err = &faults.InjectedError{Fault: f}
		}
	}()
	if err := inj.Check(faults.PointDBSave, path); err != nil {
		return err
	}
	// A dangling chain ID would panic inside Delta.MarshalJSON; reject the
	// database with a descriptive error instead.
	if err := db.Validate(); err != nil {
		return fmt.Errorf("save DNA database: %w", err)
	}
	payload, err := json.MarshalIndent(db, "  ", "  ")
	if err != nil {
		return fmt.Errorf("marshal DNA database: %w", err)
	}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "{\n  \"format\": %q,\n  \"version\": %d,\n  \"crc32c\": \"%08x\",\n  \"payload\": %s\n}\n",
		dbFormat, dbVersion, crc32.Checksum(payload, crcTable), payload)

	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".jitbull-db-*")
	if err != nil {
		return fmt.Errorf("save DNA database: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(buf.Bytes()); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("save DNA database: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("save DNA database: %w", err)
	}
	if err := os.Chmod(tmpName, 0o644); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("save DNA database: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("save DNA database: %w", err)
	}
	return nil
}

// LoadDatabase reads a database written by Save. It accepts one layout,
// the checksummed envelope: the file is the go/no-go policy, so nothing
// in it is trusted before the checksum holds. A bare {"vdcs": ...} object
// — an envelope with its wrapper stripped, or a hand-edited policy — is
// rejected like any other foreign JSON. Untrustworthy files return a
// *CorruptError; structurally-invalid databases (duplicate VDC names,
// dangling chain IDs) are rejected by Validate.
func LoadDatabase(path string) (*Database, error) { return LoadDatabaseWith(path, nil) }

// LoadDatabaseWith is LoadDatabase with a fault-injection point (inj may
// be nil). Injected panics degrade to returned errors.
func LoadDatabaseWith(path string, inj *faults.Injector) (db *Database, err error) {
	defer func() {
		if r := recover(); r != nil {
			f, ok := faults.FromPanic(r)
			if !ok {
				panic(r)
			}
			db, err = nil, &faults.InjectedError{Fault: f}
		}
	}()
	if err := inj.Check(faults.PointDBLoad, path); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}

	var probe map[string]json.RawMessage
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, &CorruptError{Path: path, Reason: "not a JSON object (torn or truncated write?)", Err: err}
	}
	if _, versioned := probe["format"]; !versioned {
		return nil, &CorruptError{Path: path, Reason: `missing envelope: no "format" key, so no checksum covers the content`}
	}

	var env dbEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, &CorruptError{Path: path, Reason: "envelope does not parse", Err: err}
	}
	if env.Format != dbFormat {
		return nil, &CorruptError{Path: path, Reason: fmt.Sprintf("unknown format %q", env.Format)}
	}
	if env.Version != dbVersion {
		return nil, &CorruptError{Path: path, Reason: fmt.Sprintf("unsupported version %d (want %d)", env.Version, dbVersion)}
	}
	if len(env.Payload) == 0 {
		return nil, &CorruptError{Path: path, Reason: "missing payload"}
	}
	sum := fmt.Sprintf("%08x", crc32.Checksum(env.Payload, crcTable))
	if !strings.EqualFold(sum, env.CRC32C) {
		return nil, &CorruptError{Path: path,
			Reason: fmt.Sprintf("checksum mismatch: stored crc32c %q, computed %q (bit rot or a tampered file)", env.CRC32C, sum)}
	}
	db = &Database{}
	if err := json.Unmarshal(env.Payload, db); err != nil {
		return nil, &CorruptError{Path: path, Reason: "payload does not parse despite a valid checksum", Err: err}
	}
	if err := db.Validate(); err != nil {
		return nil, fmt.Errorf("invalid DNA database %s: %w", path, err)
	}
	return db, nil
}

// LoadDatabaseFailSafe loads the database for the protection path. On any
// failure — unreadable file, corruption, checksum mismatch, validation
// error, injected fault — it returns a non-nil fail-safe database (whose
// policy verdict is NoJIT for every function) alongside the error, so the
// caller keeps running protected: JIT disabled beats JIT unprotected.
// Exactly one of (clean database, nil) or (fail-safe database, error) is
// returned.
func LoadDatabaseFailSafe(path string) (*Database, error) {
	db, err := LoadDatabase(path)
	if err != nil {
		return NewFailSafeDatabase(), err
	}
	return db, nil
}
