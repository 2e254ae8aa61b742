package core

import (
	"encoding/json"
	"fmt"
	"os"

	"github.com/jitbull/jitbull/internal/faults"
	"github.com/jitbull/jitbull/internal/store"
)

// dbFormat is the on-disk format of the VDC DNA database: the store's
// checksummed envelope (internal/store/envelope.go) with no key, around
// the {"vdcs": ...} JSON. Truncation and bit rot are detected instead of
// silently loading a wrong — and therefore wrongly-permissive — match
// index; an untrustworthy file is a *store.CorruptError.
var dbFormat = store.Format{Name: "jitbull-dna", Version: 2, What: "DNA database"}

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
	data, err := dbFormat.Seal("", payload)
	if err == nil {
		err = store.WriteAtomic(path, data)
	}
	if err != nil {
		return fmt.Errorf("save DNA database: %w", err)
	}
	return nil
}

// LoadDatabase reads a database written by Save. It accepts one layout,
// the checksummed envelope: the file is the go/no-go policy, so nothing
// in it is trusted before the checksum holds. A bare {"vdcs": ...} object
// — an envelope with its wrapper stripped, or a hand-edited policy — is
// rejected like any other foreign JSON. Untrustworthy files return a
// *store.CorruptError; structurally-invalid databases (duplicate VDC names,
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

	payload, err := dbFormat.Unseal(path, "", data)
	if err != nil {
		return nil, err
	}
	db = &Database{}
	if err := json.Unmarshal(payload, db); err != nil {
		return nil, &store.CorruptError{What: dbFormat.What, Path: path, Reason: "payload does not parse despite a valid checksum", Err: err}
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
