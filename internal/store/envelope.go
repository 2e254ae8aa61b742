package store

// The one place bytes from disk become trusted. Both files this system
// checks across a process boundary — a store record and the VDC DNA
// database (internal/core/persist.go) — are the same envelope: a format
// name, a layout version, optionally the key the bytes were written
// under, and a CRC-32C over the payload exactly as stored. Seal renders
// it, Unseal is the only verification ladder, WriteAtomic the only writer.

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Format identifies one checked file layout. What names the file in
// error text ("store record", "DNA database").
type Format struct {
	Name    string
	Version int
	What    string
}

// recordFormat is the store's own layout; the database's lives in core.
var recordFormat = Format{Name: "jitbull-store", Version: 1, What: "store record"}

// envelope is the on-disk layout. CRC32C covers Payload exactly as
// stored; Key binds a record to the cache key it was written under and
// is absent from a file that has none (the database).
type envelope struct {
	Format  string          `json:"format"`
	Version int             `json:"version"`
	Key     string          `json:"key"`
	CRC32C  string          `json:"crc32c"`
	Payload json.RawMessage `json:"payload"`
}

// CorruptError reports that a file exists but cannot be trusted: torn
// JSON, an unknown layout, an unsupported version, a key it was not
// written under, or a failed checksum. The store's own callers never see
// it (corruption degrades to a miss; it surfaces through Verify); a
// database caller must treat it as "the database is unavailable" and fail
// safe toward NoJIT, never as "no protection configured".
type CorruptError struct {
	What   string
	Path   string
	Reason string
	Err    error // underlying parse error, when any
}

// Error implements the error interface.
func (e *CorruptError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("corrupt %s %s: %s: %v", e.What, e.Path, e.Reason, e.Err)
	}
	return fmt.Sprintf("corrupt %s %s: %s", e.What, e.Path, e.Reason)
}

// Unwrap exposes the underlying cause.
func (e *CorruptError) Unwrap() error { return e.Err }

// IsCorrupt reports whether err marks an untrustworthy file.
func IsCorrupt(err error) bool {
	var c *CorruptError
	return errors.As(err, &c)
}

// Seal renders the envelope for payload, which must be valid JSON or the
// envelope itself would not parse. An empty key leaves the key line out.
func (f Format) Seal(key string, payload []byte) ([]byte, error) {
	if !json.Valid(payload) {
		return nil, fmt.Errorf("%s payload is not valid JSON", f.What)
	}
	keyLine := ""
	if key != "" {
		keyLine = fmt.Sprintf("  \"key\": %q,\n", key)
	}
	return fmt.Appendf(nil, "{\n  \"format\": %q,\n  \"version\": %d,\n%s  \"crc32c\": \"%08x\",\n  \"payload\": %s\n}\n",
		f.Name, f.Version, keyLine, crc32.Checksum(payload, crcTable), payload), nil
}

// Unseal verifies data read from path against the format and, when
// wantKey is not empty, the key it was fetched under; it returns the
// payload or a *CorruptError. Nothing in the payload may be looked at
// before this has passed.
func (f Format) Unseal(path, wantKey string, data []byte) (json.RawMessage, error) {
	bad := func(err error, format string, args ...any) (json.RawMessage, error) {
		return nil, &CorruptError{What: f.What, Path: path, Reason: fmt.Sprintf(format, args...), Err: err}
	}
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return bad(err, "envelope does not parse (torn or truncated write?)")
	}
	if env.Format == "" {
		return bad(nil, `missing envelope: no "format" key, so no checksum covers the content`)
	}
	if env.Format != f.Name {
		return bad(nil, "unknown format %q", env.Format)
	}
	if env.Version != f.Version {
		return bad(nil, "unsupported version %d (want %d)", env.Version, f.Version)
	}
	if wantKey != "" && env.Key != wantKey {
		return bad(nil, "key mismatch: record written under %q (renamed or cross-linked file?)", env.Key)
	}
	if len(env.Payload) == 0 {
		return bad(nil, "missing payload")
	}
	sum := fmt.Sprintf("%08x", crc32.Checksum(env.Payload, crcTable))
	if !strings.EqualFold(sum, env.CRC32C) {
		return bad(nil, "checksum mismatch: stored crc32c %q, computed %q (bit rot or a tampered file)", env.CRC32C, sum)
	}
	return env.Payload, nil
}

// WriteAtomic writes data to path through a temporary file in the same
// directory renamed over it: a crash at any instruction, or a concurrent
// reader, sees the old file or the new one under path, never a prefix.
func WriteAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".jitbull-tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	_, err = tmp.Write(data)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Chmod(tmpName, 0o644)
	}
	if err == nil {
		err = os.Rename(tmpName, path)
	}
	if err != nil {
		os.Remove(tmpName)
	}
	return err
}
