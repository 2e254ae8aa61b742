package core

// The one place bytes from disk become trusted: the checksummed envelope
// around the VDC DNA database (persist.go). A format name, a layout
// version and a CRC-32C over the payload exactly as stored. Seal renders
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
// error text ("DNA database").
type Format struct {
	Name    string
	Version int
	What    string
}

// envelope is the on-disk layout. CRC32C covers Payload exactly as stored.
type envelope struct {
	Format  string          `json:"format"`
	Version int             `json:"version"`
	CRC32C  string          `json:"crc32c"`
	Payload json.RawMessage `json:"payload"`
}

// CorruptError reports that a file exists but cannot be trusted: torn
// JSON, an unknown layout, an unsupported version, or a failed checksum.
// A database caller must treat it as "the database is unavailable" and
// fail safe toward NoJIT, never as "no protection configured".
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
// envelope itself would not parse.
func (f Format) Seal(payload []byte) ([]byte, error) {
	if !json.Valid(payload) {
		return nil, fmt.Errorf("%s payload is not valid JSON", f.What)
	}
	return fmt.Appendf(nil, "{\n  \"format\": %q,\n  \"version\": %d,\n  \"crc32c\": \"%08x\",\n  \"payload\": %s\n}\n",
		f.Name, f.Version, crc32.Checksum(payload, crcTable), payload), nil
}

// Unseal verifies data read from path against the format and returns the
// payload or a *CorruptError. Nothing in the payload may be looked at
// before this has passed.
func (f Format) Unseal(path string, data []byte) (json.RawMessage, error) {
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
