// Whole-fleet warm-start snapshots: a single checksummed bundle file
// holding every trustworthy record, so one artifact can prime a fresh
// machine (or a CI job) in one copy. The bundle reuses the record
// envelope discipline — versioned format, per-record CRC re-verified on
// restore, atomic write — and the same fail-safe posture: a corrupt
// bundle is an error (the store stays usable, just cold) and a corrupt
// record INSIDE an otherwise-valid bundle is preserved as quarantine
// evidence and skipped, never installed.
package store

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"

	"github.com/jitbull/jitbull/internal/faults"
	"github.com/jitbull/jitbull/internal/jitqueue"
)

const (
	manifestFormat  = "jitbull-store-manifest"
	manifestVersion = 1
)

// manifestRecord is one record inside a snapshot bundle. CRC32C covers
// Payload, independently of the bundle's own integrity, so a single
// rotted record cannot poison a restore.
type manifestRecord struct {
	Key     string          `json:"key"`
	CRC32C  string          `json:"crc32c"`
	Payload json.RawMessage `json:"payload"`
}

// manifest is the bundle's payload.
type manifest struct {
	Records []manifestRecord `json:"records"`
}

// Snapshot writes every currently-trustworthy record into one bundle
// file at path (atomically). Records that fail verification during the
// walk are quarantined exactly as a Get would and left out of the
// bundle. The operation passes through the store.manifest fault point;
// injected corruption kinds damage the bundle bytes (detected by the
// restoring side), transient EIO is retried, and hard kinds fail the
// snapshot with an error.
func (s *Store) Snapshot(path string) (err error) {
	defer s.containManifestPanic(&err)

	ents, rerr := os.ReadDir(s.objs)
	if rerr != nil {
		return fmt.Errorf("snapshot store: %w", rerr)
	}
	m := manifest{Records: []manifestRecord{}}
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		rpath := filepath.Join(s.objs, e.Name())
		key := strings.TrimSuffix(e.Name(), ".json")
		data, rerr := os.ReadFile(rpath)
		if rerr != nil {
			continue
		}
		payload, derr := decodeRecord(rpath, key, data)
		if derr != nil {
			s.quarantine(rpath, key, derr)
			continue
		}
		m.Records = append(m.Records, manifestRecord{
			Key:     key,
			CRC32C:  fmt.Sprintf("%08x", crc32.Checksum(payload, crcTable)),
			Payload: payload,
		})
	}
	payload, merr := json.Marshal(m)
	if merr != nil {
		return fmt.Errorf("snapshot store: %w", merr)
	}
	bundle := []byte(fmt.Sprintf("{\n  \"format\": %q,\n  \"version\": %d,\n  \"key\": \"\",\n  \"crc32c\": \"%08x\",\n  \"payload\": %s\n}\n",
		manifestFormat, manifestVersion, crc32.Checksum(payload, crcTable), payload))

	for attempt := 0; ; attempt++ {
		f, fired := s.checkFault(faults.PointStoreManifest, path)
		if !fired {
			break
		}
		switch f.Kind {
		case faults.KindEIO:
			if attempt < s.retries {
				s.mRetries.Inc()
				s.sleep(retryBase << uint(attempt))
				continue
			}
			return fmt.Errorf("snapshot store: %w", &faults.InjectedError{Fault: f})
		case faults.KindTornWrite:
			bundle = bundle[:len(bundle)/2]
		case faults.KindTruncate:
			bundle = nil
		case faults.KindBitFlip:
			bundle = append([]byte(nil), bundle...)
			bundle[len(bundle)/2] ^= 0x04
		default:
			return fmt.Errorf("snapshot store: %w", &faults.InjectedError{Fault: f})
		}
		break
	}
	if werr := writeAtomic(path, bundle); werr != nil {
		return fmt.Errorf("snapshot store: %w", werr)
	}
	return nil
}

// Restore installs every verifiable record from a snapshot bundle into
// the store (through the normal atomic write path), returning how many
// were installed. A bundle that cannot be trusted as a whole returns a
// *CorruptError and installs nothing; an individual record whose
// checksum or key fails is written into the quarantine directory as
// evidence and skipped. Existing records under the same keys are
// overwritten (the bundle's record verified; content-addressed keys make
// the bytes equivalent anyway).
func (s *Store) Restore(path string) (installed int, err error) {
	defer s.containManifestPanic(&err)

	for attempt := 0; ; attempt++ {
		f, fired := s.checkFault(faults.PointStoreManifest, path)
		if !fired {
			break
		}
		switch f.Kind {
		case faults.KindEIO:
			if attempt < s.retries {
				s.mRetries.Inc()
				s.sleep(retryBase << uint(attempt))
				continue
			}
			return 0, fmt.Errorf("restore store: %w", &faults.InjectedError{Fault: f})
		case faults.KindTornWrite, faults.KindBitFlip, faults.KindTruncate:
			s.damage(path, f.Kind)
			// fall through to the normal read: bundle verification catches it
		default:
			return 0, fmt.Errorf("restore store: %w", &faults.InjectedError{Fault: f})
		}
		break
	}

	data, rerr := os.ReadFile(path)
	if rerr != nil {
		return 0, fmt.Errorf("restore store: %w", rerr)
	}
	var env envelope
	if uerr := json.Unmarshal(data, &env); uerr != nil {
		return 0, &CorruptError{Path: path, Reason: "bundle envelope does not parse", Err: uerr}
	}
	if env.Format != manifestFormat {
		return 0, &CorruptError{Path: path, Reason: fmt.Sprintf("unknown bundle format %q", env.Format)}
	}
	if env.Version != manifestVersion {
		return 0, &CorruptError{Path: path, Reason: fmt.Sprintf("unsupported bundle version %d (want %d)", env.Version, manifestVersion)}
	}
	if len(env.Payload) == 0 {
		return 0, &CorruptError{Path: path, Reason: "missing bundle payload"}
	}
	sum := fmt.Sprintf("%08x", crc32.Checksum(env.Payload, crcTable))
	if !strings.EqualFold(sum, env.CRC32C) {
		return 0, &CorruptError{Path: path,
			Reason: fmt.Sprintf("bundle checksum mismatch: stored crc32c %q, computed %q", env.CRC32C, sum)}
	}
	var m manifest
	if uerr := json.Unmarshal(env.Payload, &m); uerr != nil {
		return 0, &CorruptError{Path: path, Reason: "bundle manifest does not parse despite a valid checksum", Err: uerr}
	}

	for i, rec := range m.Records {
		var k jitqueue.Key
		raw, herr := hex.DecodeString(rec.Key)
		recSum := fmt.Sprintf("%08x", crc32.Checksum(rec.Payload, crcTable))
		switch {
		case herr != nil || len(raw) != len(k):
			s.quarantineBundleRecord(path, i, rec, "malformed record key")
			continue
		case !strings.EqualFold(recSum, rec.CRC32C):
			s.quarantineBundleRecord(path, i, rec,
				fmt.Sprintf("record checksum mismatch: stored %q, computed %q", rec.CRC32C, recSum))
			continue
		}
		copy(k[:], raw)
		envBytes, eerr := encodeRecord(rec.Key, rec.Payload)
		if eerr != nil {
			s.quarantineBundleRecord(path, i, rec, eerr.Error())
			continue
		}
		if werr := writeAtomic(s.recordPath(k), envBytes); werr != nil {
			s.dropPut(rec.Key, "restore: "+werr.Error())
			continue
		}
		installed++
	}
	return installed, nil
}

// quarantineBundleRecord preserves one untrustworthy bundle entry as a
// quarantine file (there is no store record to rename, so the entry's
// bytes are written out as evidence) and accounts the degradation.
func (s *Store) quarantineBundleRecord(bundle string, idx int, rec manifestRecord, reason string) {
	evidence, _ := json.Marshal(rec)
	dst := filepath.Join(s.quar, fmt.Sprintf("bundle-record-%d.%d.json", idx, s.qseq.Add(1)))
	writeAtomic(dst, evidence)
	s.corrupt(rec.Key, fmt.Sprintf("bundle %s record %d quarantined to %s: %s", bundle, idx, dst, reason))
}

// containManifestPanic converts an injected panic unwinding a manifest
// operation into its error form (accounting already happened in
// checkFault's recover; this catches panics that escape deeper I/O).
func (s *Store) containManifestPanic(err *error) {
	if r := recover(); r != nil {
		f, ok := faults.FromPanic(r)
		if !ok {
			panic(r)
		}
		*err = &faults.InjectedError{Fault: f}
	}
}
