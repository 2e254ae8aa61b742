// Package store is the crash-safe persistent tier under the shared
// compilation cache: a content-addressed, checksummed on-disk map from
// the full compilation-input key (jitqueue.Key — canonical bytecode hash
// plus every other pipeline input, policy identity included) to the
// encoded artifact+verdict record, so a fleet restart replays verdicts
// and installs artifacts without rerunning the pipeline or DNA matching.
//
// Durability discipline is envelope.go's, shared with the VDC database
// (internal/core/persist.go): every record is a versioned JSON envelope
// whose payload is covered by a CRC-32C checksum, and every write goes
// to a temporary file renamed over the final path, so a crash mid-write
// never leaves a half-record under a valid name. A record's envelope
// carries its own key, so a renamed, copied or cross-linked file cannot
// serve bytes for a key it was not written under.
//
// Failure policy is fail-safe degradation, never propagation: the store
// sits under a cache whose contract is "a miss costs a recompile", so
// every failure — unreadable file, torn envelope, checksum mismatch,
// version skew, key mismatch, injected disk fault — degrades to a miss.
// Records that exist but cannot be trusted are quarantined (renamed into
// a sidecar directory, preserving the evidence) with a metric and a fact
// on Options.Tracer per degradation; transient I/O errors are retried with
// bounded backoff before giving up. A store failure can cost time, never
// correctness: the verdict either replays bit-identically or is decided
// cold.
package store

import (
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"github.com/jitbull/jitbull/internal/faults"
	"github.com/jitbull/jitbull/internal/jitqueue"
	"github.com/jitbull/jitbull/internal/obs"
)

const (
	objectsDir    = "objects"
	quarantineDir = "quarantine"

	// defaultRetries bounds the transient-I/O retry loop (per operation).
	defaultRetries = 3
	// retryBase is the backoff unit: attempt n sleeps retryBase << n.
	retryBase = time.Millisecond
)

// Options configures a store.
type Options struct {
	// Metrics receives the store.* counters (nil discards).
	Metrics *obs.Registry
	// Faults is the chaos injector for the disk boundary (nil = no
	// injection). Give the injector to the store ONLY — an injector on the
	// engine's compile path vetoes cache keys entirely.
	Faults *faults.Injector
	// Retries bounds the transient-I/O retry loop (0 = defaultRetries).
	Retries int
	// Sleep is the backoff sleeper, injectable for tests (nil = time.Sleep).
	Sleep func(time.Duration)
	// Tracer is the event stream the store states its facts on (nil = none):
	// one span per Get/Put, whose IDs seed the store.{get,put}_ns histogram
	// exemplars so an outlier bucket can be followed back to the retained
	// trace event; one FactStoreCorrupt per quarantined record — the audit
	// log's and the anomaly watchdog's view of disk rot; one
	// FactCompileError per dropped put, failed read or injected fault. Give
	// it the engine's tracer and the same views render both.
	Tracer *obs.Tracer
}

// Store is the persistent second tier. It implements jitqueue.SecondTier
// and is safe for concurrent use: records are immutable once renamed
// into place, and the quarantine sequence is atomic.
type Store struct {
	dir  string
	objs string
	quar string
	opts Options

	retries int
	sleep   func(time.Duration)
	qseq    atomic.Uint64

	mHits        *obs.Counter
	mMisses      *obs.Counter
	mPuts        *obs.Counter
	mPutDrops    *obs.Counter
	mQuarantined *obs.Counter
	mRetries     *obs.Counter
	mFaults      *obs.Counter
	hGet         *obs.Histogram
	hPut         *obs.Histogram
}

var _ jitqueue.SecondTier = (*Store)(nil)

// Open creates or reopens the store rooted at dir. Reopening an existing
// directory is the warm-start path: whatever records survived the last
// process serve immediately; nothing is scanned or trusted up front
// (records are verified on every read).
func Open(dir string, opts Options) (*Store, error) {
	for _, d := range []string{dir, filepath.Join(dir, objectsDir), filepath.Join(dir, quarantineDir)} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("open store: %w", err)
		}
	}
	s := &Store{
		dir:     dir,
		objs:    filepath.Join(dir, objectsDir),
		quar:    filepath.Join(dir, quarantineDir),
		opts:    opts,
		retries: opts.Retries,
		sleep:   opts.Sleep,
	}
	if s.retries <= 0 {
		s.retries = defaultRetries
	}
	if s.sleep == nil {
		s.sleep = time.Sleep
	}
	reg := opts.Metrics
	s.mHits = reg.Counter("store.hits")
	s.mMisses = reg.Counter("store.misses")
	s.mPuts = reg.Counter("store.puts")
	s.mPutDrops = reg.Counter("store.put_drops")
	s.mQuarantined = reg.Counter("store.quarantined")
	s.mRetries = reg.Counter("store.retries")
	s.mFaults = reg.Counter("store.faults_injected")
	s.hGet = reg.Histogram("store.get_ns", obs.LatencyBucketsNs)
	s.hPut = reg.Histogram("store.put_ns", obs.LatencyBucketsNs)
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// QuarantineDir returns the sidecar directory corrupt records are moved
// into (evidence for offline inspection and CI artifact upload).
func (s *Store) QuarantineDir() string { return s.quar }

func keyHex(k jitqueue.Key) string { return hex.EncodeToString(k[:]) }

func (s *Store) recordPath(k jitqueue.Key) string {
	return filepath.Join(s.objs, keyHex(k)+".json")
}

// accountFault gives one injected fault the 1:1 accounting the chaos
// campaign matches against the injector's own fired list: a metric tick
// and an error fact naming point, kind and detail.
func (s *Store) accountFault(f faults.Fault) {
	s.mFaults.Inc()
	s.failed(f.Detail, f.Point, "injected disk fault: "+f.String())
}

// failed states one degradation that cost a read or a write but no record.
func (s *Store) failed(key string, at faults.Point, reason string) {
	s.opts.Tracer.Instant(obs.CatStore, obs.FactCompileError, key, obs.S("stage", string(at)), obs.S("reason", reason))
}

// checkFault evaluates one hit of a store fault point with panic
// containment, returning the fault (if any) for kind-specific handling.
// Injected panics are converted to KindPanic faults here — at the disk
// boundary a panic and a hard error degrade identically.
func (s *Store) checkFault(p faults.Point, detail string) (f faults.Fault, fired bool) {
	defer func() {
		if r := recover(); r != nil {
			pf, ok := faults.FromPanic(r)
			if !ok {
				panic(r)
			}
			s.accountFault(pf)
			f, fired = pf, true
		}
	}()
	err := s.opts.Faults.Check(p, detail)
	if err == nil {
		return faults.Fault{}, false
	}
	var ie *faults.InjectedError
	if !errors.As(err, &ie) {
		// Not constructible from Injector.Check, but degrade anyway.
		return faults.Fault{Point: p, Detail: detail, Kind: faults.KindError}, true
	}
	s.accountFault(ie.Fault)
	return ie.Fault, true
}

// Put implements jitqueue.SecondTier: persist one encoded cache value.
// Failures never propagate (the memory tier already holds the value);
// they are accounted and the record simply stays cold for the next
// process. Injected disk faults get their modeled behavior: silent
// corruption kinds WRITE the damaged bytes and report success (detection
// is the reader's job), ENOSPC and generic errors drop the put, and
// transient EIO is absorbed by the bounded retry loop.
func (s *Store) Put(k jitqueue.Key, data []byte) {
	key := keyHex(k)
	sp := s.opts.Tracer.Begin(obs.CatStore, obs.FactStorePut, key)
	start := time.Now()
	defer func() {
		s.hPut.ObserveEx(int64(time.Since(start)), sp.ID())
		sp.End()
	}()
	env, err := recordFormat.Seal(key, data)
	if err != nil {
		s.dropPut(key, err.Error())
		return
	}
	path := s.recordPath(k)

	for attempt := 0; ; attempt++ {
		f, fired := s.checkFault(faults.PointStorePut, key)
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
			s.dropPut(key, "transient I/O errors exhausted the retry budget")
			return
		case faults.KindTornWrite:
			// A torn write defeats the rename discipline by definition (the
			// filesystem lied about durability): the prefix lands under the
			// FINAL name and the put reports success. The reader's checksum is
			// the only line of defense, which is the point.
			os.WriteFile(path, env[:len(env)/2], 0o644)
			return
		case faults.KindTruncate:
			os.WriteFile(path, nil, 0o644)
			return
		case faults.KindBitFlip:
			// One flipped bit mid-record, then the normal atomic write: the
			// file is well-formed enough to rename but fails its checksum.
			env = append([]byte(nil), env...)
			env[len(env)/2] ^= 0x04
			// fallthrough to the clean write below
		default:
			// enospc, error, panic, stall: the write is lost outright.
			s.dropPut(key, "injected "+string(f.Kind)+" fault dropped the write")
			return
		}
		break
	}

	for attempt := 0; ; attempt++ {
		err := WriteAtomic(path, env)
		if err == nil {
			s.mPuts.Inc()
			return
		}
		if attempt < s.retries {
			s.mRetries.Inc()
			s.sleep(retryBase << uint(attempt))
			continue
		}
		s.dropPut(key, err.Error())
		return
	}
}

// dropPut accounts one lost write: the value stays memory-only.
func (s *Store) dropPut(key, reason string) {
	s.mPutDrops.Inc()
	s.failed(key, faults.PointStorePut, "store put dropped: "+reason)
}

// Get implements jitqueue.SecondTier: fetch and verify one record.
// ok=false is always a plain miss to the caller; internally it may be a
// genuine absence, an injected fault, or a quarantined corruption.
// Injected read-side corruption kinds damage the on-disk bytes before
// the read — modeling rot discovered at read time — so the verification
// and quarantine path is what gets exercised.
func (s *Store) Get(k jitqueue.Key) ([]byte, bool) {
	key := keyHex(k)
	path := s.recordPath(k)
	sp := s.opts.Tracer.Begin(obs.CatStore, obs.FactStoreGet, key)
	start := time.Now()
	defer func() {
		s.hGet.ObserveEx(int64(time.Since(start)), sp.ID())
		sp.End()
	}()

	for attempt := 0; ; attempt++ {
		f, fired := s.checkFault(faults.PointStoreGet, key)
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
			s.mMisses.Inc()
			return nil, false
		case faults.KindTornWrite, faults.KindBitFlip, faults.KindTruncate:
			s.damage(path, f.Kind)
			// fall through to the normal read: verification must catch it
		default:
			// enospc, error, panic, stall: the read is lost.
			s.mMisses.Inc()
			return nil, false
		}
		break
	}

	data, err := os.ReadFile(path)
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			s.failed(key, faults.PointStoreGet, "store read failed: "+err.Error())
		}
		s.mMisses.Inc()
		return nil, false
	}
	payload, derr := recordFormat.Unseal(path, key, data)
	if derr != nil {
		s.quarantine(path, key, derr)
		s.mMisses.Inc()
		return nil, false
	}
	s.mHits.Inc()
	return payload, true
}

// damage corrupts the on-disk record in place for a read-side injected
// fault (missing file: nothing to damage, the read misses anyway).
func (s *Store) damage(path string, kind faults.Kind) {
	data, err := os.ReadFile(path)
	if err != nil {
		return
	}
	switch kind {
	case faults.KindTornWrite:
		data = data[:len(data)/2]
	case faults.KindTruncate:
		data = nil
	case faults.KindBitFlip:
		if len(data) > 0 {
			data = append([]byte(nil), data...)
			data[len(data)/2] ^= 0x04
		}
	}
	os.WriteFile(path, data, 0o644)
}

// quarantine moves one untrustworthy record into the sidecar directory
// (preserving the bytes as evidence) and accounts the degradation. The
// record then reads as a miss forever — it can never be served again.
func (s *Store) quarantine(path, key string, cause error) {
	dst := filepath.Join(s.quar, fmt.Sprintf("%s.%d", filepath.Base(path), s.qseq.Add(1)))
	if err := os.Rename(path, dst); err != nil {
		// Renaming failed (the file vanished, or the quarantine dir did):
		// removing the record still guarantees it is never served.
		os.Remove(path)
		dst = "(unpreserved: " + err.Error() + ")"
	}
	s.mQuarantined.Inc()
	s.opts.Tracer.Instant(obs.CatStore, obs.FactStoreCorrupt, key, obs.S("stage", "store"),
		obs.S("reason", fmt.Sprintf("record quarantined to %s: %v", dst, cause)))
}

// Len reports how many record files the store currently holds (corrupt
// ones included — they are only discovered on read).
func (s *Store) Len() int {
	ents, err := os.ReadDir(s.objs)
	if err != nil {
		return 0
	}
	n := 0
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".json") {
			n++
		}
	}
	return n
}

// VerifyProblem is one untrustworthy record found by Verify.
type VerifyProblem struct {
	Path   string `json:"path"`
	Reason string `json:"reason"`
}

// VerifyReport summarizes an offline scan.
type VerifyReport struct {
	Checked     int             `json:"checked"`
	OK          int             `json:"ok"`
	Problems    []VerifyProblem `json:"problems,omitempty"`
	Quarantined int             `json:"quarantined,omitempty"`
}

// Verify scans every record offline — envelope format, version, key
// binding, checksum — without serving anything. With quarantineBad set,
// untrustworthy records are moved to the sidecar directory like a failed
// Get would. Used by `jitbull store verify`.
func (s *Store) Verify(quarantineBad bool) (VerifyReport, error) {
	var rep VerifyReport
	ents, err := os.ReadDir(s.objs)
	if err != nil {
		return rep, fmt.Errorf("verify store: %w", err)
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".json") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	for _, name := range names {
		path := filepath.Join(s.objs, name)
		rep.Checked++
		key := strings.TrimSuffix(name, ".json")
		data, err := os.ReadFile(path)
		var derr error
		if err != nil {
			derr = err
		} else {
			_, derr = recordFormat.Unseal(path, key, data)
		}
		if derr == nil {
			rep.OK++
			continue
		}
		rep.Problems = append(rep.Problems, VerifyProblem{Path: path, Reason: derr.Error()})
		if quarantineBad {
			s.quarantine(path, key, derr)
			rep.Quarantined++
		}
	}
	return rep, nil
}
