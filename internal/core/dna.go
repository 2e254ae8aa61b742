// Package core implements JITBULL, the paper's contribution: extraction of
// "JIT DNA" — the per-pass effects of the optimization pipeline on a JITed
// function's IR (Algorithm 1) — and comparison of a running function's DNA
// against the DNA of known vulnerability demonstrator codes (Algorithm 2),
// driving a go/no-go policy that disables matched optimization passes (or,
// when a matched pass is mandatory, JIT compilation of that function).
//
// Δs are sets of interned chain IDs (see Interner), compared through an
// inverted index compiled from the database (see MatchIndex), and only
// the passes the database fingerprints are extracted (Detector.Watches);
// reference_test.go retains the original string-based implementation,
// which the equivalence tests hold the fast path to.
package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"maps"
	"sync"
	"sync/atomic"
)

// Default comparator settings from §IV-E of the paper: at least Thr
// sub-chains in common, and at least Ratio of the maximum possible.
const (
	DefaultThr   = 3
	DefaultRatio = 0.5
)

// Delta is Δ_i^f: the effect of optimization pass i on function f's IR,
// expressed as the sets of removed (δ⁻) and added (δ⁺) dependency
// sub-chains. Chains are interned: Removed and Added are sorted sets of
// dense chain IDs; the "→"-joined string rendering (the IDs are renumbered
// between passes, so content — not numbering — is what identifies a chain)
// appears only in the JSON form, which is unchanged from earlier versions.
type Delta struct {
	Removed []uint32
	Added   []uint32
}

// deltaJSON is the serialized (and historical) form of a Delta.
type deltaJSON struct {
	Removed []string `json:"removed,omitempty"`
	Added   []string `json:"added,omitempty"`
}

// MarshalJSON renders the chain sets as lexicographically sorted strings.
func (d Delta) MarshalJSON() ([]byte, error) {
	return json.Marshal(deltaJSON{Removed: ChainStrings(d.Removed), Added: ChainStrings(d.Added)})
}

// UnmarshalJSON interns the string chains of the serialized form.
func (d *Delta) UnmarshalJSON(data []byte) error {
	var j deltaJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	d.Removed = InternChains(j.Removed)
	d.Added = InternChains(j.Added)
	return nil
}

// MakeDelta interns string chain sets into a Delta (tools and tests; the
// extractor produces interned deltas directly).
func MakeDelta(removed, added []string) Delta {
	return Delta{Removed: InternChains(removed), Added: InternChains(added)}
}

// Empty reports whether the pass had no observable effect.
func (d Delta) Empty() bool { return len(d.Removed) == 0 && len(d.Added) == 0 }

// DNA is Δ^f = (Δ_1^f ... Δ_n^f) for one JITed function. Passes with an
// empty delta are omitted (they can never reach the comparison threshold).
type DNA struct {
	FuncName string           `json:"func"`
	Passes   map[string]Delta `json:"passes"`
}

// VDC is the stored fingerprint of one vulnerability demonstrator code:
// the DNA of every function the demonstrator got JIT-compiled.
type VDC struct {
	CVE  string `json:"cve"`
	DNAs []DNA  `json:"dnas"`
}

// Database is the JITBULL VDC DNA database. Entries are installed when a
// vulnerability is reported and removed when its patch ships. The zero
// value is an empty, usable database. Mutations (Add/Remove) must not run
// concurrently with use, but a fully built database may be shared by many
// detectors across goroutines: reads are lock-free and the compiled match
// index is built once under an internal lock.
type Database struct {
	VDCs []VDC `json:"vdcs"`

	// failSafe marks a stand-in for a database that could not be loaded
	// (corrupt, unreadable, invalid): the detector's verdict over it is
	// NoJIT for every function. See NewFailSafeDatabase.
	failSafe bool

	// indexes is the compiled-index cache, keyed by the Thr the index was
	// pruned for and invalidated wholesale on any mutation. Readers load it
	// without a lock; mu serializes the builds, each of which publishes a
	// new map.
	mu      sync.Mutex
	indexes atomic.Pointer[map[int]*MatchIndex]

	// gen identifies this database's current contents for cross-engine
	// verdict caching: process-unique, assigned lazily on first use and
	// re-assigned on every mutation. See Generation.
	gen atomic.Uint64

	// fp caches the content fingerprint (see Fingerprint); 0 = not yet
	// computed, cleared on every mutation.
	fp atomic.Uint64
}

// dbGen is the process-wide generation allocator; 0 is reserved for
// "not yet assigned".
var dbGen atomic.Uint64

// Generation returns a process-unique identifier of this database
// instance and its current contents. Unlike the raw pointer, a generation
// is never reused: a different database — or this database after an
// Add/Remove — always reports a different value, so a verdict cached
// against an earlier database can never be replayed against a later one.
// Safe for concurrent use by fully built (no longer mutating) databases.
func (db *Database) Generation() uint64 {
	for {
		if g := db.gen.Load(); g != 0 {
			return g
		}
		db.gen.CompareAndSwap(0, dbGen.Add(1))
	}
}

// Fingerprint returns a content-addressed identity of the database: a
// digest of its serialized VDC fingerprints, stable across processes and
// across structurally identical copies. This is what the persistent
// verdict store keys on — a verdict is a deterministic function of (DNA,
// database contents, thresholds), so two databases with equal contents
// may soundly share cached verdicts even across a restart, which the
// process-unique Generation cannot express. Any Add/Remove moves the
// database to a fresh fingerprint. Safe for concurrent use by fully
// built (no longer mutating) databases.
func (db *Database) Fingerprint() (fp uint64) {
	// A dangling chain ID panics inside Delta.MarshalJSON; such a database
	// has no trustworthy identity (Validate rejects it on every persistence
	// path), so degrade to the process-unique generation.
	defer func() {
		if recover() != nil {
			fp = db.Generation()
		}
	}()
	for {
		if f := db.fp.Load(); f != 0 {
			return f
		}
		payload, err := json.Marshal(db.VDCs)
		if err != nil {
			// A database that cannot serialize (dangling chain IDs) has no
			// trustworthy identity; Validate rejects it on every persistence
			// path. Degrade to the process-unique generation.
			return db.Generation()
		}
		sum := sha256.Sum256(payload)
		f := binary.LittleEndian.Uint64(sum[:8]) | 1 // 0 is reserved
		db.fp.CompareAndSwap(0, f)
	}
}

// NewFailSafeDatabase returns the database substituted when the real one
// cannot be trusted: it matches nothing but drives the policy to NoJIT
// for every compilation, so a corrupted database degrades to "JIT
// disabled" rather than "protection silently off" — the same conservative
// direction the paper's scenario 3 takes for unpatchable matches.
func NewFailSafeDatabase() *Database { return &Database{failSafe: true} }

// FailSafe reports whether this is a fail-safe stand-in database.
func (db *Database) FailSafe() bool { return db.failSafe }

// mutated invalidates the compiled-index cache and moves the database to
// a fresh generation, invalidating any cached verdicts keyed to the old
// contents.
func (db *Database) mutated() {
	db.mu.Lock()
	db.indexes.Store(nil)
	db.mu.Unlock()
	db.gen.Store(dbGen.Add(1))
	db.fp.Store(0)
}

// Add installs (or replaces) the fingerprint for a CVE.
func (db *Database) Add(v VDC) {
	db.Remove(v.CVE)
	db.VDCs = append(db.VDCs, v)
	db.mutated()
}

// Remove deletes the fingerprint for a CVE (the patch was applied).
// It reports whether an entry was present.
func (db *Database) Remove(cve string) bool {
	for i, v := range db.VDCs {
		if v.CVE == cve {
			db.VDCs = append(db.VDCs[:i], db.VDCs[i+1:]...)
			db.mutated()
			return true
		}
	}
	return false
}

// Size returns the number of installed VDC fingerprints.
func (db *Database) Size() int { return len(db.VDCs) }

// CVEs lists the installed CVE identifiers in order.
func (db *Database) CVEs() []string {
	out := make([]string, len(db.VDCs))
	for i, v := range db.VDCs {
		out[i] = v.CVE
	}
	return out
}

// Index returns the compiled inverted match index for the given Thr,
// building and caching it on first use. Safe for concurrent use; once
// built, an index is returned without taking a lock, so the engines and
// compile workers sharing one database do not contend for it.
func (db *Database) Index(thr int) *MatchIndex {
	if m := db.indexes.Load(); m != nil {
		if ix, ok := (*m)[thr]; ok {
			return ix
		}
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	next := map[int]*MatchIndex{}
	if m := db.indexes.Load(); m != nil {
		if ix, ok := (*m)[thr]; ok {
			return ix
		}
		maps.Copy(next, *m)
	}
	ix := buildMatchIndex(db, thr)
	next[thr] = ix
	db.indexes.Store(&next)
	return ix
}

// Persistence (Save, LoadDatabase and the checksummed on-disk envelope)
// lives in persist.go; structural validation in validate.go.
