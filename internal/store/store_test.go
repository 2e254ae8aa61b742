package store

import (
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/jitbull/jitbull/internal/faults"
	"github.com/jitbull/jitbull/internal/jitqueue"
	"github.com/jitbull/jitbull/internal/obs"
)

func testKey(b byte) jitqueue.Key {
	var k jitqueue.Key
	for i := range k {
		k[i] = b
	}
	return k
}

// open builds a store with silent backoff and full observability.
func open(t *testing.T, dir string, inj *faults.Injector) (*Store, *obs.Registry, *obs.AuditLog) {
	t.Helper()
	reg := obs.NewRegistry()
	audit := obs.NewAuditLog(nil)
	s, err := Open(dir, Options{
		Metrics: reg,
		Tracer:  obs.NewTracer(audit),
		Faults:  inj,
		Sleep:   func(time.Duration) {},
	})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return s, reg, audit
}

func payload(s string) []byte { return []byte(fmt.Sprintf(`{"v":1,"data":%q}`, s)) }

func TestStorePutGetRoundTripAndWarmReopen(t *testing.T) {
	dir := t.TempDir()
	s, reg, _ := open(t, dir, nil)
	k := testKey(1)

	if _, ok := s.Get(k); ok {
		t.Fatal("empty store served a record")
	}
	s.Put(k, payload("a"))
	got, ok := s.Get(k)
	if !ok || string(got) != string(payload("a")) {
		t.Fatalf("round trip: ok=%v got=%s", ok, got)
	}
	if reg.Counter("store.puts").Value() != 1 || reg.Counter("store.hits").Value() != 1 ||
		reg.Counter("store.misses").Value() != 1 {
		t.Errorf("counters: puts=%d hits=%d misses=%d",
			reg.Counter("store.puts").Value(), reg.Counter("store.hits").Value(),
			reg.Counter("store.misses").Value())
	}

	// The warm-start path: a fresh process (fresh Store) over the same
	// directory serves the record byte-identically.
	warm, _, _ := open(t, dir, nil)
	got2, ok := warm.Get(k)
	if !ok || string(got2) != string(got) {
		t.Fatalf("reopened store: ok=%v got=%s", ok, got2)
	}
	if warm.Len() != 1 {
		t.Errorf("Len = %d, want 1", warm.Len())
	}
}

func TestStoreQuarantinesHandCorruptedRecord(t *testing.T) {
	dir := t.TempDir()
	s, reg, audit := open(t, dir, nil)
	k := testKey(2)
	s.Put(k, payload("x"))

	// Flip a byte inside the record on disk.
	path := s.recordPath(k)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, ok := s.Get(k); ok {
		t.Fatal("corrupt record was served")
	}
	if reg.Counter("store.quarantined").Value() != 1 {
		t.Errorf("store.quarantined = %d, want 1", reg.Counter("store.quarantined").Value())
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("corrupt record still under its serving name")
	}
	ents, _ := os.ReadDir(s.QuarantineDir())
	if len(ents) != 1 {
		t.Fatalf("quarantine holds %d files, want 1", len(ents))
	}
	found := false
	for _, ev := range audit.Events() {
		if ev.Verdict == "quarantine" && strings.Contains(ev.Reason, "quarantined") {
			found = true
		}
	}
	if !found {
		t.Error("no quarantine audit event")
	}
	// Quarantined means gone: the next read is a clean miss, no re-quarantine.
	if _, ok := s.Get(k); ok {
		t.Fatal("quarantined record re-served")
	}
	if reg.Counter("store.quarantined").Value() != 1 {
		t.Error("miss after quarantine quarantined again")
	}
}

func TestStoreRejectsCrossLinkedRecord(t *testing.T) {
	dir := t.TempDir()
	s, reg, _ := open(t, dir, nil)
	a, b := testKey(3), testKey(4)
	s.Put(a, payload("a"))

	// Copy a's record file to b's name: the envelope's key binding must
	// refuse to serve it for b.
	data, err := os.ReadFile(s.recordPath(a))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.recordPath(b), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(b); ok {
		t.Fatal("cross-linked record served under the wrong key")
	}
	if reg.Counter("store.quarantined").Value() != 1 {
		t.Errorf("store.quarantined = %d, want 1", reg.Counter("store.quarantined").Value())
	}
	// The original stays intact and serving.
	if _, ok := s.Get(a); !ok {
		t.Fatal("original record lost")
	}
}

// TestStorePutFaultKinds drives every disk-fault kind through the put
// path and checks its modeled behavior plus 1:1 accounting.
func TestStorePutFaultKinds(t *testing.T) {
	for _, tc := range []struct {
		kind        faults.Kind
		fileExists  bool // record file present after the faulted put
		servedLater bool // a later Get succeeds
		quarantined bool // a later Get quarantines
	}{
		{faults.KindTornWrite, true, false, true},
		{faults.KindBitFlip, true, false, true},
		{faults.KindTruncate, true, false, true},
		{faults.KindENOSPC, false, false, false},
		{faults.KindError, false, false, false},
		{faults.KindPanic, false, false, false},
		{faults.KindStall, false, false, false},
	} {
		t.Run(string(tc.kind), func(t *testing.T) {
			inj := faults.NewInjector(7, faults.Rule{Point: faults.PointStorePut, Kind: tc.kind, Times: 1})
			s, reg, _ := open(t, t.TempDir(), inj)
			k := testKey(5)
			s.Put(k, payload("v"))

			if inj.FiredCount() != 1 {
				t.Fatalf("fault did not fire: %d", inj.FiredCount())
			}
			if got := reg.Counter("store.faults_injected").Value(); got != 1 {
				t.Errorf("store.faults_injected = %d, want 1 (1:1 accounting)", got)
			}
			if _, err := os.Stat(s.recordPath(k)); (err == nil) != tc.fileExists {
				t.Errorf("record file exists=%v, want %v", err == nil, tc.fileExists)
			}
			_, ok := s.Get(k)
			if ok != tc.servedLater {
				t.Errorf("later Get ok=%v, want %v", ok, tc.servedLater)
			}
			wantQ := int64(0)
			if tc.quarantined {
				wantQ = 1
			}
			if got := reg.Counter("store.quarantined").Value(); got != wantQ {
				t.Errorf("store.quarantined = %d, want %d", got, wantQ)
			}
			// Degradation is never sticky: a clean re-put serves again.
			s.Put(k, payload("v2"))
			if got, ok := s.Get(k); !ok || string(got) != string(payload("v2")) {
				t.Errorf("store did not recover after the fault: ok=%v got=%s", ok, got)
			}
		})
	}
}

func TestStoreTransientEIORetries(t *testing.T) {
	// One transient error, then clean: the bounded retry loop absorbs it
	// and the put lands.
	inj := faults.NewInjector(7, faults.Rule{Point: faults.PointStorePut, Kind: faults.KindEIO, Times: 1})
	s, reg, _ := open(t, t.TempDir(), inj)
	k := testKey(6)
	s.Put(k, payload("v"))
	if _, ok := s.Get(k); !ok {
		t.Fatal("retried put did not land")
	}
	if reg.Counter("store.retries").Value() != 1 {
		t.Errorf("store.retries = %d, want 1", reg.Counter("store.retries").Value())
	}
	if reg.Counter("store.put_drops").Value() != 0 {
		t.Error("absorbed transient error still dropped the put")
	}

	// Unlimited transient errors: the budget exhausts and the put drops —
	// bounded, never an infinite loop.
	inj2 := faults.NewInjector(7, faults.Rule{Point: faults.PointStorePut, Kind: faults.KindEIO})
	s2, reg2, _ := open(t, t.TempDir(), inj2)
	s2.Put(k, payload("v"))
	if _, err := os.Stat(s2.recordPath(k)); err == nil {
		t.Fatal("exhausted retries still wrote the record")
	}
	if reg2.Counter("store.put_drops").Value() != 1 {
		t.Errorf("store.put_drops = %d, want 1", reg2.Counter("store.put_drops").Value())
	}
	if got := reg2.Counter("store.faults_injected").Value(); got != int64(inj2.FiredCount()) {
		t.Errorf("accounting: store.faults_injected=%d, injector fired %d", got, inj2.FiredCount())
	}
}

func TestStoreGetFaultKinds(t *testing.T) {
	for _, tc := range []struct {
		kind        faults.Kind
		quarantined bool // read-side corruption must be caught + quarantined
	}{
		{faults.KindTornWrite, true},
		{faults.KindBitFlip, true},
		{faults.KindTruncate, true},
		{faults.KindENOSPC, false},
		{faults.KindError, false},
		{faults.KindPanic, false},
		{faults.KindStall, false},
		{faults.KindEIO, false}, // unlimited: exhausts the retry budget
	} {
		t.Run(string(tc.kind), func(t *testing.T) {
			inj := faults.NewInjector(11, faults.Rule{Point: faults.PointStoreGet, Kind: tc.kind})
			s, reg, audit := open(t, t.TempDir(), inj)
			k := testKey(7)
			s.Put(k, payload("v"))

			if _, ok := s.Get(k); ok {
				t.Fatalf("faulted get served a value (kind %s)", tc.kind)
			}
			if inj.FiredCount() == 0 {
				t.Fatal("fault did not fire")
			}
			if got := reg.Counter("store.faults_injected").Value(); got != int64(inj.FiredCount()) {
				t.Errorf("accounting: store.faults_injected=%d, injector fired %d", got, inj.FiredCount())
			}
			wantQ := int64(0)
			if tc.quarantined {
				wantQ = 1
			}
			if got := reg.Counter("store.quarantined").Value(); got != wantQ {
				t.Errorf("store.quarantined = %d, want %d", got, wantQ)
			}
			// Each quarantined record is one store-corrupt fact, audited as
			// a quarantine at the store stage.
			var quarantines int64
			for _, ev := range audit.Events() {
				if ev.Verdict == "quarantine" {
					quarantines++
					if ev.Stage != "store" || ev.Func != keyHex(k) {
						t.Errorf("quarantine audited as %+v, want stage store for %s", ev, keyHex(k))
					}
				}
			}
			if quarantines != wantQ {
				t.Errorf("%d quarantine audit event(s), want %d", quarantines, wantQ)
			}
		})
	}
}

func TestStoreRefusesNonJSONPayload(t *testing.T) {
	s, reg, _ := open(t, t.TempDir(), nil)
	s.Put(testKey(8), []byte("not json"))
	if s.Len() != 0 {
		t.Fatal("non-JSON payload was persisted")
	}
	if reg.Counter("store.put_drops").Value() != 1 {
		t.Errorf("store.put_drops = %d, want 1", reg.Counter("store.put_drops").Value())
	}
}

func TestVerifyReportsAndQuarantines(t *testing.T) {
	s, _, _ := open(t, t.TempDir(), nil)
	s.Put(testKey(1), payload("ok"))
	s.Put(testKey(2), payload("bad"))
	if err := os.WriteFile(s.recordPath(testKey(2)), []byte(`{"format":"x"}`), 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err := s.Verify(false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Checked != 2 || rep.OK != 1 || len(rep.Problems) != 1 || rep.Quarantined != 0 {
		t.Fatalf("report-only verify: %+v", rep)
	}
	if s.Len() != 2 {
		t.Error("report-only verify moved files")
	}

	rep, err = s.Verify(true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Quarantined != 1 || s.Len() != 1 {
		t.Fatalf("quarantining verify: %+v, Len=%d", rep, s.Len())
	}
	// The store is clean now.
	rep, _ = s.Verify(false)
	if rep.Checked != 1 || rep.OK != 1 || len(rep.Problems) != 0 {
		t.Fatalf("post-quarantine verify: %+v", rep)
	}
}

// TestGoldenStoreDirectoryVerifies pins the record envelope across the
// move to one shared implementation: testdata/golden_v2/store was
// populated by the commit before it (a go-verdict artifact and a NoJIT
// record, engine-record layout 2). Envelope v1 is still trusted — Verify
// passes every record and Get serves its payload bytes unchanged; what
// the engine codec makes of a layout-2 payload is difftest's
// TestStoreVersionSkewIsAMiss.
func TestGoldenStoreDirectoryVerifies(t *testing.T) {
	dir := t.TempDir()
	names, err := filepath.Glob("testdata/golden_v2/store/objects/*.json")
	if err != nil || len(names) != 2 {
		t.Fatalf("golden records: %v (err %v), want 2", names, err)
	}
	s, reg, _ := open(t, dir, nil)
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, objectsDir, filepath.Base(name)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := s.Verify(false)
	if err != nil || rep.Checked != 2 || rep.OK != 2 || len(rep.Problems) != 0 {
		t.Fatalf("verify of the golden directory: %+v, err %v", rep, err)
	}
	for _, name := range names {
		raw, err := hex.DecodeString(strings.TrimSuffix(filepath.Base(name), ".json"))
		if err != nil || len(raw) != len(jitqueue.Key{}) {
			t.Fatalf("record name %s is not a key", name)
		}
		got, ok := s.Get(jitqueue.Key(raw))
		if !ok || !strings.HasPrefix(string(got), `{"v":2,`) {
			t.Errorf("record %s: ok=%v payload %.40q, want the parent's layout-2 bytes", filepath.Base(name), ok, got)
		}
	}
	if n := reg.Counter("store.quarantined").Value(); n != 0 {
		t.Errorf("%d golden record(s) quarantined", n)
	}
}
