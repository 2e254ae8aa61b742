package difftest

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/jitbull/jitbull/internal/core"
	"github.com/jitbull/jitbull/internal/engine"
	"github.com/jitbull/jitbull/internal/jitqueue"
	"github.com/jitbull/jitbull/internal/obs"
	"github.com/jitbull/jitbull/internal/passes"
	"github.com/jitbull/jitbull/internal/progen"
	"github.com/jitbull/jitbull/internal/store"
	"github.com/jitbull/jitbull/internal/vulndb"
)

// TestStoreWarmStartBitIdentical is the kill/restart acceptance cell:
// run, "kill" the process (drop engine + memory cache), restart over the
// surviving store directory, and require zero pipeline runs with
// bit-identical results, steps and audit verdicts.
func TestStoreWarmStartBitIdentical(t *testing.T) {
	generated := progen.Generate(401, progen.Options{})
	for _, tc := range []struct {
		name string
		src  string
		o    WarmStartOptions
	}{
		{"plain", generated, WarmStartOptions{}},
		{"jitbull", generated, WarmStartOptions{JITBULL: true}},
		{"jitbull+osr+deopt", generated, WarmStartOptions{JITBULL: true, OSR: true, Speculate: true}},
		// An OSR entry that rematerialises +Inf: a float JSON has no number
		// for, which once kept the artifact out of the store for good.
		{"osr+nonfinite-const", nonFiniteConstLoop, WarmStartOptions{OSR: true, IonThreshold: 100}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := StoreWarmStart(tc.src, t.TempDir(), tc.o)
			if err != nil {
				t.Fatalf("warm start: %v", err)
			}
			for _, d := range res.Divergences {
				t.Error(d)
			}
			if t.Failed() {
				t.Logf("cold stats: %+v", res.Cold.Obs.Stats)
				t.Logf("warm stats: %+v", res.Warm.Obs.Stats)
			}
		})
	}
}

const nonFiniteConstLoop = `
function f(n) {
  var s = 0;
  var i = 0;
  while (i < n) {
    if (s > 1 / 0) { s = 0; }
    s = s + i;
    i = i + 1;
  }
  return s;
}
var result = f(5000);
`

// TestStoreWarmStartAcrossPrograms pins key soundness through the store:
// different programs over one store directory never cross-serve records.
func TestStoreWarmStartAcrossPrograms(t *testing.T) {
	dir := t.TempDir()
	for i, seed := range []int64{402, 403, 404} {
		src := progen.Generate(seed, progen.Options{})
		res, err := StoreWarmStart(src, dir+"/p"+string(rune('0'+i)), WarmStartOptions{JITBULL: true})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, d := range res.Divergences {
			t.Errorf("seed %d: %s", seed, d)
		}
	}
}

// storeKeys lists the keys of the records under dir/objects.
func storeKeys(t *testing.T, dir string) []jitqueue.Key {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "objects", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	var keys []jitqueue.Key
	for _, name := range names {
		raw, err := hex.DecodeString(strings.TrimSuffix(filepath.Base(name), ".json"))
		if err != nil || len(raw) != len(jitqueue.Key{}) {
			t.Fatalf("record name %s is not a key", name)
		}
		keys = append(keys, jitqueue.Key(raw))
	}
	return keys
}

// recordV1 renders an engine record in the layout of persistVersion 1 —
// verdict flags beside the detector's own bytes, a witness chain as text
// plus a has_chain bit — from the current one.
func recordV1(t *testing.T, data []byte) []byte {
	t.Helper()
	var rec struct {
		Decision    engine.CompileDecision `json:"decision"`
		JitEligible bool                   `json:"jit_eligible"`
		Code        json.RawMessage        `json:"code"`
	}
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	d := rec.Decision
	var matches []map[string]any
	for _, m := range d.Matches {
		matches = append(matches, map[string]any{"cve": m.CVE, "vdc_func": m.VDCFunc, "pass": m.Pass,
			"chain": m.Chain, "has_chain": m.Chain != "", "side": m.Side})
	}
	v1 := map[string]any{
		"v": 1, "nojit": d.NoJIT, "grew": !d.NoJIT && len(d.DisabledPasses) > 0, "disabled": d.DisabledPasses,
		"jit_eligible": rec.JitEligible,
		"verdict":      map[string]any{"matches": matches, "names": d.DisabledPasses, "nojit": d.NoJIT},
	}
	if rec.Code != nil {
		v1["code"] = rec.Code
	}
	out, err := json.Marshal(v1)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestStoreVersionSkewIsAMiss: a store directory written by an earlier
// engine-record layout sits under valid envelopes, so the store serves the
// bytes; the codec refuses them, the cache reports a miss, the function
// compiles cold to the same verdict, and the write-through replaces the
// old record of that key and nothing else. Skew is not corruption: nothing
// is quarantined. Layout 1 is rendered from current records; layout 2 is
// the real thing — internal/store/testdata/golden_v2, written by the last
// commit that spoke it (a go-verdict artifact and a NoJIT record).
func TestStoreVersionSkewIsAMiss(t *testing.T) {
	t.Run("v1", func(t *testing.T) {
		v := vulndb.All()[0]
		base := engine.Config{Bugs: v.Bug(), MaxSteps: 200_000_000}
		dir := t.TempDir()
		st, err := store.Open(dir, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		cold := storeProcess(v.Demonstrator, base, st, true)
		for _, k := range storeKeys(t, dir) {
			data, ok := st.Get(k)
			if !ok {
				t.Fatalf("record %x unreadable", k)
			}
			st.Put(k, recordV1(t, data))
		}
		skewedStoreIsAMiss(t, v.Demonstrator, base, dir, cold)
	})
	t.Run("v2-golden", func(t *testing.T) {
		const golden = "../store/testdata/golden_v2"
		src, err := os.ReadFile(filepath.Join(golden, "program.js"))
		if err != nil {
			t.Fatal(err)
		}
		base := engine.Config{Bugs: vulndb.All()[3].Bug(), MaxSteps: 200_000_000}
		ref, err := store.Open(t.TempDir(), store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		cold := storeProcess(string(src), base, ref, true)
		if cs := cold.Obs.Stats; cs.NrNoJIT != 1 || cs.NrJIT != 2 {
			t.Fatalf("the golden program no longer reaches one go and one NoJIT verdict: %+v", cs)
		}
		dir := goldenStore(t, golden, ref.Dir())
		skewedStoreIsAMiss(t, string(src), base, dir, cold)
	})
}

// goldenStore copies the records of golden/store into a fresh directory
// and returns it. The golden records must be the ones the program asks
// for — the keys it compiled under in the store at want — or the test
// proves nothing: a change to what a compilation is keyed on has to
// re-key the files (name and "key" line; the CRC covers the payload only).
func goldenStore(t *testing.T, golden, want string) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "objects"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, k := range storeKeys(t, filepath.Join(golden, "store")) {
		name := filepath.Join("objects", hex.EncodeToString(k[:])+".json")
		data, err := os.ReadFile(filepath.Join(golden, "store", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := storeKeys(t, dir), storeKeys(t, want); !reflect.DeepEqual(got, want) {
		t.Fatalf("golden records are keyed %x, the program compiles under %x", got, want)
	}
	return dir
}

// TestStoreLayout3GoldenIsServed: internal/store/testdata/golden_v3 holds
// layout-3 records of golden_v2's program, written while a match still
// carried its witness's interner ID ("chain_id") beside the witness text.
// They need no new layout: every record is served as a hit, nothing
// compiles, and the verdicts, audit decisions and witness texts equal a
// cold run's. goldenStore's key check holds the database fingerprint, and
// so every record key, where the writer left it.
func TestStoreLayout3GoldenIsServed(t *testing.T) {
	src, err := os.ReadFile("../store/testdata/golden_v2/program.js")
	if err != nil {
		t.Fatal(err)
	}
	base := engine.Config{Bugs: vulndb.All()[3].Bug(), MaxSteps: 200_000_000}
	ref, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cold := storeProcess(string(src), base, ref, true)
	dir := goldenStore(t, "../store/testdata/golden_v3", ref.Dir())
	reg := obs.NewRegistry()
	st, err := store.Open(dir, store.Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	run := storeProcess(string(src), base, st, true)

	for _, d := range compare(Config{Name: "store+golden-v3"}, run.Obs, cold.Obs, "store+cold") {
		t.Error(d)
	}
	rs, cs := run.Obs.Stats, cold.Obs.Stats
	if rs.Compiles != 0 || rs.CacheMisses != 0 || rs.CacheHits != cs.CacheMisses {
		t.Errorf("the layout-3 records were not all hits: %+v, cold %+v", rs, cs)
	}
	if n, keys := reg.Counter("store.hits").Value(), storeKeys(t, dir); n != int64(len(keys)) {
		t.Errorf("the store served %d of the %d golden records", n, len(keys))
	}
	if rs.NrJIT != cs.NrJIT || rs.NrDisJIT != cs.NrDisJIT || rs.NrNoJIT != cs.NrNoJIT {
		t.Errorf("verdicts jit/disjit/nojit = %d/%d/%d, cold %d/%d/%d",
			rs.NrJIT, rs.NrDisJIT, rs.NrNoJIT, cs.NrJIT, cs.NrDisJIT, cs.NrNoJIT)
	}
	if len(run.Audit) != len(cold.Audit) {
		t.Fatalf("%d audit events, cold process had %d", len(run.Audit), len(cold.Audit))
	}
	witnesses := 0
	for i := range run.Audit {
		got, want := auditIdentity(run.Audit[i]), auditIdentity(cold.Audit[i])
		if !reflect.DeepEqual(got, want) {
			t.Errorf("audit event %d = %s, want %s", i, got, want)
		}
		for _, m := range got.Matches {
			if m.Chain != "" {
				witnesses++
			}
		}
	}
	if witnesses == 0 {
		t.Fatal("no replayed verdict named a witness: the test pins nothing")
	}
}

// idWitnessDetector stands for a detector from before the witness rule
// was part of the policy key: it keys its verdicts as that detector did
// and, as the smallest-chain-ID witness could, names a witness the
// current rule does not.
type idWitnessDetector struct{ *core.Detector }

func (d idWitnessDetector) PolicyCacheKey() (string, bool) {
	return fmt.Sprintf("core.Detector/db=%016x/thr=%d/ratio=%g", d.DB.Fingerprint(), d.Thr, d.Ratio), true
}

func (d idWitnessDetector) BeginCompile(fn string) (passes.Observer, func() engine.CompileDecision) {
	observe, finish := d.Detector.BeginCompile(fn)
	return observe, func() engine.CompileDecision {
		dec := finish()
		dec.Matches = slices.Clone(dec.Matches)
		for i := range dec.Matches {
			if dec.Matches[i].Chain != "" {
				dec.Matches[i].Chain = "stale→witness"
			}
		}
		return dec
	}
}

// TestStoreRecordsOfTheIDWitnessRuleMiss: a store written while a
// match's witness was the smallest chain ID holds verdicts under
// witnesses a fresh decision may not name. The policy key names the
// witness rule, so such records are never replayed: the process compiles
// cold, to the witnesses of a process over an empty store.
func TestStoreRecordsOfTheIDWitnessRuleMiss(t *testing.T) {
	v := vulndb.All()[0]
	base := engine.Config{Bugs: v.Bug(), MaxSteps: 200_000_000}
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	old := Config{Name: "store+id-witness", Engine: base}
	old.Engine.Cache = jitqueue.NewCache(nil)
	old.Engine.Cache.AttachTier(st, engine.NewCacheCodec())
	old.Policy = func() engine.Policy { return idWitnessDetector{storeDetector()} }
	Observe(v.Demonstrator, old)
	if len(storeKeys(t, dir)) == 0 {
		t.Fatal("the older detector stored no verdicts")
	}

	empty, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cold := storeProcess(v.Demonstrator, base, empty, true)
	run := storeProcess(v.Demonstrator, base, st, true)
	if rs, cs := run.Obs.Stats, cold.Obs.Stats; rs.CacheHits != cs.CacheHits || rs.Compiles != cs.Compiles {
		t.Errorf("records of the older witness rule were served: %+v, cold %+v", rs, cs)
	}
	witnesses := 0
	if len(run.Audit) != len(cold.Audit) {
		t.Fatalf("%d audit events, cold process had %d", len(run.Audit), len(cold.Audit))
	}
	for i := range run.Audit {
		for _, m := range cold.Audit[i].Matches {
			if m.Chain != "" {
				witnesses++
			}
		}
		if got, want := run.Audit[i], cold.Audit[i]; got.Reason != want.Reason || !reflect.DeepEqual(auditIdentity(got), auditIdentity(want)) {
			t.Errorf("audit event %d = %s (%s), want %s (%s)", i, auditIdentity(got), got.Reason, auditIdentity(want), want.Reason)
		}
	}
	if witnesses == 0 {
		t.Fatal("no verdict named a witness: the test pins nothing")
	}
}

// skewedStoreIsAMiss runs src over dir, whose every record is of an
// engine-record layout the codec no longer reads, and holds the process to
// cold — the same program's run over an empty store.
func skewedStoreIsAMiss(t *testing.T, src string, base engine.Config, dir string, cold WarmStartRun) {
	t.Helper()
	if cs := cold.Obs.Stats; cs.Compiles == 0 || cs.NrDisJIT+cs.NrNoJIT == 0 {
		t.Fatalf("cold process reached no disable-pass or NoJIT verdict: %+v", cs)
	}
	keys := storeKeys(t, dir)
	if len(keys) == 0 {
		t.Fatal("no skewed records to serve")
	}
	reg := obs.NewRegistry()
	skewed, err := store.Open(dir, store.Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	// A record no compilation of this program asks for.
	bystander := jitqueue.Key{0xb5}
	skewed.Put(bystander, []byte(`{"v":1,"nojit":true,"verdict":{"nojit":true}}`))
	bystanderPath := filepath.Join(dir, "objects", hex.EncodeToString(bystander[:])+".json")
	before, err := os.ReadFile(bystanderPath)
	if err != nil {
		t.Fatal(err)
	}

	run := storeProcess(src, base, skewed, true)
	cell := Config{Name: "store+skew", Twin: "store+cold"}
	for _, d := range append(compare(cell, run.Obs, cold.Obs, cell.Twin), compareTwin(cell, run.Obs, Config{Name: cell.Twin}, cold.Obs)...) {
		t.Error(d)
	}
	if rs, cs := run.Obs.Stats, cold.Obs.Stats; rs.CacheHits != 0 || rs.CacheMisses != cs.CacheMisses || rs.Compiles != cs.Compiles {
		t.Errorf("skewed records were not plain misses: %+v, cold %+v", rs, cs)
	}
	if n := reg.Counter("store.hits").Value(); n != int64(len(keys)) {
		t.Errorf("the store served %d of the %d skewed records: they must reach the codec to be refused by it", n, len(keys))
	}
	if len(run.Audit) != len(cold.Audit) {
		t.Fatalf("%d audit events, cold process had %d", len(run.Audit), len(cold.Audit))
	}
	for i := range run.Audit {
		got, want := auditIdentity(run.Audit[i]), auditIdentity(cold.Audit[i])
		got.Reason, want.Reason = run.Audit[i].Reason, cold.Audit[i].Reason // a cold verdict, not a replay
		if !reflect.DeepEqual(got, want) {
			t.Errorf("audit event %d = %s, want %s", i, got, want)
		}
	}
	if n := reg.Counter("store.quarantined").Value(); n != 0 {
		t.Errorf("%d record(s) quarantined: version skew is not corruption", n)
	}
	if after, err := os.ReadFile(bystanderPath); err != nil || string(after) != string(before) {
		t.Errorf("a record no compilation asked for was touched (err %v)", err)
	}
	if got := storeKeys(t, dir); len(got) != len(keys)+1 {
		t.Errorf("store holds %d records, want %d", len(got), len(keys)+1)
	}
	for _, k := range keys {
		data, ok := skewed.Get(k)
		if _, err := engine.NewCacheCodec().Decode(data); !ok || err != nil {
			t.Errorf("record %x was not replaced by a current one: ok=%v err=%v", k, ok, err)
		}
	}

	// The directory is healed: the next process is fully warm.
	healed := storeProcess(src, base, skewed, true)
	if hs := healed.Obs.Stats; hs.Compiles != 0 || hs.CacheHits == 0 {
		t.Errorf("process after the skewed one still compiled: %+v", hs)
	}
}

// TestStoreChaosCampaign sweeps one full point×kind grid (short mode)
// or several (long mode) and requires every invariant to hold.
func TestStoreChaosCampaign(t *testing.T) {
	runs := 16 // one full 2-point × 8-kind sweep
	if !testing.Short() {
		runs = 48
	}
	res := StoreChaos(StoreChaosOptions{Seed: 900, Runs: runs, Dir: t.TempDir()})
	if res.FaultsFired == 0 {
		t.Fatal("campaign fired no faults — the store boundary was never exercised")
	}
	for _, f := range res.Failures {
		t.Error(f.String())
	}
	t.Log(res.Summary())
}

// TestStoreChaosReplayIsDeterministic replays one faulted run and
// requires the identical fired-fault count — the reproducer contract.
func TestStoreChaosReplayIsDeterministic(t *testing.T) {
	o := StoreChaosOptions{Seed: 901, Runs: 6, Dir: t.TempDir()}
	res := StoreChaos(o)
	if len(res.Failures) != 0 {
		t.Fatalf("campaign failed: %v", res.Failures)
	}
	// Re-run one cell by hand and compare fired counts.
	f := ChaosFailure{RunSeed: o.Seed + 2, Plan: storeChaosPlan(2, o.Seed+2), Program: progenAt(o.Seed + 2)}
	fired1, fail1 := StoreChaosReplay(f, t.TempDir(), o)
	fired2, fail2 := StoreChaosReplay(f, t.TempDir(), o)
	if fired1 != fired2 || (fail1 == nil) != (fail2 == nil) {
		t.Errorf("replay diverged: fired %d/%d, fail %v/%v", fired1, fired2, fail1, fail2)
	}
}

func progenAt(seed int64) string { return progen.Generate(seed, progen.Options{}) }
