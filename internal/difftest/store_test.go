package difftest

import (
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/jitbull/jitbull/internal/engine"
	"github.com/jitbull/jitbull/internal/jitqueue"
	"github.com/jitbull/jitbull/internal/obs"
	"github.com/jitbull/jitbull/internal/progen"
	"github.com/jitbull/jitbull/internal/store"
	"github.com/jitbull/jitbull/internal/vulndb"
)

// TestStoreWarmStartBitIdentical is the kill/restart acceptance cell:
// run, "kill" the process (drop engine + memory cache), restart over the
// surviving store directory, and require zero pipeline runs with
// bit-identical results, steps and audit verdicts.
func TestStoreWarmStartBitIdentical(t *testing.T) {
	for _, tc := range []struct {
		name string
		o    WarmStartOptions
	}{
		{"plain", WarmStartOptions{}},
		{"jitbull", WarmStartOptions{JITBULL: true}},
		{"jitbull+osr+deopt", WarmStartOptions{JITBULL: true, OSR: true, Speculate: true}},
		{"jitbull+snapshot", WarmStartOptions{JITBULL: true, Snapshot: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := progen.Generate(401, progen.Options{})
			res, err := StoreWarmStart(src, t.TempDir(), tc.o)
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
		Fused       bool                   `json:"fused"`
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
		"jit_eligible": rec.JitEligible, "fused": rec.Fused,
		"verdict": map[string]any{"matches": matches, "names": d.DisabledPasses, "nojit": d.NoJIT},
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

// TestStoreVersionSkewIsAMiss: a store directory written by the previous
// engine-record layout sits under valid envelopes, so the store serves the
// bytes; the codec refuses them, the cache reports a miss, the function
// compiles cold to the same verdict, and the write-through replaces the
// old record of that key and nothing else. Skew is not corruption: nothing
// is quarantined.
func TestStoreVersionSkewIsAMiss(t *testing.T) {
	v := vulndb.All()[0]
	base := engine.Config{Bugs: v.Bug(), MaxSteps: 200_000_000}
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cold := storeProcess(v.Demonstrator, base, st, true)
	if cs := cold.Obs.Stats; cs.Compiles == 0 || cs.NrDisJIT+cs.NrNoJIT == 0 {
		t.Fatalf("cold process reached no disable-pass or NoJIT verdict: %+v", cs)
	}
	keys := storeKeys(t, dir)
	if len(keys) == 0 {
		t.Fatal("cold process persisted nothing")
	}
	for _, k := range keys {
		data, ok := st.Get(k)
		if !ok {
			t.Fatalf("record %x unreadable", k)
		}
		st.Put(k, recordV1(t, data))
	}
	// A record no compilation of this program asks for.
	bystander := jitqueue.Key{0xb5}
	st.Put(bystander, []byte(`{"v":1,"nojit":true,"verdict":{"nojit":true}}`))
	bystanderPath := filepath.Join(dir, "objects", hex.EncodeToString(bystander[:])+".json")
	before, err := os.ReadFile(bystanderPath)
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	skewed, err := store.Open(dir, store.Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	run := storeProcess(v.Demonstrator, base, skewed, true)
	cell := Config{Name: "store+skew", Twin: "store+cold"}
	for _, d := range append(compare(cell, run.Obs, cold.Obs, cell.Twin), compareTwin(cell, run.Obs, cold.Obs)...) {
		t.Error(d)
	}
	if rs, cs := run.Obs.Stats, cold.Obs.Stats; rs.CacheHits != 0 || rs.CacheMisses != cs.CacheMisses || rs.Compiles != cs.Compiles {
		t.Errorf("skewed records were not plain misses: %+v, cold %+v", rs, cs)
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
	healed := storeProcess(v.Demonstrator, base, skewed, true)
	if hs := healed.Obs.Stats; hs.Compiles != 0 || hs.CacheHits == 0 {
		t.Errorf("process after the skewed one still compiled: %+v", hs)
	}
}

// TestStoreChaosCampaign sweeps one full point×kind grid (short mode)
// or several (long mode) and requires every invariant to hold.
func TestStoreChaosCampaign(t *testing.T) {
	runs := 24 // one full 3-point × 8-kind sweep
	if !testing.Short() {
		runs = 72
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
