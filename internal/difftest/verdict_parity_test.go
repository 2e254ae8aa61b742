package difftest

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/jitbull/jitbull/internal/core"
	"github.com/jitbull/jitbull/internal/engine"
	"github.com/jitbull/jitbull/internal/jitqueue"
	"github.com/jitbull/jitbull/internal/obs"
	"github.com/jitbull/jitbull/internal/octane"
	"github.com/jitbull/jitbull/internal/passes"
	"github.com/jitbull/jitbull/internal/store"
	"github.com/jitbull/jitbull/internal/vulndb"
)

var updateVerdictParity = flag.Bool("update-verdict-parity", false, "rewrite testdata/verdict_parity.json from this tree's outputs")

// testdata/verdict_parity.json was written by this test at the last commit
// whose engine fetched the verdict from the detector after finish() as an
// opaque payload and whose store codec needed the detector to translate
// it. Only the codec's construction and the rendering of a
// Detector.Matches entry's chain (a method there, a field here) differ
// from the test that wrote it.

// verdictParityRun is what one run's go/no-go decisions reduce to once
// sequence numbers, wall time and the process-local chain IDs are
// stripped: the audit trail, the detector's match accounting and the
// engine's verdict counters.
type verdictParityRun struct {
	Audit     []string `json:"audit"`   // auditIdentity + Reason, one line per event
	Matches   []string `json:"matches"` // Detector.Matches in order
	NrJIT     int      `json:"nr_jit"`
	NrDisJIT  int      `json:"nr_disjit"`
	NrNoJIT   int      `json:"nr_nojit"`
	CacheHits int      `json:"cache_hits"`
}

// parityMatch renders one match with its witness chain by text; id is
// checked against the text instead of recorded (it is process-local).
func parityMatch(t *testing.T, cve, vdcFunc, pass, side, chain string, id uint32) string {
	t.Helper()
	if id == core.NoChain {
		chain = "<none>"
	} else if got := core.ChainString(id); got != chain {
		t.Errorf("match %s %s/%s: chain id %d renders %q, the match carries %q", cve, vdcFunc, pass, id, got, chain)
	}
	return fmt.Sprintf("%s %s/%s %s %s", cve, vdcFunc, pass, side, chain)
}

// verdictParityProcess is one simulated process of the scenario: a fresh
// engine and detector over the given memory cache.
func verdictParityProcess(t *testing.T, src string, bugs passes.BugSet, db *core.Database, cache *jitqueue.Cache) verdictParityRun {
	t.Helper()
	audit := obs.NewAuditLog(nil)
	det := core.NewDetector(db)
	det.Audit = audit
	o := Observe(src, Config{
		Name:   "verdict-parity",
		Engine: engine.Config{Bugs: bugs, Cache: cache, MaxSteps: 200_000_000},
		Policy: func() engine.Policy { return det },
	})
	if o.SetupErr != "" {
		t.Fatalf("setup: %s", o.SetupErr)
	}
	run := verdictParityRun{
		NrJIT:     o.Stats.NrJIT,
		NrDisJIT:  o.Stats.NrDisJIT,
		NrNoJIT:   o.Stats.NrNoJIT,
		CacheHits: o.Stats.CacheHits,
	}
	for _, ev := range audit.Events() {
		id := auditIdentity(ev)
		var ms []string
		for _, m := range id.Matches {
			ms = append(ms, parityMatch(t, m.CVE, m.VDCFunc, m.Pass, m.Side, m.Chain, m.ChainID))
		}
		run.Audit = append(run.Audit, fmt.Sprintf("%s %s disabled=%v matches=%q reason=%q",
			id.Verdict, id.Func, id.DisabledPasses, ms, ev.Reason))
	}
	for _, m := range det.Matches {
		run.Matches = append(run.Matches, parityMatch(t, m.CVE, m.VDCFunc, m.Pass, m.Side, m.Chain, m.ChainID))
	}
	return run
}

// TestVerdictParity pins the three ways a verdict reaches an engine — a
// live decision, a replay from the memory cache, a replay from the store
// in a process that never saw the decision made — for every demonstrator
// under DB #8 and for two benign programs.
func TestVerdictParity(t *testing.T) {
	db, bugs, err := vulndb.BuildDB(8, 0)
	if err != nil {
		t.Fatal(err)
	}
	type scenario struct {
		name   string
		src    string
		bugs   passes.BugSet
		goOnly bool
	}
	var scenarios []scenario
	for _, v := range vulndb.All() {
		scenarios = append(scenarios, scenario{name: v.CVE, src: v.Demonstrator, bugs: v.Bug()})
	}
	for _, name := range []string{"Richards", "Gbemu"} {
		b, err := octane.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		scenarios = append(scenarios, scenario{name: name, src: b.Source(1), bugs: bugs, goOnly: true})
	}

	got := map[string]map[string]verdictParityRun{}
	for _, sc := range scenarios {
		dir := t.TempDir()
		open := func() *jitqueue.Cache {
			st, err := store.Open(dir, store.Options{})
			if err != nil {
				t.Fatal(err)
			}
			cache := jitqueue.NewCache(nil)
			cache.AttachTier(st, engine.NewCacheCodec())
			return cache
		}
		cache := open()
		runs := map[string]verdictParityRun{
			"cold":        verdictParityProcess(t, sc.src, sc.bugs, db, cache),
			"warm-memory": verdictParityProcess(t, sc.src, sc.bugs, db, cache),
			"warm-store":  verdictParityProcess(t, sc.src, sc.bugs, db, open()),
		}
		cold := runs["cold"]
		if cold.NrJIT == 0 {
			t.Errorf("%s: nothing compiled — the scenario pins nothing", sc.name)
		}
		if sc.goOnly && (cold.NrDisJIT != 0 || cold.NrNoJIT != 0 || len(cold.Matches) != 0) {
			t.Errorf("%s: want go verdicts only, got %+v", sc.name, cold)
		}
		if !sc.goOnly && len(cold.Matches) == 0 {
			t.Errorf("%s: the demonstrator matched nothing", sc.name)
		}
		for _, warm := range []string{"warm-memory", "warm-store"} {
			if runs[warm].CacheHits == 0 {
				t.Errorf("%s: %s run had no cache hits", sc.name, warm)
			}
		}
		got[sc.name] = runs
	}

	path := filepath.Join("testdata", "verdict_parity.json")
	if *updateVerdictParity {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]map[string]verdictParityRun{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(scenarios) {
		t.Errorf("golden holds %d scenarios, the test runs %d", len(want), len(scenarios))
	}
	for _, sc := range scenarios {
		for name, g := range got[sc.name] {
			if w := want[sc.name][name]; !reflect.DeepEqual(g, w) {
				t.Errorf("%s/%s:\n got %+v\nwant %+v", sc.name, name, g, w)
			}
		}
	}
}
