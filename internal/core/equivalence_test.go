package core_test

// Full-corpus golden-equivalence suite: the interned, index-backed
// core.Detector must produce exactly the go/no-go decision sequence of
// core.ReferenceDetector (the retained pre-optimization implementation) on
// whole engine runs — the benign Octane corpus, every vulnerability
// demonstrator, and a generated program sweep.

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/jitbull/jitbull/internal/core"
	"github.com/jitbull/jitbull/internal/engine"
	"github.com/jitbull/jitbull/internal/obs"
	"github.com/jitbull/jitbull/internal/octane"
	"github.com/jitbull/jitbull/internal/passes"
	"github.com/jitbull/jitbull/internal/progen"
	"github.com/jitbull/jitbull/internal/vulndb"
)

// decisionLog wraps a policy and records the verdict of every
// CompileDecision it returns to the engine. The evidence is left out: the
// reference detector attributes no witness chain, and the match sets of
// the two are compared by key in internal/core's equivalence tests.
type decisionLog struct {
	inner     engine.Policy
	decisions []engine.CompileDecision
}

func (d *decisionLog) Active() bool { return d.inner.Active() }

func (d *decisionLog) BeginCompile(fn string) (passes.Observer, func() engine.CompileDecision) {
	obs, finish := d.inner.BeginCompile(fn)
	return obs, func() engine.CompileDecision {
		dec := finish()
		d.decisions = append(d.decisions, engine.CompileDecision{DisabledPasses: dec.DisabledPasses, NoJIT: dec.NoJIT})
		return dec
	}
}

// runLogged executes src with the given policy installed and returns the
// decision sequence, final stats, and the run error (if any).
func runLogged(t *testing.T, src string, cfg engine.Config, p engine.Policy) ([]engine.CompileDecision, engine.Stats, error) {
	t.Helper()
	e, err := engine.New(src, cfg)
	if err != nil {
		t.Fatalf("engine.New: %v", err)
	}
	log := &decisionLog{inner: p}
	e.SetPolicy(log)
	_, runErr := e.Run()
	return log.decisions, e.Stats(), runErr
}

// runBare executes src with the detector installed directly, so the engine
// sees an engine.WatchingPolicy and snapshots only the passes the database
// fingerprints (decisionLog hides Watches, as any wrapper does). The
// decision sequence is read off the decide facts a Ring keeps.
func runBare(t *testing.T, src string, cfg engine.Config, db *core.Database) ([]engine.CompileDecision, engine.Stats, error) {
	t.Helper()
	ring := obs.NewRing(0)
	cfg.Tracer = obs.NewTracer(ring)
	e, err := engine.New(src, cfg)
	if err != nil {
		t.Fatalf("engine.New: %v", err)
	}
	e.SetPolicy(core.NewDetector(db))
	_, runErr := e.Run()
	if n := ring.Dropped(); n > 0 {
		t.Fatalf("the ring dropped %d events: decide facts may be lost", n)
	}
	var decs []engine.CompileDecision
	for _, ev := range ring.Events() {
		if ev.Name == obs.FactDecide && ev.Decision != nil {
			decs = append(decs, engine.CompileDecision{DisabledPasses: ev.Decision.DisabledPasses, NoJIT: ev.Decision.NoJIT})
		}
	}
	return decs, e.Stats(), runErr
}

// checkRunEquivalence runs one program under the reference detector and
// under the detector, wrapped (observed at every pass) and bare (observed
// at watched passes only), and asserts identical decision sequences,
// stats, and run outcome. Decisions drive engine behavior (pass disabling,
// recompilation, tier choice), so matching stats confirm the whole runs
// stayed in lockstep.
func checkRunEquivalence(t *testing.T, name, src string, cfg engine.Config, db *core.Database) {
	t.Helper()
	refDec, refStats, refErr := runLogged(t, src, cfg, core.NewReferenceDetector(db))
	fastDec, fastStats, fastErr := runLogged(t, src, cfg, core.NewDetector(db))
	bareDec, bareStats, bareErr := runBare(t, src, cfg, db)
	for _, run := range []struct {
		kind  string
		dec   []engine.CompileDecision
		stats engine.Stats
		err   error
	}{{"fast", fastDec, fastStats, fastErr}, {"bare", bareDec, bareStats, bareErr}} {
		if !reflect.DeepEqual(run.dec, refDec) {
			t.Errorf("%s: %s decision sequence diverged\n%s %+v\nref  %+v", name, run.kind, run.kind, run.dec, refDec)
		}
		if run.stats != refStats {
			t.Errorf("%s: %s stats diverged\n%s %+v\nref  %+v", name, run.kind, run.kind, run.stats, refStats)
		}
		if (run.err == nil) != (refErr == nil) || (run.err != nil && run.err.Error() != refErr.Error()) {
			t.Errorf("%s: %s run error diverged: %v vs %v", name, run.kind, run.err, refErr)
		}
	}
	if len(refDec) == 0 {
		t.Errorf("%s: no Ion compilations observed; equivalence check is vacuous", name)
	}
}

func TestDecisionEquivalenceOctane(t *testing.T) {
	for _, n := range []int{1, 4} {
		db, bugs, err := vulndb.BuildDB(n, 100)
		if err != nil {
			t.Fatal(err)
		}
		cfg := engine.Config{IonThreshold: 100, Bugs: bugs}
		for _, b := range octane.All() {
			checkRunEquivalence(t, fmt.Sprintf("%s/#%d", b.Name, n), b.Source(1), cfg, db)
		}
	}
}

func TestDecisionEquivalenceVulnDemonstrators(t *testing.T) {
	db, bugs, err := vulndb.BuildDB(4, 300)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vulndb.All() {
		// Run each demonstrator in its own vulnerability window (its bug
		// active) plus the shared 4-VDC window, against the 4-VDC database.
		for _, tc := range []struct {
			tag  string
			bugs passes.BugSet
		}{{"own-bug", v.Bug()}, {"window-bugs", bugs}} {
			cfg := engine.Config{IonThreshold: 300, Bugs: tc.bugs}
			checkRunEquivalence(t, v.CVE+"/"+tc.tag, v.Demonstrator, cfg, db)
		}
	}
}

func TestDecisionEquivalenceGenerated(t *testing.T) {
	db, bugs, err := vulndb.BuildDB(4, 100)
	if err != nil {
		t.Fatal(err)
	}
	cfg := engine.Config{IonThreshold: 100, Bugs: bugs}
	for seed := int64(1); seed <= 20; seed++ {
		src := progen.Generate(seed, progen.Options{Funcs: 4, MaxStmts: 8, Train: 150})
		checkRunEquivalence(t, fmt.Sprintf("progen-%d", seed), src, cfg, db)
	}
}
