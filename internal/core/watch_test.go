package core_test

// What a judged compile costs under a database: the snapshots the engine
// takes and the Δs the detector extracts.

import (
	"testing"

	"github.com/jitbull/jitbull/internal/core"
	"github.com/jitbull/jitbull/internal/engine"
	"github.com/jitbull/jitbull/internal/mir"
	"github.com/jitbull/jitbull/internal/passes"
	"github.com/jitbull/jitbull/internal/progen"
	"github.com/jitbull/jitbull/internal/vulndb"
)

// progenSeedBase is the progen seed of the first storm program.
const progenSeedBase = 1000

// stormSources are the compile_storm workload's programs: 48 seeded
// 8-function progen programs, each compiled under DB #8.
func stormSources() []string {
	var out []string
	for seed := int64(progenSeedBase); seed < progenSeedBase+48; seed++ {
		out = append(out, progen.Generate(seed, progen.Options{Funcs: 8, MaxStmts: 10, Train: 130}))
	}
	return out
}

// alongside is an engine.WatchingPolicy that forwards to a bare detector —
// the engine still snapshots only the watched passes — and beside it
// counts the snapshots of each judged compile and, for every pass the
// detector extracts (the cannot-match test lets it through), records the
// reference Δ.
type alongside struct {
	det                *core.Detector
	snaps              []int           // distinct snapshots per judged compile
	states             []int           // distinct IR states at its watched boundaries
	boundary           []*mir.Snapshot // full Snaps at the current compile's watched boundaries
	kept               map[string]bool // every chain of every extracted reference Δ
	extracted, skipped int
}

func (a *alongside) Active() bool             { return a.det.Active() }
func (a *alongside) Watches(pass string) bool { return a.det.Watches(pass) }

// pipeline is the standard pipeline with every watched pass wrapped to
// record a full Snap of the graph on each side of it, independently of the
// snapshots the engine hands the observer.
func (a *alongside) pipeline() []passes.Pass {
	pl := passes.Pipeline()
	for i, p := range pl {
		if a.Watches(p.Name()) {
			pl[i] = boundaryPass{Pass: p, states: &a.boundary}
		}
	}
	return pl
}

type boundaryPass struct {
	passes.Pass
	states *[]*mir.Snapshot
}

func (p boundaryPass) Run(g *mir.Graph, ctx *passes.Context) error {
	*p.states = append(*p.states, g.Snap())
	err := p.Pass.Run(g, ctx)
	*p.states = append(*p.states, g.Snap())
	return err
}

func (a *alongside) BeginCompile(fn string) (passes.Observer, func() engine.CompileDecision) {
	observe, finish := a.det.BeginCompile(fn)
	a.boundary = a.boundary[:0]
	seen := map[*mir.Snapshot]bool{}
	return func(i int, pass string, before, after *mir.Snapshot) {
			observe(i, pass, before, after)
			if before == nil || after == nil {
				return
			}
			seen[before], seen[after] = true, true
			judged, skip := a.det.CannotMatch(pass, before, after)
			if !judged {
				return
			}
			if skip {
				a.skipped++
				return
			}
			a.extracted++
			d := core.RefExtractDelta(before, after)
			for _, side := range [][]string{d.Removed, d.Added} {
				for _, c := range side {
					a.kept[c] = true
				}
			}
		}, func() engine.CompileDecision {
			a.snaps = append(a.snaps, len(seen))
			states := 0
			for i, s := range a.boundary {
				if i == 0 || !core.SnapshotsEqual(a.boundary[i-1], s) {
					states++
				}
			}
			a.states = append(a.states, states)
			return finish()
		}
}

// TestJudgedCompileCostFollowsTheDatabase compiles the storm programs under
// DB #8, which fingerprints 9 of the 23 pipeline passes. Every judged
// compile takes exactly one snapshot per distinct IR state at its watched
// boundaries (the graph before and after each watched pass, where equal
// neighbours are one state), counted from full Snaps taken beside the
// engine's; snapshotting each boundary afresh took 16 per compile (one
// after each watched pass, one before each of DB #8's 7 runs of
// consecutive watched passes). No storm pass shares enough chains with
// DB #8 to pass the cannot-match test, so the storm extracts nothing.
func TestJudgedCompileCostFollowsTheDatabase(t *testing.T) {
	db, bugs, err := vulndb.BuildDB(8, 0)
	if err != nil {
		t.Fatal(err)
	}
	pol := &alongside{det: core.NewDetector(db), kept: map[string]bool{}}
	watched := 0
	for _, p := range passes.PassNames() {
		if pol.Watches(p) {
			watched++
		}
	}
	if watched != 9 {
		t.Fatalf("DB #8 watches %d passes, want 9", watched)
	}

	for _, src := range stormSources() {
		e, err := engine.New(src, engine.Config{IonThreshold: 100, Bugs: bugs, Passes: pol.pipeline()})
		if err != nil {
			t.Fatal(err)
		}
		e.SetPolicy(pol)
		_, _ = e.Run() // the outcome is not under test here
	}

	if len(pol.snaps) == 0 {
		t.Fatal("no judged compile: the test pins nothing")
	}
	total, least, most := 0, pol.snaps[0], pol.snaps[0]
	for i, n := range pol.snaps {
		if n != pol.states[i] {
			t.Fatalf("judged compile %d took %d snapshots for %d distinct IR states", i, n, pol.states[i])
		}
		total, least, most = total+n, min(least, n), max(most, n)
	}
	t.Logf("%d snapshots over %d judged compiles, %d–%d each (%d at 16 per compile)",
		total, len(pol.snaps), least, most, 16*len(pol.snaps))

	t.Logf("%d judged compiles, %d changed watched passes: %d extracted (%d distinct kept-Δ chains), %d skipped",
		len(pol.snaps), pol.extracted+pol.skipped, pol.extracted, len(pol.kept), pol.skipped)
	if pol.skipped == 0 {
		t.Error("the cannot-match test skipped no pass: the storm is DNA-miss work")
	}
	if pol.extracted != 0 {
		t.Errorf("%d storm passes passed the cannot-match test, want 0", pol.extracted)
	}
}
