package core_test

// What a judged compile costs under a database: the snapshots the engine
// takes and the chains the detector interns.

import (
	"testing"

	"github.com/jitbull/jitbull/internal/core"
	"github.com/jitbull/jitbull/internal/engine"
	"github.com/jitbull/jitbull/internal/mir"
	"github.com/jitbull/jitbull/internal/passes"
	"github.com/jitbull/jitbull/internal/progen"
	"github.com/jitbull/jitbull/internal/vulndb"
)

// stormSources are the compile_storm workload's programs: 48 seeded
// 8-function progen programs, each compiled under DB #8.
func stormSources() []string {
	var out []string
	for seed := int64(1000); seed < 1048; seed++ {
		out = append(out, progen.Generate(seed, progen.Options{Funcs: 8, MaxStmts: 10, Train: 130}))
	}
	return out
}

// alongside is an engine.WatchingPolicy that forwards to a bare detector —
// the engine still snapshots only the watched passes — and beside it
// counts the snapshots of each judged compile and records the reference
// Δ (string chains, nothing interned) of every pass it observes.
type alongside struct {
	det   *core.Detector
	snaps []int           // distinct snapshots per judged compile
	kept  map[string]bool // every chain of every reference Δ
}

func (a *alongside) Active() bool             { return a.det.Active() }
func (a *alongside) Watches(pass string) bool { return a.det.Watches(pass) }

func (a *alongside) BeginCompile(fn string) (passes.Observer, func() engine.CompileDecision) {
	observe, finish := a.det.BeginCompile(fn)
	seen := map[*mir.Snapshot]bool{}
	return func(i int, pass string, before, after *mir.Snapshot) {
			observe(i, pass, before, after)
			if before == nil || after == nil {
				return
			}
			seen[before], seen[after] = true, true
			d := core.RefExtractDelta(before, after)
			for _, side := range [][]string{d.Removed, d.Added} {
				for _, c := range side {
					a.kept[c] = true
				}
			}
		}, func() engine.CompileDecision {
			a.snaps = append(a.snaps, len(seen))
			return finish()
		}
}

// TestJudgedCompileCostFollowsTheDatabase compiles the storm programs under
// DB #8, which fingerprints 9 of the 23 pipeline passes in 7 runs of
// consecutive passes. Every judged compile takes 16 snapshots (one after
// each watched pass, one before each run), where observing every pass took
// 24. And the detector interns exactly the chains its Δs keep: the
// interner grows by the distinct reference-Δ chains it did not already
// hold, and by nothing else — not the chains of every snapshot.
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

	n0 := core.NumChains()
	held := make(map[string]bool, n0)
	for id := 0; id < n0; id++ {
		held[core.ChainString(uint32(id))] = true
	}
	for _, src := range stormSources() {
		e, err := engine.New(src, engine.Config{IonThreshold: 100, Bugs: bugs})
		if err != nil {
			t.Fatal(err)
		}
		e.SetPolicy(pol)
		_, _ = e.Run() // the outcome is not under test here
	}

	if len(pol.snaps) == 0 {
		t.Fatal("no judged compile: the test pins nothing")
	}
	for i, n := range pol.snaps {
		if n != 16 {
			t.Fatalf("judged compile %d took %d snapshots, want 16", i, n)
		}
	}

	want := map[string]bool{}
	for c := range pol.kept {
		if !held[c] {
			want[c] = true
		}
	}
	n1 := core.NumChains()
	t.Logf("%d judged compiles, %d distinct kept-Δ chains, %d of them new; the interner grew by %d",
		len(pol.snaps), len(pol.kept), len(want), n1-n0)
	if n1-n0 != len(want) {
		t.Errorf("the interner grew by %d chains, the Δs keep %d new ones", n1-n0, len(want))
	}
	for id := n0; id < n1; id++ {
		if c := core.ChainString(uint32(id)); !want[c] {
			t.Errorf("interned %q, which no Δ keeps", c)
		}
	}
}
