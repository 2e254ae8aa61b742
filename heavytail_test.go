package jitbull

// Heavy-tail regression: progen seed 1044 in the compile_storm
// configuration is the benign program whose Δ pairing search is the
// largest the corpus produces (hundreds of gone chains × hundreds of new
// chains on three consecutive passes of one function). It once cost twice
// the other 45 storm programs together. The test pins that the fast path
// still agrees with the reference on exactly this input; the benchmark
// gives the super-linear term a `go test -bench` handle. Neither asserts
// wall-clock time.

import (
	"reflect"
	"testing"

	"github.com/jitbull/jitbull/internal/core"
	"github.com/jitbull/jitbull/internal/engine"
	"github.com/jitbull/jitbull/internal/mir"
	"github.com/jitbull/jitbull/internal/obs"
	"github.com/jitbull/jitbull/internal/passes"
	"github.com/jitbull/jitbull/internal/progen"
	"github.com/jitbull/jitbull/internal/vulndb"
)

// heavyTailProgram returns the program, engine configuration and database
// of compile_storm's progen-1044 (all 8 bugs active, DB #8).
func heavyTailProgram(tb testing.TB) (string, engine.Config, *core.Database) {
	tb.Helper()
	db, bugs, err := vulndb.BuildDB(8, benchIonThreshold)
	if err != nil {
		tb.Fatal(err)
	}
	src := progen.Generate(1044, progen.Options{Funcs: 8, MaxStmts: 10, Train: 130})
	return src, engine.Config{IonThreshold: benchIonThreshold, Bugs: bugs}, db
}

// snapshotTap wraps a policy and keeps every (before, after) snapshot pair
// its observer is shown.
type snapshotTap struct {
	inner engine.Policy
	pairs [][2]*mir.Snapshot
}

func (s *snapshotTap) Active() bool { return s.inner.Active() }

func (s *snapshotTap) BeginCompile(fn string) (passes.Observer, func() engine.CompileDecision) {
	obs, finish := s.inner.BeginCompile(fn)
	return func(i int, pass string, before, after *mir.Snapshot) {
		if before != nil && after != nil {
			s.pairs = append(s.pairs, [2]*mir.Snapshot{before, after})
		}
		obs(i, pass, before, after)
	}, finish
}

// heavyTailPairs runs the program under the fast detector and returns the
// snapshot pairs its compilations produced.
func heavyTailPairs(tb testing.TB) [][2]*mir.Snapshot {
	tb.Helper()
	src, cfg, db := heavyTailProgram(tb)
	e, err := engine.New(src, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tap := &snapshotTap{inner: core.NewDetector(db)}
	e.SetPolicy(tap)
	if _, err := e.Run(); err != nil {
		tb.Fatalf("run: %v", err)
	}
	if len(tap.pairs) == 0 {
		tb.Fatal("no compilations observed")
	}
	return tap.pairs
}

func TestHeavyTailEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("the string reference needs seconds on this program")
	}
	src, cfg, db := heavyTailProgram(t)

	// Decisions, stats and matches of whole runs.
	fast, ref := core.NewDetector(db), core.NewReferenceDetector(db)
	tap := &snapshotTap{inner: fast}
	fastDec, fastStats, fastErr := runLogged(t, src, cfg, tap)
	refDec, refStats, refErr := runLogged(t, src, cfg, ref)
	if fastErr != nil || refErr != nil {
		t.Fatalf("run errors: fast %v, ref %v", fastErr, refErr)
	}
	if len(fastDec) == 0 || !reflect.DeepEqual(fastDec, refDec) {
		t.Errorf("decision sequences diverged\nfast %+v\nref  %+v", fastDec, refDec)
	}
	if fastStats != refStats {
		t.Errorf("stats diverged\nfast %+v\nref  %+v", fastStats, refStats)
	}
	fastKeys, refKeys := map[obs.MatchKey]bool{}, map[obs.MatchKey]bool{}
	for _, m := range fast.Matches {
		fastKeys[m.Key()] = true
	}
	for _, m := range ref.Matches {
		refKeys[m.Key()] = true
	}
	if !reflect.DeepEqual(fastKeys, refKeys) {
		t.Errorf("matches diverged\nfast %+v\nref  %+v", fast.Matches, ref.Matches)
	}

	// DNA, pass by pass: the same snapshot pairs through both extractors.
	for i, p := range tap.pairs {
		got, want := core.ExtractDelta(p[0], p[1]).Ref(), core.RefExtractDelta(p[0], p[1])
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("pair %d (%s): delta diverged\nfast %+v\nref  %+v", i, p[0].FuncName, got, want)
		}
	}
}

// BenchmarkExtractDeltaHeavyTail times Δ extraction on the program's
// largest snapshot pair (by instruction count) that a pass changed: one of
// the three whose pairing search dominates the program's compile time.
func BenchmarkExtractDeltaHeavyTail(b *testing.B) {
	var before, after *mir.Snapshot
	size := 0
	for _, p := range heavyTailPairs(b) {
		if n := len(p[0].Instrs) + len(p[1].Instrs); n > size && !core.ExtractDelta(p[0], p[1]).Empty() {
			before, after, size = p[0], p[1], n
		}
	}
	if before == nil {
		b.Fatal("no pass changed anything")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		heavyTailDelta = core.ExtractDelta(before, after)
	}
}

// heavyTailDelta keeps the benchmarked call's result alive.
var heavyTailDelta core.Delta
