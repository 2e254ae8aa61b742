package core_test

// The cannot-match test is sound: a watched pass it leaves unextracted
// never has a Δ that would have matched.

import (
	"fmt"
	"sync"
	"testing"

	"github.com/jitbull/jitbull/internal/core"
	"github.com/jitbull/jitbull/internal/engine"
	"github.com/jitbull/jitbull/internal/mir"
	"github.com/jitbull/jitbull/internal/obs"
	"github.com/jitbull/jitbull/internal/octane"
	"github.com/jitbull/jitbull/internal/passes"
	"github.com/jitbull/jitbull/internal/progen"
	"github.com/jitbull/jitbull/internal/variants"
	"github.com/jitbull/jitbull/internal/vulndb"
)

// soundnessProbe is an engine.WatchingPolicy that forwards to a bare
// detector and, beside it, puts every pass the detector judges through the
// cannot-match test and through the full extractor and index query.
type soundnessProbe struct {
	tb              testing.TB
	det             *core.Detector
	prog            string // the program running, for failure messages
	skipped, judged int
}

func (p *soundnessProbe) Active() bool             { return p.det.Active() }
func (p *soundnessProbe) Watches(pass string) bool { return p.det.Watches(pass) }

func (p *soundnessProbe) BeginCompile(fn string) (passes.Observer, func() engine.CompileDecision) {
	observe, finish := p.det.BeginCompile(fn)
	return func(i int, pass string, before, after *mir.Snapshot) {
		observe(i, pass, before, after)
		judged, skip := p.det.CannotMatch(pass, before, after)
		if !judged {
			return
		}
		p.judged++
		if !skip {
			return
		}
		p.skipped++
		if d := core.ExtractDelta(before, after); p.det.DeltaMatches(pass, d) {
			p.tb.Errorf("%s: %s: pass %s was skipped, but its Δ (%d removed, %d added chains) matches",
				p.prog, fn, pass, len(d.Removed), len(d.Added))
		}
	}, finish
}

// run executes program prog under the probe; the run's outcome is not
// under test.
func (p *soundnessProbe) run(prog program, cfg engine.Config) {
	p.prog = prog.name
	e, err := engine.New(prog.src, cfg)
	if err != nil {
		p.tb.Fatalf("%s: engine.New: %v", prog.name, err)
	}
	e.SetPolicy(p)
	_, _ = e.Run()
}

// soundnessDBs are DB #1, #4 and #8, built once per test binary.
var soundnessDBs = sync.OnceValues(func() (map[int]*core.Database, error) {
	dbs := map[int]*core.Database{}
	for _, n := range []int{1, 4, 8} {
		db, _, err := vulndb.BuildDB(n, 100)
		if err != nil {
			return nil, err
		}
		dbs[n] = db
	}
	return dbs, nil
})

// allBugs is the bug set of every implemented vulnerability.
func allBugs() passes.BugSet {
	bugs := passes.BugSet{}
	for _, v := range vulndb.All() {
		bugs[v.CVE] = true
	}
	return bugs
}

// program is one named source of the soundness corpus.
type program struct{ name, src string }

// soundnessCorpus is every demonstrator with its renamed, minified and
// reformatted forms and its hand-written variants, the Octane analogues
// at Source(1), and the storm programs.
func soundnessCorpus(t *testing.T) []program {
	var progs []program
	for _, v := range vulndb.All() {
		progs = append(progs, program{v.CVE + "/original", v.Demonstrator})
		for _, form := range []struct {
			name string
			f    func(string) (string, error)
		}{{"rename", variants.Rename}, {"minify", variants.Minify}, {"reformat", variants.Reformat}} {
			src, err := form.f(v.Demonstrator)
			if err != nil {
				t.Fatal(err)
			}
			progs = append(progs, program{v.CVE + "/" + form.name, src})
		}
		for _, hand := range []program{{"reorder", v.ReorderVariant}, {"split", v.SplitVariant}, {"alt", v.AltImplementation}} {
			if hand.src != "" {
				progs = append(progs, program{v.CVE + "/" + hand.name, hand.src})
			}
		}
	}
	for _, b := range octane.All() {
		progs = append(progs, program{"octane/" + b.Name, b.Source(1)})
	}
	for i, src := range stormSources() {
		progs = append(progs, program{fmt.Sprintf("storm/%d", progenSeedBase+i), src})
	}
	return progs
}

// TestCannotMatchIsSound runs the corpus with all eight bugs active under
// DB #1, #4 and #8. Every pass the cannot-match test skips must have a
// full Δ that the index query matches to nothing, and the detector must
// have skipped exactly the passes the test skips on a fresh extractor.
func TestCannotMatchIsSound(t *testing.T) {
	dbs, err := soundnessDBs()
	if err != nil {
		t.Fatal(err)
	}
	corpus := soundnessCorpus(t)
	for _, n := range []int{1, 4, 8} {
		det := core.NewDetector(dbs[n])
		det.Metrics = obs.NewRegistry()
		p := &soundnessProbe{tb: t, det: det}
		for _, prog := range corpus {
			p.run(prog, engine.Config{IonThreshold: 100, Bugs: allBugs()})
		}
		t.Logf("DB #%d: %d programs, %d judged passes, %d skipped by the cannot-match test", n, len(corpus), p.judged, p.skipped)
		if p.skipped == 0 || p.skipped == p.judged {
			t.Errorf("DB #%d: %d of %d judged passes skipped: the corpus must hold both kinds", n, p.skipped, p.judged)
		}
		if got := det.Metrics.Histogram("dna.passes_skipped", obs.SizeBuckets).Sum(); got != int64(p.skipped) {
			t.Errorf("DB #%d: the detector skipped %d passes, the test on fresh extractors %d", n, got, p.skipped)
		}
	}
}

// FuzzCannotMatchSound is TestCannotMatchIsSound on one generated program
// per input, under DB #8 with all eight bugs active, at the default Thr and
// at Thr 1: a benign program seldom shares three chains with a VDC, but
// often one, so Thr 1 is where a miscounted path shows.
func FuzzCannotMatchSound(f *testing.F) {
	for _, seed := range []int64{1, 7, 1000, 1044} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		dbs, err := soundnessDBs()
		if err != nil {
			t.Fatal(err)
		}
		prog := program{fmt.Sprintf("progen/%d", seed), progen.Generate(seed, progen.Options{Funcs: 6, MaxStmts: 10, Train: 130})}
		for _, thr := range []int{core.DefaultThr, 1} {
			det := core.NewDetector(dbs[8])
			det.Thr = thr
			p := &soundnessProbe{tb: t, det: det}
			p.run(prog, engine.Config{IonThreshold: 100, Bugs: allBugs()})
		}
	})
}
