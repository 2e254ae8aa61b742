package mir_test

import (
	"testing"

	"github.com/jitbull/jitbull/internal/engine"
	"github.com/jitbull/jitbull/internal/mir"
	"github.com/jitbull/jitbull/internal/octane"
	"github.com/jitbull/jitbull/internal/passes"
	"github.com/jitbull/jitbull/internal/progen"
	"github.com/jitbull/jitbull/internal/vulndb"
)

// visitPass runs its pass, then hands the graph to visit; the first pass of
// the pipeline also hands over the input graph.
type visitPass struct {
	passes.Pass
	first bool
	visit func(g *mir.Graph)
}

func (p visitPass) Run(g *mir.Graph, ctx *passes.Context) error {
	if p.first {
		p.visit(g)
	}
	err := p.Pass.Run(g, ctx)
	p.visit(g)
	return err
}

// forEachCorpusGraph calls visit on every graph the engine's pass pipeline
// holds before, between and after its passes while compiling, with the
// per-pass verifier on, the Octane analogues, each vulnerability's
// demonstrator on its vulnerable engine, and the compile_storm programs
// with every bug active. It returns the number of graphs visited.
func forEachCorpusGraph(t *testing.T, visit func(g *mir.Graph)) int {
	t.Helper()
	n := 0
	pl := passes.Pipeline()
	for i, p := range pl {
		pl[i] = visitPass{Pass: p, first: i == 0, visit: func(g *mir.Graph) { n++; visit(g) }}
	}
	run := func(name, src string, cfg engine.Config) {
		cfg.CheckIR, cfg.Passes = true, pl
		e, err := engine.New(src, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		_, _ = e.Run() // demonstrators crash by design; only the graphs matter
	}
	for _, b := range octane.All() {
		run(b.Name, b.Source(1), engine.Config{IonThreshold: 40})
	}
	for _, v := range vulndb.All() {
		run(v.CVE, v.Demonstrator, engine.Config{Bugs: v.Bug()})
	}
	all := passes.BugSet{}
	for _, cve := range passes.AllCVEs {
		all[cve] = true
	}
	for seed := int64(1000); seed < 1048; seed++ {
		src := progen.Generate(seed, progen.Options{Funcs: 8, MaxStmts: 10, Train: 130})
		run("storm", src, engine.Config{IonThreshold: 100, Bugs: all})
	}
	if n == 0 {
		t.Fatal("the corpus compiled nothing")
	}
	return n
}
