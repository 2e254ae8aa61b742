package core_test

// Core micro-benchmarks: the hot-path costs of JITBULL itself (see
// DESIGN.md). Each has a "ref" sub-benchmark that runs the retained
// string-based reference implementation (reference_test.go) over the same
// fixture.

import (
	"fmt"
	"strconv"
	"testing"

	"github.com/jitbull/jitbull/internal/ast"
	"github.com/jitbull/jitbull/internal/bytecode"
	"github.com/jitbull/jitbull/internal/compiler"
	"github.com/jitbull/jitbull/internal/core"
	"github.com/jitbull/jitbull/internal/engine"
	"github.com/jitbull/jitbull/internal/mir"
	"github.com/jitbull/jitbull/internal/mirbuild"
	"github.com/jitbull/jitbull/internal/obs"
	"github.com/jitbull/jitbull/internal/octane"
	"github.com/jitbull/jitbull/internal/parser"
	"github.com/jitbull/jitbull/internal/passes"
	"github.com/jitbull/jitbull/internal/value"
	"github.com/jitbull/jitbull/internal/vulndb"
)

// benchIonThreshold is the Ion threshold of the benchmark fixtures.
const benchIonThreshold = 100

// benchSnapshotPair builds a representative before/after pair: a load loop
// body with nChecks bounds checks, of which the "after" side keeps only
// one in four (what range analysis + bounds-check elimination do to hot
// array code).
func benchSnapshotPair(nChecks int) (before, after *mir.Snapshot) {
	build := func(keepEvery int) *mir.Snapshot {
		s := &mir.Snapshot{FuncName: "bench"}
		add := func(id int, op string, operands ...int) {
			s.Instrs = append(s.Instrs, mir.SnapInstr{ID: id, Opcode: op, Operands: operands})
		}
		add(1, "parameter#0")
		add(2, "unbox", 1)
		add(3, "elements", 2)
		add(4, "initializedlength", 3)
		id := 10
		for i := 0; i < nChecks; i++ {
			add(id, "constant("+strconv.Itoa(i)+")")
			if keepEvery == 1 || i%keepEvery == 0 {
				add(id+1, "boundscheck", id, 4)
				add(id+2, "loadelement", 3, id+1)
			} else {
				add(id+2, "loadelement", 3, id)
			}
			add(id+3, "add", id+2, 2)
			id += 4
		}
		add(id, "return", id-1)
		return s
	}
	return build(1), build(4)
}

// BenchmarkExtractDelta measures one Δ extraction (Algorithm 1) over a
// representative before/after snapshot pair.
func BenchmarkExtractDelta(b *testing.B) {
	before, after := benchSnapshotPair(24)
	b.Run("fast", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			core.ExtractDelta(before, after)
		}
	})
	b.Run("ref", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			core.RefExtractDelta(before, after)
		}
	})
}

// benchChainSets builds two interned chain sets of size n with ~50%
// overlap, the regime CompareChains sees when a candidate is near a VDC.
func benchChainSets(n int) (a, b []uint32) {
	mk := func(tag string, lo, hi int) []string {
		var out []string
		for i := lo; i < hi; i++ {
			out = append(out, fmt.Sprintf("boundscheck→constant(%d)→%s→unbox→parameter#0", i, tag))
		}
		return out
	}
	shared := mk("shared", 0, n/2)
	return core.InternChains(append(mk("a", 0, n-n/2), shared...)),
		core.InternChains(append(mk("b", 0, n-n/2), shared...))
}

// BenchmarkCompareChains measures one COMPARECHAINS call over two 64-chain
// sets with 50% overlap.
func BenchmarkCompareChains(b *testing.B) {
	x, y := benchChainSets(64)
	b.Run("fast", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			core.CompareChains(x, y, core.DefaultRatio, core.DefaultThr)
		}
	})
	b.Run("ref", func(b *testing.B) {
		xs, ys := core.ChainStrings(x), core.ChainStrings(y)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			core.RefCompareChains(xs, ys, core.DefaultRatio, core.DefaultThr)
		}
	})
}

// capturedCompile is one compilation's observer feed.
type capturedCompile struct {
	fn    string
	steps []snapStep
}

type snapStep struct {
	idx           int
	pass          string
	before, after *mir.Snapshot
}

// snapCapture is an engine.Policy that records the snapshot feed without
// deciding anything.
type snapCapture struct {
	funcs []capturedCompile
}

func (sc *snapCapture) Active() bool { return true }

func (sc *snapCapture) BeginCompile(fnName string) (passes.Observer, func() engine.CompileDecision) {
	cc := capturedCompile{fn: fnName}
	obs := func(idx int, pass string, before, after *mir.Snapshot) {
		cc.steps = append(cc.steps, snapStep{idx: idx, pass: pass, before: before, after: after})
	}
	finish := func() engine.CompileDecision {
		sc.funcs = append(sc.funcs, cc)
		return engine.CompileDecision{}
	}
	return obs, finish
}

// replay drives one recorded compilation through any policy.
func (cc *capturedCompile) replay(p engine.Policy) engine.CompileDecision {
	obs, finish := p.BeginCompile(cc.fn)
	for _, st := range cc.steps {
		obs(st.idx, st.pass, st.before, st.after)
	}
	return finish()
}

// detectorFeed captures the per-pass snapshot feed of every function the
// TypeScript benchmark (the paper's worst-case corpus program) gets
// JIT-compiled. Replaying the feed through a policy reproduces exactly the
// per-compilation work JITBULL adds to the engine: Δ extraction per pass,
// then the finish-step database comparison.
func detectorFeed() ([]capturedCompile, error) {
	bench, err := octane.ByName("TypeScript")
	if err != nil {
		return nil, err
	}
	e, err := engine.New(bench.Source(1), engine.Config{IonThreshold: benchIonThreshold})
	if err != nil {
		return nil, err
	}
	capt := &snapCapture{}
	e.SetPolicy(capt)
	if _, err := e.Run(); err != nil {
		return nil, err
	}
	if len(capt.funcs) == 0 {
		return nil, fmt.Errorf("fixture captured no compilations")
	}
	return capt.funcs, nil
}

// BenchmarkDetectorFinish measures the detector's per-compilation work
// (DNA vs whole database) across every function of a corpus program, with
// 0, 1 and 4 VDC fingerprints installed.
func BenchmarkDetectorFinish(b *testing.B) {
	funcs, err := detectorFeed()
	if err != nil {
		b.Fatal(err)
	}
	dbs := map[int]*core.Database{0: {}}
	for _, n := range []int{1, 4} {
		if dbs[n], _, err = vulndb.BuildDB(n, benchIonThreshold); err != nil {
			b.Fatal(err)
		}
	}
	replayAll := func(det engine.Policy, reset func()) func(b *testing.B) {
		return func(b *testing.B) {
			funcs[0].replay(det) // build the index outside the timing loop
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range funcs {
					funcs[j].replay(det)
				}
				reset()
			}
		}
	}
	for _, n := range []int{0, 1, 4} {
		b.Run(fmt.Sprintf("%dVDC", n), replayAll(core.NewDetector(dbs[n]), func() {}))
	}
	ref := core.NewReferenceDetector(dbs[4])
	b.Run("ref4VDC", replayAll(ref, ref.Reset)) // the reference appends duplicate matches
}

// stormFunc is one storm-shaped function with the inputs mirbuild needs.
type stormFunc struct {
	prog *bytecode.Program
	fd   *ast.FuncDecl
	opts mirbuild.Options
}

// stormFuncs returns the functions of the compile_storm programs that
// compile under type feedback as the engine would see it: globals typed
// by their values after an interpreted run, progen's array parameters (a,
// b) as arrays and every other parameter and return value as a number.
func stormFuncs() ([]stormFunc, error) {
	var out []stormFunc
	for _, src := range stormSources() {
		prog, err := compiler.Compile(src)
		if err != nil {
			return nil, err
		}
		e, err := engine.New(src, engine.Config{DisableJIT: true})
		if err != nil {
			return nil, err
		}
		if _, err := e.Run(); err != nil {
			return nil, err
		}
		globals := e.Globals()
		for _, fd := range parser.MustParse(src).Funcs() {
			types := make([]value.Type, len(fd.Params))
			for i, p := range fd.Params {
				types[i] = value.Number
				if p == "a" || p == "b" {
					types[i] = value.Array
				}
			}
			f := stormFunc{prog: prog, fd: fd, opts: mirbuild.Options{
				ParamTypes: types,
				GlobalType: func(slot int) value.Type { return globals[slot].Type() },
				ReturnType: func(int) value.Type { return value.Number },
			}}
			// Keep what compiles under this feedback, as the engine keeps
			// only what it can compile.
			if g, err := mirbuild.Build(f.prog, f.fd, f.opts); err == nil && passes.Run(g, nil, nil, nil) == nil {
				out = append(out, f)
			}
		}
	}
	return out, nil
}

// BenchmarkDetectorCompile measures what JITBULL adds to a compile as the
// database grows (the cost-vs-database shape of the paper's Figs. 5/6):
// one op is one judged compile of every storm-shaped function — mirbuild,
// the pass pipeline observed as the engine observes it for a bare
// detector (watched passes only; nothing at all under the empty DB #0),
// and the finish step. Beside ns/op and allocs/op it reports the Δ chains
// the detector compared per op and the chains it interned per op; the
// interner is process-wide, so the latter is the cold count only at
// -benchtime 1x (later ops find their chains interned).
func BenchmarkDetectorCompile(b *testing.B) {
	funcs, err := stormFuncs()
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{0, 1, 4, 8} {
		db, bugs := &core.Database{}, passes.BugSet{}
		if n > 0 {
			if db, bugs, err = vulndb.BuildDB(n, benchIonThreshold); err != nil {
				b.Fatal(err)
			}
		}
		b.Run(fmt.Sprintf("DB%d", n), func(b *testing.B) {
			det := core.NewDetector(db)
			det.Metrics = obs.NewRegistry()
			deltaChains := det.Metrics.Histogram("dna.delta_chains", obs.SizeBuckets)
			d0, c0 := deltaChains.Sum(), core.NumChains()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, f := range funcs {
					g, err := mirbuild.Build(f.prog, f.fd, f.opts)
					if err != nil {
						b.Fatal(err)
					}
					opts := passes.RunOptions{Bugs: bugs}
					var finish func() engine.CompileDecision
					if det.Active() {
						opts.Observer, finish = det.BeginCompile(f.fd.Name)
						opts.Watch = det.Watches
					}
					if err := passes.RunWith(g, opts); err != nil {
						b.Fatal(err)
					}
					if finish != nil {
						finish()
					}
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(deltaChains.Sum()-d0)/float64(b.N), "delta_chains/op")
			b.ReportMetric(float64(core.NumChains()-c0)/float64(b.N), "interned/op")
		})
	}
}
