package jitbull

// Benchmark harness: one testing.B entry per table/figure of the paper's
// evaluation, plus ablation benches for the design choices DESIGN.md calls
// out. Regenerate everything with:
//
//	go test -bench=. -benchmem
//
// Custom metrics carry the figure data (percentages, rates); ns/op carries
// the raw execution times. cmd/jitbull-bench renders the same data as the
// paper-formatted text tables.

import (
	"fmt"
	"strconv"
	"testing"

	"github.com/jitbull/jitbull/internal/core"
	"github.com/jitbull/jitbull/internal/engine"
	"github.com/jitbull/jitbull/internal/experiments"
	"github.com/jitbull/jitbull/internal/mir"
	"github.com/jitbull/jitbull/internal/obs"
	"github.com/jitbull/jitbull/internal/octane"
	"github.com/jitbull/jitbull/internal/passes"
	"github.com/jitbull/jitbull/internal/vulndb"
)

const benchIonThreshold = 100

// benchRun executes src once under the given config/database.
func benchRun(b *testing.B, src string, cfg engine.Config, db *core.Database) {
	b.Helper()
	e, err := engine.New(src, cfg)
	if err != nil {
		b.Fatal(err)
	}
	if db != nil {
		e.SetPolicy(core.NewDetector(db))
	}
	if _, err := e.Run(); err != nil {
		b.Fatalf("run: %v", err)
	}
}

// BenchmarkFig5ExecutionTimes regenerates Figure 5: every corpus program
// (including Microbench1/2) under NoJIT, JIT, and JITBULL with 0, 1 and 4
// VDCs installed.
func BenchmarkFig5ExecutionTimes(b *testing.B) {
	db1, bugs1, err := vulndb.BuildDB(1, benchIonThreshold)
	if err != nil {
		b.Fatal(err)
	}
	db4, bugs4, err := vulndb.BuildDB(4, benchIonThreshold)
	if err != nil {
		b.Fatal(err)
	}
	emptyDB := &core.Database{}
	configs := []struct {
		name string
		cfg  engine.Config
		db   *core.Database
	}{
		{"NoJIT", engine.Config{DisableJIT: true}, nil},
		{"JIT", engine.Config{IonThreshold: benchIonThreshold}, nil},
		{"JITBULL#0", engine.Config{IonThreshold: benchIonThreshold}, emptyDB},
		{"JITBULL#1", engine.Config{IonThreshold: benchIonThreshold, Bugs: bugs1}, db1},
		{"JITBULL#4", engine.Config{IonThreshold: benchIonThreshold, Bugs: bugs4}, db4},
	}
	for _, bench := range octane.All() {
		src := bench.Source(2)
		for _, c := range configs {
			b.Run(bench.Name+"/"+c.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					benchRun(b, src, c.cfg, c.db)
				}
			})
		}
	}
}

// BenchmarkFig4FalsePositives regenerates Figure 4: the benign corpus on a
// vulnerable engine with 1 and 4 VDC fingerprints installed. The
// percentages are reported as custom metrics per benchmark.
func BenchmarkFig4FalsePositives(b *testing.B) {
	for _, dbSize := range []int{1, 4} {
		dbSize := dbSize
		b.Run(map[int]string{1: "DB1", 4: "DB4"}[dbSize], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows, err := experiments.FalsePositives(dbSize, experiments.Config{IonThreshold: benchIonThreshold, Repeats: 1, Scale: 4})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					var dis, nojit, njit float64
					for _, r := range rows {
						dis += float64(r.NrDisJIT)
						nojit += float64(r.NrNoJIT)
						njit += float64(r.NrJIT)
					}
					b.ReportMetric(100*dis/njit, "%passdis")
					b.ReportMetric(100*nojit/njit, "%nojit")
				}
			}
		})
	}
}

// BenchmarkFig6Scalability regenerates Figure 6: execution time with 1..8
// VDCs installed, on the two benchmarks the paper highlights (Splay = min
// overhead, TypeScript = max).
func BenchmarkFig6Scalability(b *testing.B) {
	for _, name := range []string{"Splay", "TypeScript"} {
		bench, err := octane.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		src := bench.Source(2)
		for n := 1; n <= 8; n++ {
			db, bugs, err := vulndb.BuildDB(n, benchIonThreshold)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(bench.Name+"/#"+string(rune('0'+n)), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					benchRun(b, src, engine.Config{IonThreshold: benchIonThreshold, Bugs: bugs}, db)
				}
			})
		}
	}
}

// BenchmarkTable1Catalog covers the Table I survey path (catalogue
// generation and window statistics).
func BenchmarkTable1Catalog(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.TableI()
		_ = experiments.WindowReport()
	}
}

// BenchmarkSecurityMatrix regenerates the §VI-B detection matrix and
// reports the detection rate as a metric (paper: 100%).
func BenchmarkSecurityMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.SecurityMatrix(experiments.Config{IonThreshold: 300, Repeats: 1})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			d, tot := experiments.DetectionRate(rows)
			b.ReportMetric(100*float64(d)/float64(tot), "%detected")
		}
	}
}

// ---- Core micro-benchmarks (hot-path costs; see DESIGN.md) ----
//
// The "ref" sub-benchmarks run the retained string-based reference
// implementation over the same fixture.

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

// BenchmarkObsCompileOctane measures one compile-heavy corpus program per
// iteration on a fresh engine: observability off, with a ring tracer, with
// the full stack (tracer + shared registry + audit log), and with the
// flight recorder armed (ring sink + watchdog + journal) but idle.
func BenchmarkObsCompileOctane(b *testing.B) {
	bench, err := octane.ByName("Richards")
	if err != nil {
		b.Fatal(err)
	}
	src := bench.Source(1)
	run := func(mk func(b *testing.B) engine.Config) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchRun(b, src, mk(b), nil)
			}
		}
	}
	b.Run("off", run(func(*testing.B) engine.Config {
		return engine.Config{IonThreshold: benchIonThreshold}
	}))
	b.Run("traced", run(func(*testing.B) engine.Config {
		return engine.Config{IonThreshold: benchIonThreshold, Tracer: obs.NewTracer(obs.NewRing(0))}
	}))
	full := func(views ...obs.Sink) engine.Config {
		return engine.Config{
			IonThreshold: benchIonThreshold,
			Tracer:       obs.NewTracer(append(obs.MultiSink{obs.NewAuditLog(nil)}, views...)),
			Metrics:      obs.NewRegistry(),
		}
	}
	b.Run("full", run(func(*testing.B) engine.Config { return full(obs.NewRing(0)) }))
	b.Run("flight-idle", run(func(b *testing.B) engine.Config {
		return full(obs.NewJournal(0),
			obs.NewFlightRecorder(b.TempDir(), obs.FlightOptions{MinSamples: 1 << 30}),
			obs.NewWatchdog(obs.WatchdogOptions{}))
	}))
}

// ---- Ablations (design choices called out in DESIGN.md) ----

// BenchmarkAblationDNAExtraction isolates the Δ-extraction cost: one Ion
// compilation of a representative hot function with and without the
// JITBULL observer installed (the paper's "no overhead with an empty DB"
// claim depends on this gap being paid only when VDCs are installed).
func BenchmarkAblationDNAExtraction(b *testing.B) {
	bench, err := octane.ByName("TypeScript")
	if err != nil {
		b.Fatal(err)
	}
	db1, bugs1, err := vulndb.BuildDB(1, benchIonThreshold)
	if err != nil {
		b.Fatal(err)
	}
	src := bench.Source(1)
	b.Run("compile-only", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchRun(b, src, engine.Config{IonThreshold: benchIonThreshold}, nil)
		}
	})
	b.Run("compile+extract", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchRun(b, src, engine.Config{IonThreshold: benchIonThreshold, Bugs: bugs1}, db1)
		}
	})
}

// BenchmarkAblationThresholdRatio sweeps the comparator's Thr and Ratio
// settings (paper: Thr=3, Ratio=50%) and reports the resulting
// false-positive rate on the corpus, quantifying the
// sensitivity/precision trade-off behind the defaults.
func BenchmarkAblationThresholdRatio(b *testing.B) {
	db, bugs, err := vulndb.BuildDB(4, benchIonThreshold)
	if err != nil {
		b.Fatal(err)
	}
	sweep := []struct {
		name  string
		thr   int
		ratio float64
	}{
		{"Thr1_Ratio25", 1, 0.25},
		{"Thr3_Ratio50", 3, 0.50}, // the paper's setting
		{"Thr5_Ratio75", 5, 0.75},
	}
	for _, s := range sweep {
		s := s
		b.Run(s.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var dis, njit float64
				for _, bench := range octane.Suite() {
					e, err := engine.New(bench.Source(1), engine.Config{IonThreshold: benchIonThreshold, Bugs: bugs})
					if err != nil {
						b.Fatal(err)
					}
					det := core.NewDetector(db)
					det.Thr = s.thr
					det.Ratio = s.ratio
					e.SetPolicy(det)
					if _, err := e.Run(); err != nil {
						b.Fatal(err)
					}
					dis += float64(e.Stats().NrDisJIT + e.Stats().NrNoJIT)
					njit += float64(e.Stats().NrJIT)
				}
				if i == 0 && njit > 0 {
					b.ReportMetric(100*dis/njit, "%flagged")
				}
			}
		})
	}
}

// BenchmarkAblationNoJITBaseline quantifies what the paper's §III-C
// strawman costs: the full corpus interpreted vs JITed.
func BenchmarkAblationNoJITBaseline(b *testing.B) {
	for _, mode := range []string{"interp", "jit"} {
		mode := mode
		b.Run(mode, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, bench := range octane.Microbenches() {
					cfg := engine.Config{DisableJIT: mode == "interp", IonThreshold: benchIonThreshold}
					benchRun(b, bench.Source(1), cfg, nil)
				}
			}
		})
	}
}
