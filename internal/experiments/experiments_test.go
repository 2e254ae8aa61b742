package experiments

import (
	"strings"
	"testing"
	"time"

	"github.com/jitbull/jitbull/internal/core"
	"github.com/jitbull/jitbull/internal/engine"
	"github.com/jitbull/jitbull/internal/octane"
	"github.com/jitbull/jitbull/internal/vulndb"
)

var fastCfg = Config{IonThreshold: 40, Repeats: 1}

func TestSecurityMatrix100Percent(t *testing.T) {
	rows, err := SecurityMatrix(Config{IonThreshold: 300, Repeats: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 16 {
		t.Fatalf("matrix rows = %d, want 16 (4 CVEs x 4 variants)", len(rows))
	}
	detected, total := DetectionRate(rows)
	if detected != total {
		t.Fatalf("detection rate %d/%d, paper reports 100%%:\n%s",
			detected, total, RenderSecurityMatrix(rows))
	}
}

func TestFalsePositivesShapeMatchesFig4(t *testing.T) {
	rows1, err := FalsePositives(1, fastCfg)
	if err != nil {
		t.Fatal(err)
	}
	// Paper, DB #1: pass-disable rate 0-5%% for most benchmarks, and the
	// JIT engine is never completely disabled.
	var ts1 float64
	for _, r := range rows1 {
		if r.PctNoJIT != 0 {
			t.Errorf("#1: %s has %%NoJIT = %.1f, paper reports 0", r.Benchmark, r.PctNoJIT)
		}
		if r.Benchmark == "TypeScript" {
			ts1 = r.PctPassDis
		}
	}
	// Paper: only TypeScript shows similarity with CVE-2019-17026 at #1.
	if ts1 == 0 {
		t.Errorf("#1: TypeScript should show a (small) similarity with CVE-2019-17026")
	}

	rows4, err := FalsePositives(4, fastCfg)
	if err != nil {
		t.Fatal(err)
	}
	// Paper, DB #4: rates grow (10-65%% depending on benchmark); at least
	// the aggregate must not shrink.
	var sum1, sum4 float64
	for i := range rows4 {
		sum1 += rows1[i].PctPassDis
		sum4 += rows4[i].PctPassDis
	}
	if sum4 < sum1 {
		t.Errorf("FP rate should not shrink with more VDCs: #1 total %.1f vs #4 total %.1f", sum1, sum4)
	}
	t.Logf("\n%s\n%s", RenderFalsePositives(1, rows1), RenderFalsePositives(4, rows4))
}

// shape is the deterministic observation of one engine run: the counters
// the Fig. 5/6 shape is asserted on. Wall time is measured by bench/, with
// its own noise model: go test runs packages concurrently, so a timing
// ratio taken here measures what else the box is doing.
type shape struct {
	stats          engine.Stats
	interp, native int64 // bytecode instructions interpreted / LIR ops run natively
}

func runShape(t *testing.T, src string, cfg engine.Config, db *core.Database) shape {
	t.Helper()
	e, err := engine.New(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if db != nil {
		e.SetPolicy(core.NewDetector(db))
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	native := e.VM.NativeSteps()
	return shape{stats: e.Stats(), interp: e.VM.Steps() - native, native: native}
}

func TestPerformanceShapeMatchesFig5(t *testing.T) {
	const thr = 40
	db4, bugs4, err := vulndb.BuildDB(4, thr)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range octane.All() {
		src := b.Source(1)
		nojit := runShape(t, src, engine.Config{DisableJIT: true}, nil)
		jit := runShape(t, src, engine.Config{IonThreshold: thr}, nil)
		jb0 := runShape(t, src, engine.Config{IonThreshold: thr}, &core.Database{})
		jb4 := runShape(t, src, engine.Config{IonThreshold: thr, Bugs: bugs4}, db4)

		// NoJIT is slower than JIT because it interprets everything JIT
		// runs natively.
		if nojit.native != 0 || nojit.stats.Compiles != 0 {
			t.Errorf("%s: NoJIT ran native code: %+v", b.Name, nojit)
		}
		if jit.native == 0 || nojit.interp <= jit.interp {
			t.Errorf("%s: NoJIT interpreted %d steps, JIT %d (+%d native): JIT moved no work out of the interpreter",
				b.Name, nojit.interp, jit.interp, jit.native)
		}
		// JITBULL with an empty DB is near-free because it changes nothing
		// about what is compiled or executed.
		if jb0 != jit {
			t.Errorf("%s: JB#0 differs from JIT:\nJB#0 %+v\nJIT  %+v", b.Name, jb0, jit)
		}
		// Protected runs stay far below NoJIT: some function still runs
		// natively, so less is interpreted than with the JIT off.
		if jb4.stats.NrNoJIT >= jb4.stats.NrJIT || jb4.native == 0 || jb4.interp >= nojit.interp {
			t.Errorf("%s: JB#4 collapsed towards NoJIT: %+v (NoJIT interprets %d)", b.Name, jb4, nojit.interp)
		}
	}
	// The timing harness itself still produces one well-formed row.
	rows, err := Performance(pick(t, "Crypto"), Config{IonThreshold: thr, Repeats: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].NoJIT <= 0 || rows[0].JIT <= 0 || rows[0].JB0 <= 0 || rows[0].JB1 <= 0 || rows[0].JB4 <= 0 {
		t.Errorf("Performance rows malformed: %+v", rows)
	}
}

func TestScalabilityShapeMatchesFig6(t *testing.T) {
	const thr = 40
	benches := pick(t, "Splay", "TypeScript")
	for n := 1; n <= 8; n++ {
		db, bugs, err := vulndb.BuildDB(n, thr)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range benches {
			// The protected run never collapses to NoJIT: with #n VDCs
			// installed, fewer functions are forced to the interpreter than
			// were compiled, and native code still runs.
			s := runShape(t, b.Source(1), engine.Config{IonThreshold: thr, Bugs: bugs}, db)
			if s.stats.NrNoJIT >= s.stats.NrJIT || s.native == 0 {
				t.Errorf("%s #%d looks like a JIT collapse: %+v", b.Name, n, s)
			}
		}
	}
	rows, err := Scalability(benches[:1], 8, Config{IonThreshold: thr, Repeats: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || len(rows[0].Times) != 8 || rows[0].JIT <= 0 {
		t.Fatalf("Scalability rows malformed: %+v", rows)
	}
}

func TestTablesRender(t *testing.T) {
	t1 := TableI()
	for _, want := range []string{"TurboFan", "IonMonkey", "Chakra JIT", "CVE-2019-17026*"} {
		if !strings.Contains(t1, want) {
			t.Errorf("Table I missing %q:\n%s", want, t1)
		}
	}
	t2 := TableII()
	if !strings.Contains(t2, "Runtime") {
		t.Errorf("Table II malformed:\n%s", t2)
	}
	w := WindowReport()
	if !strings.Contains(w, "average window") || !strings.Contains(w, "CVE-2019-11707") {
		t.Errorf("window report malformed:\n%s", w)
	}
}

func TestOverheadHelper(t *testing.T) {
	if o := Overhead(150*time.Millisecond, 100*time.Millisecond); o < 49.9 || o > 50.1 {
		t.Errorf("Overhead = %v, want 50", o)
	}
	if o := Overhead(time.Second, 0); o != 0 {
		t.Errorf("Overhead with zero base = %v", o)
	}
}

func pick(t *testing.T, names ...string) []octane.Benchmark {
	t.Helper()
	var out []octane.Benchmark
	for _, n := range names {
		b, err := octane.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

func TestThresholdAblationTradeoff(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep experiment")
	}
	rows, err := ThresholdAblation(Config{IonThreshold: 300, Repeats: 1, Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	var atPaper, loosest, strictest *AblationRow
	for i := range rows {
		switch {
		case rows[i].Thr == 3 && rows[i].Ratio == 0.5:
			atPaper = &rows[i]
		case rows[i].Thr == 1:
			loosest = &rows[i]
		case rows[i].Thr == 6:
			strictest = &rows[i]
		}
	}
	if atPaper == nil || loosest == nil || strictest == nil {
		t.Fatal("sweep rows missing")
	}
	if atPaper.Detected != atPaper.DetectTotal {
		t.Fatalf("paper setting must keep 100%% detection: %+v", atPaper)
	}
	if strictest.Detected >= atPaper.Detected && strictest.Thr > atPaper.Thr {
		// Stricter settings should (weakly) lose detections.
		if strictest.Detected > atPaper.Detected {
			t.Fatalf("stricter setting detected more: %+v vs %+v", strictest, atPaper)
		}
	}
	if loosest.FlaggedPct < atPaper.FlaggedPct {
		t.Fatalf("loosest setting should flag at least as much: %+v vs %+v", loosest, atPaper)
	}
	t.Logf("\n%s", RenderAblation(rows))
}
