package vulndb

// The paper's deterministic evaluation tables — Table I, the §III-C
// windows, the §VI-B matrix, Figure 4 and the comparator ablation — are
// rendered here as Markdown and must appear verbatim in EXPERIMENTS.md, so
// that file is their golden: a verdict change fails this test, and the
// failure prints the table to paste. Timings (Figures 5 and 6) come from
// bench/'s contrast cells; the two shape tests below hold what the figures
// rest on as properties of step and compile counts.

import (
	"fmt"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/jitbull/jitbull/internal/core"
	"github.com/jitbull/jitbull/internal/engine"
	"github.com/jitbull/jitbull/internal/octane"
	"github.com/jitbull/jitbull/internal/passes"
	"github.com/jitbull/jitbull/internal/variants"
)

// Octane runs of the golden use the Ion threshold the benchmark uses;
// demonstrators and their variants run at testThreshold. A VDC's DNA does
// not depend on the threshold it was extracted at (the demonstrators train
// 2000+ calls), so one extraction serves every table.
const octaneThreshold = 100

var extractAll = sync.OnceValues(func() ([]core.VDC, error) {
	var out []core.VDC
	for _, v := range All() {
		vdc, err := ExtractVDC(v, testThreshold)
		if err != nil {
			return nil, err
		}
		out = append(out, vdc)
	}
	return out, nil
})

// vdcs returns the fingerprints of All(), in order.
func vdcs(t *testing.T) []core.VDC {
	t.Helper()
	out, err := extractAll()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// dbOf returns a fresh database #n (the first n of All(), as BuildDB) and
// the bugs of a vulnerability window in which it is installed.
func dbOf(t *testing.T, n int) (*core.Database, passes.BugSet) {
	t.Helper()
	db, bugs := &core.Database{}, passes.BugSet{}
	for _, vdc := range vdcs(t)[:n] {
		db.Add(vdc)
		bugs[vdc.CVE] = true
	}
	return db, bugs
}

func TestEvaluationGolden(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, tab := range []struct {
		name   string
		render func(*testing.T) string
	}{
		{"TableI", func(*testing.T) string { return tableI() }},
		{"Windows", func(*testing.T) string { return windowTable() }},
		{"SecurityMatrix", securityMatrix},
		{"Fig4", falsePositives},
		{"Ablation", ablation},
	} {
		t.Run(tab.name, func(t *testing.T) {
			got := tab.render(t)
			if !strings.Contains(string(doc), got) {
				t.Fatalf("EXPERIMENTS.md does not hold the %s table as measured; paste this in its place:\n\n%s", tab.name, got)
			}
			t.Logf("\n%s", got)
		})
	}
}

// markdown renders a table, one row per slice, the first being the header.
func markdown(rows ...[]string) string {
	var sb strings.Builder
	for i, r := range rows {
		sb.WriteString("| " + strings.Join(r, " | ") + " |\n")
		if i == 0 {
			sb.WriteString(strings.Repeat("|---", len(r)) + "|\n")
		}
	}
	return sb.String()
}

func tableI() string {
	rows := [][]string{{"JIT", "CVEs (* = demonstrator code or write-up available, bold in the paper)"}}
	idx := map[string]int{}
	for _, e := range Catalog() {
		i, ok := idx[e.Target]
		if !ok {
			i = len(rows)
			idx[e.Target] = i
			rows = append(rows, []string{e.Target, ""})
		} else {
			rows[i][1] += ", "
		}
		rows[i][1] += e.CVE
		if e.HasVDC {
			rows[i][1] += "*"
		}
	}
	return markdown(rows...)
}

func windowTable() string {
	vulns := All()
	slices.SortStableFunc(vulns, func(a, b Vuln) int { return strings.Compare(a.Reported, b.Reported) })
	rows := [][]string{{"CVE", "reported", "patched", "window (days)", "outcome", "host pass"}}
	for _, v := range vulns {
		rows = append(rows, []string{v.CVE, v.Reported, v.Patched, fmt.Sprint(v.Window()), string(v.Outcome), v.HostPass})
	}
	n, cves := MaxOverlap(2019)
	slices.Sort(cves)
	return markdown(rows...) + fmt.Sprintf("\nAverage window: %.1f days. Most windows open at once in 2019: %d (%s).\n",
		AverageWindowDays(), n, strings.Join(cves, ", "))
}

// finish renders how a run ended: the completion value, or the error.
func finish(src string, cfg engine.Config, db *core.Database) (end string, matches int, err error) {
	e, err := engine.New(src, cfg)
	if err != nil {
		return "", 0, err
	}
	var det *core.Detector
	if db != nil {
		det = core.NewDetector(db)
		e.SetPolicy(det)
	}
	v, runErr := e.Run()
	if det != nil {
		matches = len(det.Matches)
	}
	if runErr != nil {
		return "error: " + runErr.Error(), matches, nil
	}
	return "result " + v.ToString(), matches, nil
}

// securityMatrix is §VI-B: each primary CVE's four variants against a
// database holding only the original demonstrator's DNA, with only that
// CVE's bug active. The last two columns run the same variant with all
// eight bugs active under DB #8 and compare its end with the interpreter's.
func securityMatrix(t *testing.T) string {
	db8, bugs8 := dbOf(t, 8)
	rows := [][]string{{"CVE", "variant", "exploits unprotected", "neutralized", "matched passes", "8 bugs, DB #8: matches", "8 bugs, DB #8: end"}}
	detected, equal, total := 0, 0, 0
	for i, v := range Primary() {
		db := &core.Database{}
		db.Add(vdcs(t)[i])
		renamed, err := variants.Rename(v.Demonstrator)
		if err != nil {
			t.Fatal(err)
		}
		minified, err := variants.Minify(v.Demonstrator)
		if err != nil {
			t.Fatal(err)
		}
		for _, vr := range []struct{ name, src string }{
			{"rename", renamed}, {"minify", minified}, {"reorder", v.ReorderVariant}, {"split", v.SplitVariant},
		} {
			un := Run(vr.src, v.Bug(), nil, testThreshold)
			prot := Run(vr.src, v.Bug(), db, testThreshold)
			neutralized := !prot.Exploited() && len(prot.Matches) > 0
			interp, _, err := finish(vr.src, engine.Config{DisableJIT: true}, nil)
			if err != nil {
				t.Fatal(err)
			}
			all, matches, err := finish(vr.src, engine.Config{Bugs: bugs8, IonThreshold: testThreshold}, db8)
			if err != nil {
				t.Fatal(err)
			}
			end := "= interpreter"
			if all != interp {
				end = all
			} else {
				equal++
			}
			if un.Exploited() && neutralized {
				detected++
			}
			total++
			rows = append(rows, []string{v.CVE, vr.name, fmt.Sprint(un.Exploited()), fmt.Sprint(neutralized),
				strings.Join(prot.MatchedPasses(), ", "), fmt.Sprint(matches), end})
		}
	}
	return markdown(rows...) + fmt.Sprintf("\nDetected and neutralized: %d/%d. With all eight bugs under DB #8, %d/%d end as the interpreter does.\n",
		detected, total, equal, total)
}

// verdictCounts runs the Octane suite at Source(scale) with the bugs of
// database #n active under a detector over it, tuned by tune when non-nil,
// and returns the per-benchmark Stats.
func verdictCounts(t *testing.T, n, scale int, tune func(*core.Detector)) []engine.Stats {
	t.Helper()
	db, bugs := dbOf(t, n)
	var out []engine.Stats
	for _, b := range octane.Suite() {
		e, err := engine.New(b.Source(scale), engine.Config{IonThreshold: octaneThreshold, Bugs: bugs})
		if err != nil {
			t.Fatal(err)
		}
		det := core.NewDetector(db)
		if tune != nil {
			tune(det)
		}
		e.SetPolicy(det)
		if _, err := e.Run(); err != nil {
			t.Fatalf("%s under #%d: %v", b.Name, n, err)
		}
		out = append(out, e.Stats())
	}
	return out
}

func pct(part, whole int) string {
	if whole == 0 {
		return "0%"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(part)/float64(whole))
}

// falsePositives is Figure 4: the benign suite at Source(4) inside the
// windows of DB #1, #4 and #8, each function counted once as JITed and, if
// JITBULL flagged it, as pass-disabled or de-JITed.
func falsePositives(t *testing.T) string {
	header := []string{"benchmark"}
	var cols [][]engine.Stats
	for _, n := range []int{1, 4, 8} {
		header = append(header, fmt.Sprintf("#%d JITed", n), fmt.Sprintf("#%d PassDis", n), fmt.Sprintf("#%d NoJIT", n))
		cols = append(cols, verdictCounts(t, n, 4, nil))
	}
	rows := [][]string{header}
	total := []string{"**all**"}
	for i, b := range octane.Suite() {
		row := []string{b.Name}
		for _, col := range cols {
			s := col[i]
			row = append(row, fmt.Sprint(s.NrJIT), fmt.Sprint(s.NrDisJIT), fmt.Sprint(s.NrNoJIT))
		}
		rows = append(rows, row)
	}
	for _, col := range cols {
		var jit, dis, nojit int
		for _, s := range col {
			jit, dis, nojit = jit+s.NrJIT, dis+s.NrDisJIT, nojit+s.NrNoJIT
		}
		total = append(total, fmt.Sprint(jit), pct(dis, jit), pct(nojit, jit))
	}
	return markdown(append(rows, total)...)
}

// ablation sweeps the comparator's (Thr, Ratio): detection is the four
// primary rename variants against their single-VDC databases, the benign
// side the suite at Source(1) under DB #4.
func ablation(t *testing.T) string {
	rows := [][]string{{"Thr", "Ratio", "variants detected", "benign flagged"}}
	for _, s := range []struct {
		thr   int
		ratio float64
	}{{1, 0.25}, {2, 0.50}, {3, 0.50}, {4, 0.60}, {6, 0.80}} {
		tune := func(d *core.Detector) { d.Thr, d.Ratio = s.thr, s.ratio }
		detected := 0
		for i, v := range Primary() {
			src, err := variants.Rename(v.Demonstrator)
			if err != nil {
				t.Fatal(err)
			}
			db := &core.Database{}
			db.Add(vdcs(t)[i])
			e, err := engine.New(src, engine.Config{Bugs: v.Bug(), IonThreshold: testThreshold})
			if err != nil {
				t.Fatal(err)
			}
			det := core.NewDetector(db)
			tune(det)
			e.SetPolicy(det)
			_, runErr := e.Run()
			exploited := engine.IsCrash(runErr) || engine.IsHijack(runErr) || e.Arena().Crashed() != nil || e.Hijacked() != nil
			if !exploited && len(det.Matches) > 0 {
				detected++
			}
		}
		var jit, flagged int
		for _, st := range verdictCounts(t, 4, 1, tune) {
			jit, flagged = jit+st.NrJIT, flagged+st.NrDisJIT+st.NrNoJIT
		}
		thr, ratio := fmt.Sprint(s.thr), fmt.Sprintf("%.0f%%", 100*s.ratio)
		if s.thr == 3 && s.ratio == 0.50 {
			thr, ratio = "**"+thr+"**", "**"+ratio+"** (paper)"
		}
		rows = append(rows, []string{thr, ratio, fmt.Sprintf("%d/%d", detected, len(Primary())),
			fmt.Sprintf("%d/%d (%s)", flagged, jit, pct(flagged, jit))})
	}
	return markdown(rows...)
}

// shape is what one run's execution time rests on: the engine counters and
// how many steps ran interpreted and natively.
type shape struct {
	stats          engine.Stats
	interp, native int64
}

const shapeThreshold = 40

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

// TestPerformanceShapeMatchesFig5 holds what Figure 5's bars rest on: NoJIT
// interprets what JIT runs natively, JITBULL with an empty database changes
// nothing about what is compiled or run, and a protected run stays far from
// NoJIT.
func TestPerformanceShapeMatchesFig5(t *testing.T) {
	db4, bugs4 := dbOf(t, 4)
	for _, b := range octane.All() {
		src := b.Source(1)
		nojit := runShape(t, src, engine.Config{DisableJIT: true}, nil)
		jit := runShape(t, src, engine.Config{IonThreshold: shapeThreshold}, nil)
		jb0 := runShape(t, src, engine.Config{IonThreshold: shapeThreshold}, &core.Database{})
		jb4 := runShape(t, src, engine.Config{IonThreshold: shapeThreshold, Bugs: bugs4}, db4)
		if nojit.native != 0 || nojit.stats.Compiles != 0 {
			t.Errorf("%s: NoJIT ran native code: %+v", b.Name, nojit)
		}
		if jit.native == 0 || nojit.interp <= jit.interp {
			t.Errorf("%s: NoJIT interpreted %d steps, JIT %d (+%d native): JIT moved no work out of the interpreter",
				b.Name, nojit.interp, jit.interp, jit.native)
		}
		if jb0 != jit {
			t.Errorf("%s: JB#0 differs from JIT:\nJB#0 %+v\nJIT  %+v", b.Name, jb0, jit)
		}
		if jb4.stats.NrNoJIT >= jb4.stats.NrJIT || jb4.native == 0 || jb4.interp >= nojit.interp {
			t.Errorf("%s: JB#4 collapsed towards NoJIT: %+v (NoJIT interprets %d)", b.Name, jb4, nojit.interp)
		}
	}
}

// TestScalabilityShapeMatchesFig6: with #1..#8 VDCs installed, Figure 6's
// two highlighted programs never collapse to NoJIT — fewer functions are
// forced to the interpreter than were compiled, and native code still runs.
func TestScalabilityShapeMatchesFig6(t *testing.T) {
	for n := 1; n <= len(All()); n++ {
		db, bugs := dbOf(t, n)
		for _, name := range []string{"Splay", "TypeScript"} {
			b, err := octane.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			s := runShape(t, b.Source(1), engine.Config{IonThreshold: shapeThreshold, Bugs: bugs}, db)
			if s.stats.NrNoJIT >= s.stats.NrJIT || s.native == 0 {
				t.Errorf("%s #%d looks like a JIT collapse: %+v", name, n, s)
			}
		}
	}
}
