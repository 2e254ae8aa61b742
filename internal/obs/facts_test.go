package obs

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestNoDeadVocabulary holds the fact table to what the code does: every
// name is unique, every column says what the view it names really does
// with the fact, and every fact is stated by a non-test call site — the
// engine and the store for all but the watchdog's own anomaly.
func TestNoDeadVocabulary(t *testing.T) {
	seen := map[string]bool{}
	for _, f := range Facts {
		if seen[f.Name] {
			t.Errorf("fact %q is listed twice", f.Name)
		}
		seen[f.Name] = true
	}

	// Each view renders exactly the facts its column marks. The arguments
	// are the ones a view asks for before it will render: a queue wait
	// counts only when rejected.
	for _, f := range append(Facts, Fact{Name: "mirbuild"}) {
		ev := fact(f.Name, "f", S("result", "rejected"), S("tier", "ion"), S("stage", "s"), S("reason", "r"))
		ring, j, a, w := NewRing(4), NewJournal(0), NewAuditLog(nil), NewWatchdog(WatchdogOptions{Detectors: []Detector{}})
		MultiSink{ring, j, a, w}.Record(ev)
		if ring.Len() != 1 {
			t.Errorf("%s: the ring did not keep it", f.Name)
		}
		if evs := j.Events("f"); (len(evs) == 1) != (f.Stage != "") || (len(evs) == 1 && evs[0].Stage != f.Stage) {
			t.Errorf("%s: journal rendered %+v, the table says stage %q", f.Name, evs, f.Stage)
		}
		if evs := a.Events(); (len(evs) == 1) != (f.Verdict != "") || (len(evs) == 1 && evs[0].Verdict != f.Verdict) {
			t.Errorf("%s: audit log rendered %+v, the table says verdict %q", f.Name, evs, f.Verdict)
		}
		if (w.signals == 1) != f.Watch {
			t.Errorf("%s: watchdog counted %d signal(s), the table says watch=%v", f.Name, w.signals, f.Watch)
		}
	}

	// The constants of facts.go, by value.
	fset := token.NewFileSet()
	consts := map[string]string{}
	file, err := parser.ParseFile(fset, "facts.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	ast.Inspect(file, func(n ast.Node) bool {
		if vs, ok := n.(*ast.ValueSpec); ok && strings.HasPrefix(vs.Names[0].Name, "Fact") && len(vs.Values) == 1 {
			if lit, ok := vs.Values[0].(*ast.BasicLit); ok {
				consts[vs.Names[0].Name], _ = strconv.Unquote(lit.Value)
			}
		}
		return true
	})
	if len(consts) != len(Facts) {
		t.Errorf("facts.go declares %d Fact constants, the table has %d rows", len(consts), len(Facts))
	}
	for name, value := range consts {
		if !seen[value] {
			t.Errorf("%s = %q is not in the table", name, value)
		}
	}

	// Who states them: any mention of obs.FactX in the engine and the store
	// (they consume none), and in this package the name handed to a tracer.
	stated := map[string]bool{}
	for _, dir := range []string{"../engine", "../store", "."} {
		paths, _ := filepath.Glob(filepath.Join(dir, "*.go"))
		for _, path := range paths {
			if strings.HasSuffix(path, "_test.go") || path == "facts.go" {
				continue
			}
			src, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			ast.Inspect(src, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if pkg, ok := n.X.(*ast.Ident); ok && pkg.Name == "obs" {
						stated[n.Sel.Name] = true
					}
				case *ast.CallExpr:
					if fun, ok := n.Fun.(*ast.SelectorExpr); ok && dir == "." && (fun.Sel.Name == "Instant" || fun.Sel.Name == "Begin") && len(n.Args) > 1 {
						if id, ok := n.Args[1].(*ast.Ident); ok {
							stated[id.Name] = true
						}
					}
				}
				return true
			})
		}
	}
	for name := range consts {
		if !stated[name] {
			t.Errorf("no call site states %s", name)
		}
	}
}

// TestAuditLogRetentionIsBounded: a long-lived run keeps the newest events
// in memory and counts the rest, while the JSONL stream stays complete.
func TestAuditLogRetentionIsBounded(t *testing.T) {
	var file strings.Builder
	l := NewAuditLog(&file)
	if l.events.max != DefaultRingCapacity {
		t.Fatalf("default retention = %d, want DefaultRingCapacity", l.events.max)
	}
	l.events.max = 4
	for i := 0; i < 10; i++ {
		l.Append(AuditEvent{Func: "f" + strconv.Itoa(i), Verdict: VerdictGo})
	}
	evs := l.Events()
	if len(evs) != 4 || l.Len() != 4 || l.Dropped() != 6 {
		t.Fatalf("retained %d (Len %d), dropped %d; want 4, 4, 6", len(evs), l.Len(), l.Dropped())
	}
	for i, ev := range evs {
		if want := "f" + strconv.Itoa(6+i); ev.Func != want || ev.Seq != uint64(7+i) {
			t.Fatalf("retained event %d = %s #%d, want %s #%d (the newest, numbered as recorded)", i, ev.Func, ev.Seq, want, 7+i)
		}
	}
	onDisk, err := ReadAudit(strings.NewReader(file.String()))
	if err != nil || len(onDisk) != 10 || onDisk[0].Func != "f0" || onDisk[9].Seq != 10 {
		t.Fatalf("JSONL stream has %d line(s) (err %v), want all 10 in order", len(onDisk), err)
	}
}

// TestParentWrittenFixturesDecode: the journey dump and the audit JSONL in
// testdata were written by `jitbull run` on the deopt-storm script at the
// last commit before the views became sinks of one stream; the wire
// formats did not move, so today's readers render them.
func TestParentWrittenFixturesDecode(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "parent_journey.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	j, err := DecodeJourney(f)
	if err != nil {
		t.Fatal(err)
	}
	if fns := j.Funcs(); len(fns) != 2 || fns[0] != "flip" || fns[1] != "hot" || j.Total() != 22 {
		t.Fatalf("decoded funcs %v, total %d; want [flip hot], 22", fns, j.Total())
	}
	var stages []string
	for _, ev := range j.Events("hot") {
		stages = append(stages, ev.Stage)
	}
	// Every stage the old writer used is one the table still renders.
	for _, s := range stages {
		known := false
		for _, f := range Facts {
			known = known || f.Stage == s
		}
		if !known {
			t.Errorf("stage %q of the parent's dump is in no row of the table", s)
		}
	}
	if tl := j.RenderTimeline("hot"); !strings.Contains(tl, "requalified") || !strings.Contains(tl, "osr-entry") {
		t.Errorf("timeline of the parent's dump lost waypoints:\n%s", tl)
	}

	evs, err := ReadAuditFile(filepath.Join("testdata", "parent_audit.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 2 || evs[0].Verdict != "anomaly" || evs[0].Stage != "deopt-storm" ||
		evs[1].Verdict != "requalify" || evs[1].Func != "hot" || evs[1].Stage != "deopt" {
		t.Fatalf("decoded audit = %+v", evs)
	}
	for _, ev := range evs {
		known := false
		for _, f := range Facts {
			known = known || f.Verdict == ev.Verdict
		}
		if !known {
			t.Errorf("verdict %q of the parent's log is in no row of the table", ev.Verdict)
		}
	}
}
