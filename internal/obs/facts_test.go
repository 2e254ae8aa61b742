package obs

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestNoDeadVocabulary holds the fact table to what the code does: every
// name is unique, every column says what the view it names really does
// with the fact, and every fact is stated by a non-test call site in the
// engine.
func TestNoDeadVocabulary(t *testing.T) {
	seen := map[string]bool{}
	for _, f := range Facts {
		if seen[f.Name] {
			t.Errorf("fact %q is listed twice", f.Name)
		}
		seen[f.Name] = true
	}

	// Each view renders exactly the facts its column marks (a decide is
	// audited with the decision it carries, below).
	for _, f := range append(Facts, Fact{Name: "mirbuild"}) {
		ev := fact(f.Name, "f", S("stage", "s"), S("reason", "r"))
		ring, a := NewRing(4), NewAuditLog(nil)
		MultiSink{ring, a}.Record(ev)
		if ring.Len() != 1 {
			t.Errorf("%s: the ring did not keep it", f.Name)
		}
		if got := Lifecycles(ring.Events())["f"]; (len(got) == 1) != (f.Name != "mirbuild") {
			t.Errorf("%s: the lifecycle reading selected %d event(s)", f.Name, len(got))
		}
		if evs := a.Events(); (len(evs) == 1) != (f.Verdict != "") || (len(evs) == 1 && evs[0].Verdict != f.Verdict) {
			t.Errorf("%s: audit log rendered %+v, the table says verdict %q", f.Name, evs, f.Verdict)
		}
	}

	decide := fact(FactDecide, "f")
	decide.Decision = &Decision{DisabledPasses: []string{"GVN"}, Matches: []Match{{CVE: "CVE-A", VDCFunc: "poc", Pass: "GVN"}}}
	a := NewAuditLog(nil)
	a.Record(decide)
	if evs := a.Events(); len(evs) != 1 || evs[0].Verdict != VerdictDisablePass || len(evs[0].Matches) != 1 {
		t.Errorf("a decide with its decision audited as %+v", evs)
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

	// Who states them: any mention of obs.FactX in the engine (it consumes
	// none), and in this package the name handed to a tracer.
	stated := map[string]bool{}
	for _, dir := range []string{"../engine", "."} {
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
		l.Record(Event{Name: FactDecide, Func: "f" + strconv.Itoa(i), Decision: &Decision{}})
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

// TestParentWrittenFixturesDecode: the audit JSONL in testdata was written
// by `jitbull run` on the deopt-storm script at the last commit before the
// views became sinks of one stream; the wire format did not move, so
// today's reader decodes it. That run had the anomaly watchdog on, which
// is gone: its "anomaly" verdict is in no row of the table any more, and
// the reader decodes it like any other verdict string.
func TestParentWrittenFixturesDecode(t *testing.T) {
	evs, err := ReadAuditFile(filepath.Join("testdata", "parent_audit.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 2 || evs[0].Verdict != "anomaly" || evs[0].Stage != "deopt-storm" ||
		evs[1].Verdict != "requalify" || evs[1].Func != "hot" || evs[1].Stage != "deopt" {
		t.Fatalf("decoded audit = %+v", evs)
	}
	for _, ev := range evs {
		known := ev.Verdict == "anomaly"
		for _, f := range Facts {
			known = known || f.Verdict == ev.Verdict
		}
		if !known {
			t.Errorf("verdict %q of the parent's log is in no row of the table", ev.Verdict)
		}
	}
}
