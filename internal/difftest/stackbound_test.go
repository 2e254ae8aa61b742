package difftest

import (
	"fmt"
	"strings"
	"testing"

	"github.com/jitbull/jitbull/internal/compiler"
	"github.com/jitbull/jitbull/internal/engine"
	"github.com/jitbull/jitbull/internal/octane"
	"github.com/jitbull/jitbull/internal/progen"
	"github.com/jitbull/jitbull/internal/variants"
	"github.com/jitbull/jitbull/internal/vulndb"
)

// demonstratorVariants renders the 33 demonstrator scripts: every CVE's
// original, renamed and minified form, the primary CVEs' reorder and split
// variants, and the one alternative implementation.
func demonstratorVariants(t *testing.T) map[string]string {
	out := map[string]string{}
	for _, v := range vulndb.All() {
		renamed, err := variants.Rename(v.Demonstrator)
		if err != nil {
			t.Fatal(err)
		}
		minified, err := variants.Minify(v.Demonstrator)
		if err != nil {
			t.Fatal(err)
		}
		for name, src := range map[string]string{
			"original": v.Demonstrator, "rename": renamed, "minify": minified,
			"reorder": v.ReorderVariant, "split": v.SplitVariant, "alt": v.AltImplementation,
		} {
			if src != "" {
				out[v.CVE+"/"+name] = src
			}
		}
	}
	if len(out) != 33 {
		t.Fatalf("rendered %d demonstrator variants, want 33", len(out))
	}
	return out
}

// TestOperandDepthBoundHolds is the property the indexed operand stack
// rests on: no activation ever needs more operand slots than the
// compiler's abstract stack walk granted its function. An activation's
// window is exactly NumLocals+MaxStack values long (a full slice
// expression caps it), so the interpreter itself is the checking build —
// one push past the bound is an index-out-of-range panic, which
// internal/interp's TestOperandStackIsExactlyMaxStack provokes on purpose.
// Here every corpus runs to completion under the interpreter with no such
// panic, and the two extreme shapes get the bound the source implies.
func TestOperandDepthBoundHolds(t *testing.T) {
	corpus := map[string]string{}
	for _, b := range octane.All() {
		corpus["octane/"+b.Name] = b.Source(1)
	}
	for name, src := range demonstratorVariants(t) {
		corpus["vulndb/"+name] = src
	}
	for seed := int64(0); seed < 200; seed++ {
		corpus[fmt.Sprintf("progen/%d", seed)] = progen.Generate(seed, progen.Options{})
	}
	// The FuzzDiffTiers seed corpus: progen seeds 0–11 (above) and the
	// hand-written examples.
	for name, src := range ExamplePrograms() {
		corpus["example/"+name] = src
	}

	// 1+(1+(1+...)): every open parenthesis holds one operand.
	const nest = 300
	corpus["nested-expression"] = "var result = " + strings.Repeat("(1 + ", nest) + "1" + strings.Repeat(")", nest) + ";"
	// A frame far wider than any corpus function's.
	const locals = 200
	var wide strings.Builder
	wide.WriteString("function wide(p) {\n")
	for i := 0; i < locals; i++ {
		fmt.Fprintf(&wide, "  var v%d = p + %d;\n", i, i)
	}
	wide.WriteString("  return v0")
	for i := 1; i < locals; i++ {
		fmt.Fprintf(&wide, " + v%d", i)
	}
	wide.WriteString(";\n}\nvar result = wide(1) + wide(2);")
	corpus["wide-frame"] = wide.String()

	for name, src := range corpus {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: interpreter panicked: %v", name, r)
				}
			}()
			// Script-level errors are fine (the type-confusion demonstrators
			// end in one when interpreted); only a compile failure or a Go
			// panic is not.
			if e, _, err := engine.RunScript(src, engine.Config{DisableJIT: true}); e == nil {
				t.Errorf("%s: %v", name, err)
			}
		}()
	}

	prog, err := compiler.Compile(corpus["nested-expression"])
	if err != nil {
		t.Fatal(err)
	}
	if got := prog.Main().MaxStack; got != nest+1 {
		t.Errorf("nested-expression: MaxStack = %d, want %d", got, nest+1)
	}
	prog, err = compiler.Compile(corpus["wide-frame"])
	if err != nil {
		t.Fatal(err)
	}
	if fn := prog.Funcs[prog.FuncByName["wide"]]; fn.NumLocals != locals+1 || fn.MaxStack != 2 {
		t.Errorf("wide-frame: NumLocals = %d, MaxStack = %d, want %d and 2", fn.NumLocals, fn.MaxStack, locals+1)
	}
}
