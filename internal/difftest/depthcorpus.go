package difftest

import (
	"fmt"
	"strings"

	"github.com/jitbull/jitbull/internal/octane"
	"github.com/jitbull/jitbull/internal/progen"
	"github.com/jitbull/jitbull/internal/variants"
	"github.com/jitbull/jitbull/internal/vulndb"
)

// The two extreme shapes of DepthCorpus: a nested expression whose every
// open parenthesis holds one operand, and a frame far wider than any
// corpus function's.
const (
	depthNest   = 300
	depthLocals = 200
)

// DepthCorpus returns the programs the compiler's operand-depth bound
// (Function.MaxStack) is held to: the Octane analogues at Source(1), the
// 33 demonstrator variants, progen seeds 0–199, the example corpus (with
// progen seeds 0–11, the FuzzDiffTiers seed corpus), a 300-deep nested
// expression ("nested-expression") and a 200-local frame ("wide-frame").
func DepthCorpus() (map[string]string, error) {
	corpus := map[string]string{}
	for _, b := range octane.All() {
		corpus["octane/"+b.Name] = b.Source(1)
	}
	demos, err := demonstratorVariants()
	if err != nil {
		return nil, err
	}
	for name, src := range demos {
		corpus["vulndb/"+name] = src
	}
	for seed := int64(0); seed < 200; seed++ {
		corpus[fmt.Sprintf("progen/%d", seed)] = progen.Generate(seed, progen.Options{})
	}
	for name, src := range ExamplePrograms() {
		corpus["example/"+name] = src
	}

	corpus["nested-expression"] = "var result = " + strings.Repeat("(1 + ", depthNest) + "1" + strings.Repeat(")", depthNest) + ";"
	var wide strings.Builder
	wide.WriteString("function wide(p) {\n")
	for i := 0; i < depthLocals; i++ {
		fmt.Fprintf(&wide, "  var v%d = p + %d;\n", i, i)
	}
	wide.WriteString("  return v0")
	for i := 1; i < depthLocals; i++ {
		fmt.Fprintf(&wide, " + v%d", i)
	}
	wide.WriteString(";\n}\nvar result = wide(1) + wide(2);")
	corpus["wide-frame"] = wide.String()
	return corpus, nil
}

// demonstratorVariants renders the 33 demonstrator scripts: every CVE's
// original, renamed and minified form, the primary CVEs' reorder and split
// variants, and the one alternative implementation.
func demonstratorVariants() (map[string]string, error) {
	out := map[string]string{}
	for _, v := range vulndb.All() {
		renamed, err := variants.Rename(v.Demonstrator)
		if err != nil {
			return nil, err
		}
		minified, err := variants.Minify(v.Demonstrator)
		if err != nil {
			return nil, err
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
		return nil, fmt.Errorf("rendered %d demonstrator variants, want 33", len(out))
	}
	return out, nil
}
