package difftest

import (
	"testing"

	"github.com/jitbull/jitbull/internal/compiler"
	"github.com/jitbull/jitbull/internal/mirbuild"
	"github.com/jitbull/jitbull/internal/parser"
	"github.com/jitbull/jitbull/internal/passes"
	"github.com/jitbull/jitbull/internal/progen"
	"github.com/jitbull/jitbull/internal/value"
)

// fuzzConfigs is a reduced matrix for fuzzing: interpreter reference,
// baseline, full JIT, JIT with per-pass verification, and the executor
// twins of the JIT cell (held to its step count), under a small step
// budget so looping inputs terminate quickly.
func fuzzConfigs() []Config {
	return Matrix(Options{MaxSteps: 2_000_000, Ablate: []string{}, CheckIR: true, Fusion: true, MC: true})
}

// seedCorpus feeds the generated and hand-written corpora to a fuzz target.
func seedCorpus(f *testing.F) {
	for seed := int64(0); seed < 12; seed++ {
		f.Add(progen.Generate(seed, progen.Options{}))
	}
	for _, src := range ExamplePrograms() {
		f.Add(src)
	}
}

// FuzzDiffTiers feeds arbitrary sources through the tier matrix and demands
// agreement. Inputs that fail to parse are still interesting: every tier
// must report the same clean setup error, and nothing may panic.
func FuzzDiffTiers(f *testing.F) {
	seedCorpus(f)
	configs := fuzzConfigs()
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<16 {
			t.Skip("oversized input")
		}
		obs, divs := Diff(src, configs)
		for _, o := range obs {
			if o.ErrKind == "budget" {
				// Tiers count steps at different granularities, so budget
				// truncation points legitimately differ.
				t.Skip("step budget hit")
			}
		}
		if len(divs) > 0 {
			t.Errorf("%s\nprogram:\n%s", Report("fuzz", divs), src)
		}
	})
}

// FuzzPassPipeline compiles every function of arbitrary sources to MIR and
// runs the full optimization pipeline with per-pass verification: no pass
// may break SSA invariants on any reachable input, and nothing may panic.
func FuzzPassPipeline(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<16 {
			t.Skip("oversized input")
		}
		prog, err := compiler.Compile(src)
		if err != nil {
			t.Skip("does not compile")
		}
		astProg, err := parser.Parse(src)
		if err != nil {
			t.Skip("does not parse")
		}
		for _, fd := range astProg.Funcs() {
			// Type parameters by the corpus naming convention (a*/b* are
			// arrays); shapes mirbuild cannot type are skipped, not failures.
			types := make([]value.Type, len(fd.Params))
			for i, p := range fd.Params {
				if len(p) > 0 && (p[0] == 'a' || p[0] == 'b') {
					types[i] = value.Array
				} else {
					types[i] = value.Number
				}
			}
			g, err := mirbuild.Build(prog, fd, mirbuild.Options{
				ParamTypes: types,
				GlobalType: func(int) value.Type { return value.Number },
				ReturnType: func(int) value.Type { return value.Number },
			})
			if err != nil {
				continue
			}
			if err := passes.RunWith(g, passes.RunOptions{CheckIR: true}); err != nil {
				t.Errorf("pipeline broke SSA for %s: %v\nprogram:\n%s", fd.Name, err, src)
			}
		}
	})
}
