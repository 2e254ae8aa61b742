package mirbuild_test

import (
	"errors"
	"testing"

	"github.com/jitbull/jitbull/internal/compiler"
	"github.com/jitbull/jitbull/internal/mirbuild"
	"github.com/jitbull/jitbull/internal/parser"
	"github.com/jitbull/jitbull/internal/passes"
	"github.com/jitbull/jitbull/internal/progen"
	"github.com/jitbull/jitbull/internal/value"
)

// TestStormFunctionsBuild builds every function of the compile_storm
// programs under the corpus type convention (parameters a and b are
// arrays, everything else a number) and runs the verified pipeline on each
// graph: mirbuild may decline a function as not JIT-able, but it must never
// hand back, or reject, a graph it built wrong.
func TestStormFunctionsBuild(t *testing.T) {
	built, declined := 0, 0
	for seed := int64(1000); seed < 1048; seed++ {
		src := progen.Generate(seed, progen.Options{Funcs: 8, MaxStmts: 10, Train: 130})
		prog, err := compiler.Compile(src)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, fd := range parser.MustParse(src).Funcs() {
			types := make([]value.Type, len(fd.Params))
			for i, p := range fd.Params {
				types[i] = value.Number
				if p == "a" || p == "b" {
					types[i] = value.Array
				}
			}
			g, err := mirbuild.Build(prog, fd, mirbuild.Options{
				ParamTypes: types,
				GlobalType: func(int) value.Type { return value.Number },
				ReturnType: func(int) value.Type { return value.Number },
			})
			switch {
			case errors.Is(err, mirbuild.ErrUnsupported):
				declined++
				continue
			case err != nil:
				t.Errorf("seed %d %s: %v", seed, fd.Name, err)
				continue
			}
			built++
			if err := passes.RunWith(g, passes.RunOptions{CheckIR: true}); err != nil {
				t.Errorf("seed %d %s: pipeline: %v", seed, fd.Name, err)
			}
		}
	}
	t.Logf("%d functions built, %d declined as not JIT-able", built, declined)
}
