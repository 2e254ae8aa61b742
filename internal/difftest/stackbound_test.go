package difftest

import (
	"testing"

	"github.com/jitbull/jitbull/internal/compiler"
	"github.com/jitbull/jitbull/internal/engine"
)

// TestOperandDepthBoundHolds is the property the indexed operand stack
// rests on: no activation ever needs more operand slots than the
// compiler's abstract stack walk granted its function. An activation's
// window is exactly NumLocals+MaxStack values long (a full slice
// expression caps it), so the interpreter itself is the checking build —
// one push past the bound is an index-out-of-range panic, which
// internal/interp's TestOperandStackIsExactlyMaxStack provokes on purpose.
// Here every corpus runs to completion under the interpreter with no such
// panic, and the two extreme shapes get the bound the source implies.
//
// The engine's interpreter runs superinstructions, which make no push for
// the ops they stand for; internal/interp's TestOperandDepthBoundHoldsUnfused
// runs the same corpus with every op alone, so that every push is made.
func TestOperandDepthBoundHolds(t *testing.T) {
	corpus, err := DepthCorpus()
	if err != nil {
		t.Fatal(err)
	}
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
	if got := prog.Main().MaxStack; got != depthNest+1 {
		t.Errorf("nested-expression: MaxStack = %d, want %d", got, depthNest+1)
	}
	prog, err = compiler.Compile(corpus["wide-frame"])
	if err != nil {
		t.Fatal(err)
	}
	if fn := prog.Funcs[prog.FuncByName["wide"]]; fn.NumLocals != depthLocals+1 || fn.MaxStack != 2 {
		t.Errorf("wide-frame: NumLocals = %d, MaxStack = %d, want %d and 2", fn.NumLocals, fn.MaxStack, depthLocals+1)
	}
}
