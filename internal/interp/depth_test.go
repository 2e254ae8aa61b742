package interp_test

import (
	"io"
	"testing"

	"github.com/jitbull/jitbull/internal/compiler"
	"github.com/jitbull/jitbull/internal/difftest"
	"github.com/jitbull/jitbull/internal/heap"
	"github.com/jitbull/jitbull/internal/interp"
)

// TestOperandDepthBoundHoldsUnfused runs difftest's depth corpus on the
// unfused stream. A superinstruction makes no push for the ops it stands
// for (`const 1; add` is one op that pushes nothing), so the corpus run
// through the engine (difftest's TestOperandDepthBoundHolds) no longer
// makes every push the compiler's MaxStack has to cover: the innermost
// operand of the 300-deep nested expression is one of them. Here every op
// runs alone, and one push past the bound is an index-out-of-range panic.
func TestOperandDepthBoundHoldsUnfused(t *testing.T) {
	corpus, err := difftest.DepthCorpus()
	if err != nil {
		t.Fatal(err)
	}
	for name, src := range corpus {
		prog, err := compiler.Compile(src)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		vm := interp.New(prog, heap.New(0), io.Discard)
		interp.Unfuse(vm)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: interpreter panicked: %v", name, r)
				}
			}()
			// Script-level errors are fine; only a Go panic is not.
			vm.Run()
		}()
	}
}
