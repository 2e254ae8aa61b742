package bytecode

import (
	"strings"
	"testing"
)

func TestComputeMaxStack(t *testing.T) {
	cases := []struct {
		name string
		code []Instr
		want int
	}{
		{"empty", nil, 0},
		{"return-undef", []Instr{{Op: OpReturnUndef}}, 0},
		{"binary", []Instr{{Op: OpLoadLocal}, {Op: OpLoadLocal}, {Op: OpAdd}, {Op: OpReturn}}, 2},
		{"dup2", []Instr{{Op: OpLoadLocal}, {Op: OpLoadLocal}, {Op: OpDup2}, {Op: OpGetElem}, {Op: OpSetElem}, {Op: OpReturn}}, 4},
		{"call-args", []Instr{{Op: OpUndef}, {Op: OpUndef}, {Op: OpUndef}, {Op: OpCall, A: 1, B: 3}, {Op: OpPop}, {Op: OpReturnUndef}}, 3},
		{"array-literal", []Instr{{Op: OpNull}, {Op: OpNull}, {Op: OpArrayLit, A: 2}, {Op: OpReturn}}, 2},
		// x && y: both ways into pc 5 carry one operand.
		{"short-circuit", []Instr{{Op: OpTrue}, {Op: OpDup}, {Op: OpJumpIfFalse, A: 5}, {Op: OpPop}, {Op: OpFalse}, {Op: OpReturn}}, 2},
		// A loop: the back edge re-enters pc 0 with an empty stack.
		{"loop", []Instr{{Op: OpLoadLocal}, {Op: OpJumpIfFalse, A: 4}, {Op: OpNop}, {Op: OpJump, A: 0}, {Op: OpReturnUndef}}, 1},
		// Code after a return is never reached and never counted.
		{"dead-code", []Instr{{Op: OpReturnUndef}, {Op: OpPop}, {Op: OpPop}}, 0},
		{"falls-off-the-end", []Instr{{Op: OpTrue}, {Op: OpPop}}, 1},
	}
	for _, tc := range cases {
		f := &Function{Name: tc.name, Code: tc.code, MaxStack: -1}
		if err := f.ComputeMaxStack(); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		} else if f.MaxStack != tc.want {
			t.Errorf("%s: MaxStack = %d, want %d", tc.name, f.MaxStack, tc.want)
		}
	}
}

func TestComputeMaxStackRejectsMalformedCode(t *testing.T) {
	cases := []struct {
		name string
		code []Instr
		want string
	}{
		{"underflow", []Instr{{Op: OpPop}, {Op: OpReturnUndef}}, "pops below"},
		{"call-underflow", []Instr{{Op: OpUndef}, {Op: OpCall, B: 2}, {Op: OpReturn}}, "pops below"},
		{"wild-jump", []Instr{{Op: OpJump, A: 7}}, "outside"},
		{"negative-jump", []Instr{{Op: OpTrue}, {Op: OpJumpIfTrue, A: -1}, {Op: OpReturnUndef}}, "outside"},
		{"unbalanced-merge", []Instr{{Op: OpTrue}, {Op: OpJumpIfFalse, A: 3}, {Op: OpNull}, {Op: OpReturnUndef}}, "depths"},
		{"growing-loop", []Instr{{Op: OpNull}, {Op: OpJump, A: 0}}, "depths"},
		{"unknown-op", []Instr{{Op: Op(250)}}, "no stack effect"},
		{"negative-argc", []Instr{{Op: OpCallBuiltin, B: -1}}, "no stack effect"},
	}
	for _, tc := range cases {
		f := &Function{Name: tc.name, Code: tc.code}
		err := f.ComputeMaxStack()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

func TestCanonicalHashExcludesMaxStack(t *testing.T) {
	f := &Function{Name: "f", NumLocals: 1, Code: []Instr{{Op: OpLoadLocal}, {Op: OpReturn}}}
	before := f.CanonicalHash()
	if err := f.ComputeMaxStack(); err != nil || f.MaxStack != 1 {
		t.Fatalf("MaxStack = %d, %v", f.MaxStack, err)
	}
	if f.CanonicalHash() != before {
		t.Error("MaxStack is derived from Code and must not change the canonical hash")
	}
}
