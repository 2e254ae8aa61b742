package mir

import "testing"

// TestTypeTable holds every row of MIR's type table: each case is one
// instruction, well typed or breaking exactly one rule.
func TestTypeTable(t *testing.T) {
	const (
		N = TypeNone
		V = TypeValue
		D = TypeDouble
		B = TypeBoolean
		O = TypeObject
		E = TypeElements
	)
	type row struct {
		op       Op
		result   Type
		operands []Type
		ok       bool
	}
	rows := []row{
		{OpPhi, D, []Type{D, B}, true},
		{OpPhi, D, []Type{D, N}, false}, // a no-result instruction is no value
		{OpInitializedLength, D, []Type{E}, true},
		{OpTest, N, []Type{B}, true},
		{OpTest, D, []Type{B}, false},
		{OpTest, N, []Type{O}, false},
		{OpReturn, N, []Type{O}, true},
		{OpReturn, D, []Type{D}, false},
		{OpReturn, N, []Type{V}, false},
		{OpUnbox, O, []Type{V}, true},
		{OpUnbox, V, []Type{V}, false},
		{OpUnbox, D, []Type{D}, false},
		{OpGuardType, V, []Type{V}, false},
		{OpGuardType, D, []Type{D}, false},
		{OpNot, B, []Type{B}, true},
		{OpNot, B, []Type{O}, false},
		{OpCompare, B, []Type{D, B}, true},
		{OpCompare, D, []Type{D, D}, false},
		{OpCompare, B, []Type{D, O}, false},
		{OpElements, E, []Type{O}, true},
		{OpElements, D, []Type{O}, false},
		{OpElements, E, []Type{D}, false},
		{OpBoundsCheck, N, []Type{B, D}, true},
		{OpBoundsCheck, D, []Type{D, D}, true},
		{OpBoundsCheck, B, []Type{D, D}, false},
		{OpBoundsCheck, N, []Type{O, D}, false},
		{OpBoundsCheck, N, []Type{D, O}, false},
		{OpLoadElement, D, []Type{E, B}, true},
		{OpLoadElement, D, []Type{O, D}, false},
		{OpLoadElement, D, []Type{E, O}, false},
		{OpStoreElement, N, []Type{E, D, B}, true},
		{OpStoreElement, D, []Type{E, D, D}, false},
		{OpStoreElement, N, []Type{E, O, D}, false},
		{OpStoreElement, N, []Type{E, D, O}, false},
		{OpSetLength, N, []Type{O, D}, true},
		{OpSetLength, D, []Type{O, D}, false},
		{OpSetLength, N, []Type{D, D}, false},
		{OpSetLength, N, []Type{O, O}, false},
		{OpArrayPush, D, []Type{O, B}, true},
		{OpArrayPush, D, []Type{D, D}, false},
		{OpArrayPush, D, []Type{O, O}, false},
		{OpArrayPop, D, []Type{O}, true},
		{OpArrayPop, D, []Type{D}, false},
		{OpNewArray, O, []Type{D}, true},
		{OpNewArray, O, []Type{O}, false},
		{OpStoreGlobal, N, []Type{O}, true},
		{OpStoreGlobal, D, []Type{D}, false},
		{OpStoreGlobal, N, []Type{E}, false},
		{OpCall, D, []Type{D, O}, true},
		{OpCall, D, []Type{D, V}, false},
		{OpAddrOf, D, []Type{O}, true},
		{OpAddrOf, D, []Type{D}, false},
	}
	for _, op := range []Op{OpNop, OpGoto, OpReturnUndef, OpOSREntry, OpSnapshot, OpKeepAlive} {
		rows = append(rows, row{op, N, nil, true}, row{op, D, nil, false})
	}
	for _, op := range []Op{OpAdd, OpSub, OpMul, OpDiv, OpMod, OpPow, OpBitAnd, OpBitOr,
		OpBitXor, OpShl, OpShr, OpUshr, OpNeg, OpMathFunc} {
		rows = append(rows,
			row{op, D, []Type{D, D}, true},
			row{op, B, []Type{D, D}, false},
			row{op, D, []Type{D, B}, false}) // a Boolean is no arithmetic operand
	}
	g := NewGraph("t", 0, 0)
	for _, r := range rows {
		in := g.NewInstr(r.op, r.result)
		for _, ty := range r.operands {
			in.Operands = append(in.Operands, g.NewInstr(OpParameter, ty))
		}
		if msg := in.CheckType(); (msg == "") != r.ok {
			t.Errorf("%s %s %v: CheckType = %q, want ok=%v", r.op, r.result, r.operands, msg, r.ok)
		}
	}
}
