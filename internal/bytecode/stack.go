package bytecode

import "fmt"

// stackEffect returns how many operands in pops and then pushes.
func stackEffect(in Instr) (pops, pushes int, ok bool) {
	switch in.Op {
	case OpNop, OpJump, OpReturnUndef:
		return 0, 0, true
	case OpConst, OpUndef, OpNull, OpTrue, OpFalse, OpLoadLocal, OpLoadGlobal:
		return 0, 1, true
	case OpPop, OpStoreLocal, OpStoreGlobal, OpJumpIfFalse, OpJumpIfTrue, OpReturn:
		return 1, 0, true
	case OpDup:
		return 1, 2, true
	case OpDup2:
		return 2, 4, true
	case OpAdd, OpSub, OpMul, OpDiv, OpMod, OpPow,
		OpBitAnd, OpBitOr, OpBitXor, OpShl, OpShr, OpUshr,
		OpEq, OpNe, OpStrictEq, OpStrictNe, OpLt, OpLe, OpGt, OpGe,
		OpGetElem, OpSetLength:
		return 2, 1, true
	case OpNeg, OpNot, OpBitNot, OpTypeof, OpNewArray, OpGetLength:
		return 1, 1, true
	case OpSetElem:
		return 3, 1, true
	case OpCall, OpCallBuiltin:
		return int(in.B), 1, in.B >= 0
	case OpArrayLit:
		return int(in.A), 1, in.A >= 0
	}
	return 0, 0, false
}

// ComputeMaxStack walks every reachable instruction of f with an abstract
// operand stack (depths only) and records the deepest it gets in
// f.MaxStack. The interpreter sizes an activation's operand area from it
// once and indexes it without growing, so the walk also proves what that
// relies on: no instruction pops below empty, every jump lands inside the
// function, and every path into a pc arrives with the same depth. The
// compiler's output always satisfies all three; an error means a compiler
// bug, not a script error.
func (f *Function) ComputeMaxStack() error {
	const unseen = -1
	depthAt := make([]int, len(f.Code))
	for i := range depthAt {
		depthAt[i] = unseen
	}
	var work []int
	visit := func(pc, depth int) error {
		if pc < 0 || pc >= len(f.Code) {
			return fmt.Errorf("%s: jump to pc %d outside [0,%d)", f.Name, pc, len(f.Code))
		}
		switch depthAt[pc] {
		case unseen:
			depthAt[pc] = depth
			work = append(work, pc)
		case depth:
		default:
			return fmt.Errorf("%s: pc %d reached with operand depths %d and %d", f.Name, pc, depthAt[pc], depth)
		}
		return nil
	}
	if len(f.Code) > 0 {
		depthAt[0] = 0
		work = append(work, 0)
	}
	max := 0
	for len(work) > 0 {
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		in := f.Code[pc]
		pops, pushes, ok := stackEffect(in)
		if !ok {
			return fmt.Errorf("%s: pc %d: no stack effect for %s", f.Name, pc, in.Op)
		}
		depth := depthAt[pc] - pops
		if depth < 0 {
			return fmt.Errorf("%s: pc %d: %s pops below an empty operand stack", f.Name, pc, in.Op)
		}
		depth += pushes
		if depth > max {
			max = depth
		}
		var err error
		switch in.Op {
		case OpReturn, OpReturnUndef:
		case OpJump:
			err = visit(int(in.A), depth)
		case OpJumpIfFalse, OpJumpIfTrue:
			if err = visit(int(in.A), depth); err == nil && pc+1 < len(f.Code) {
				err = visit(pc+1, depth)
			}
		default:
			// Falling off the end returns undefined, like OpReturnUndef.
			if pc+1 < len(f.Code) {
				err = visit(pc+1, depth)
			}
		}
		if err != nil {
			return err
		}
	}
	f.MaxStack = max
	return nil
}
