package mir

import "strconv"

// Snapshot is a stable copy of a graph's live instructions taken between
// optimization passes. The JITBULL Δ extractor consumes pairs of snapshots
// (IR_{i-1}, IR_i); it never holds live *Instr pointers, so passes are free
// to mutate the graph afterwards.
type Snapshot struct {
	FuncName string
	Instrs   []SnapInstr
}

// SnapInstr mirrors the paper's IR line format: an instruction number, an
// opcode (with the payload detail a real MIR dump prints, e.g.
// "constant 4", "parameter#1", "compare <"), and operand references (by
// instruction number).
type SnapInstr struct {
	ID       int
	Opcode   string
	Operands []int
}

// snapOpcodeCache holds pre-rendered strings for the payload values that
// dominate real programs: small non-negative integer constants, low
// parameter/builtin indexes and the comparison kinds. Snapshots are taken
// between every pass of every compilation, so these renderings are hot.
var snapOpcodeCache = func() (c struct {
	constant  [64]string
	parameter [16]string
	mathfunc  [16]string
	compare   [CmpNe + 1]string
}) {
	for i := range c.constant {
		c.constant[i] = "constant(" + strconv.Itoa(i) + ")"
	}
	for i := range c.parameter {
		c.parameter[i] = "parameter#" + strconv.Itoa(i)
	}
	for i := range c.mathfunc {
		c.mathfunc[i] = "mathfunc#" + strconv.Itoa(i)
	}
	for k := range c.compare {
		c.compare[k] = "compare" + CompareKind(k).String()
	}
	return c
}()

// snapOpcode renders the opcode with its payload detail. Identity-carrying
// payloads (constant values, parameter indexes, comparison kinds, math
// builtins) distinguish otherwise identical chains; position-dependent
// payloads (global slots, function indexes) are deliberately omitted so
// fingerprints survive code reorganization.
func snapOpcode(in *Instr) string {
	switch in.Op {
	case OpConstant:
		if n := int(in.Num); float64(n) == in.Num && n >= 0 && n < len(snapOpcodeCache.constant) {
			return snapOpcodeCache.constant[n]
		}
		// strconv with 'g'/-1 renders exactly as fmt's %v does for float64.
		return "constant(" + strconv.FormatFloat(in.Num, 'g', -1, 64) + ")"
	case OpParameter:
		if n := in.Aux; n >= 0 && n < len(snapOpcodeCache.parameter) {
			return snapOpcodeCache.parameter[n]
		}
		return "parameter#" + strconv.Itoa(in.Aux)
	case OpCompare:
		if k := in.Aux; k >= 0 && k < len(snapOpcodeCache.compare) {
			return snapOpcodeCache.compare[k]
		}
		return "compare" + CompareKind(in.Aux).String()
	case OpMathFunc:
		if n := in.Aux; n >= 0 && n < len(snapOpcodeCache.mathfunc) {
			return snapOpcodeCache.mathfunc[n]
		}
		return "mathfunc#" + strconv.Itoa(in.Aux)
	case OpCallSpec:
		// Speculated calls fingerprint as plain calls: the speculation is a
		// lowering detail, and DNA chains must not shift when it toggles.
		return opInfo[OpCall].name
	default:
		return in.Op.String()
	}
}

// snapSkip reports whether the op is an OSR/deopt frame-map marker that
// snapshots omit: the markers exist only when OSR/speculation is enabled, and
// chains fed to the DNA policy must stay identical with the feature on vs off.
func snapSkip(op Op) bool { return op == OpOSREntry || op == OpSnapshot }

// Snap captures the current live instructions of the graph in reverse
// postorder. The snapshot is built with exactly two allocations (the
// instruction slice and one flat operand array) on top of the Snapshot
// itself.
func (g *Graph) Snap() *Snapshot {
	rpo := g.ReversePostorder()
	nInstrs, nOps := 0, 0
	for _, b := range rpo {
		for _, in := range b.Instrs {
			if in.Dead || snapSkip(in.Op) {
				continue
			}
			nInstrs++
			nOps += len(in.Operands)
		}
	}
	s := &Snapshot{FuncName: g.Name, Instrs: make([]SnapInstr, 0, nInstrs)}
	var opBuf []int
	if nOps > 0 {
		opBuf = make([]int, 0, nOps)
	}
	for _, b := range rpo {
		for _, in := range b.Instrs {
			if in.Dead || snapSkip(in.Op) {
				continue
			}
			si := SnapInstr{ID: in.ID, Opcode: snapOpcode(in)}
			if len(in.Operands) > 0 {
				start := len(opBuf)
				for _, op := range in.Operands {
					opBuf = append(opBuf, op.ID)
				}
				si.Operands = opBuf[start:len(opBuf):len(opBuf)]
			}
			s.Instrs = append(s.Instrs, si)
		}
	}
	return s
}

// Verify lives in verify.go.
