package mir

import (
	"math"
	"strconv"
	"sync/atomic"
)

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

// constOpcodeBits sizes constOpcodes: 1<<constOpcodeBits slots.
const constOpcodeBits = 10

// constOpcodes caches the renderings of constants outside the pre-rendered
// range, direct-mapped by the value's bits: a few hundred distinct values
// (1000003, 255, 65536, ...) recur in every snapshot of every compile, and
// comparing a graph with its last snapshot reads each of them. Slots are
// replaced whole, so readers need no lock; a collision only costs a
// rendering. The cache is process-wide and bounded, not IR state.
var constOpcodes [1 << constOpcodeBits]atomic.Pointer[constOpcode]

type constOpcode struct {
	bits uint64
	s    string
}

// constSlot is the constOpcodes slot of a value's bits (Fibonacci hashing).
func constSlot(bits uint64) uint64 { return bits * 0x9E3779B97F4A7C15 >> (64 - constOpcodeBits) }

// constantOpcode renders a constant's opcode through constOpcodes.
func constantOpcode(v float64) string {
	bits := math.Float64bits(v)
	slot := &constOpcodes[constSlot(bits)]
	if e := slot.Load(); e != nil && e.bits == bits {
		return e.s
	}
	// strconv with 'g'/-1 renders exactly as fmt's %v does for float64.
	s := "constant(" + strconv.FormatFloat(v, 'g', -1, 64) + ")"
	slot.Store(&constOpcode{bits: bits, s: s})
	return s
}

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
		return constantOpcode(in.Num)
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
// postorder.
func (g *Graph) Snap() *Snapshot { return g.snap(g.ReversePostorder()) }

// SnapUnlessEqual is Snap, except that it returns prev itself when Snap's
// snapshot would have prev's contents: the graph is compared with prev in
// place — function name, IDs, opcodes with their payloads, operand IDs,
// under Snap's skip rules — and a new snapshot is built, from the same
// reverse postorder, only when they differ. A nil prev differs from every
// graph.
func (g *Graph) SnapUnlessEqual(prev *Snapshot) *Snapshot {
	rpo := g.ReversePostorder()
	if prev != nil && g.snapEquals(rpo, prev) {
		return prev
	}
	return g.snap(rpo)
}

// snapEquals reports whether the graph's snapshot over rpo would equal s.
func (g *Graph) snapEquals(rpo []*Block, s *Snapshot) bool {
	if g.Name != s.FuncName {
		return false
	}
	k := 0
	for _, b := range rpo {
		for _, in := range b.Instrs {
			if in.Dead || snapSkip(in.Op) {
				continue
			}
			if k == len(s.Instrs) {
				return false
			}
			si := &s.Instrs[k]
			k++
			if si.ID != in.ID || len(si.Operands) != len(in.Operands) || si.Opcode != snapOpcode(in) {
				return false
			}
			for j, op := range in.Operands {
				if si.Operands[j] != op.ID {
					return false
				}
			}
		}
	}
	return k == len(s.Instrs)
}

// snap builds the snapshot of the blocks in rpo with exactly two
// allocations (the instruction slice and one flat operand array) on top of
// the Snapshot itself.
func (g *Graph) snap(rpo []*Block) *Snapshot {
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
