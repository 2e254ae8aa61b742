// Package mir defines the SSA mid-level intermediate representation used by
// the optimizing JIT tier, mirroring IonMonkey's MIR: a graph of basic
// blocks holding instructions in static single-assignment form, where each
// instruction references its operands by instruction identity (printed as
// the operand's number, as in the paper's Listing 1).
package mir

import (
	"fmt"
	"slices"
	"strings"
)

// Type is the speculated type of an instruction's result.
type Type uint8

// Result types. TypeValue is an unspecialized boxed value (only parameters
// and call results before unboxing); TypeObject is a verified array handle;
// TypeElements is an elements pointer; TypeNone is for instructions with no
// result (control flow, stores, guards).
const (
	TypeNone Type = iota
	TypeValue
	TypeDouble
	TypeBoolean
	TypeObject
	TypeElements
)

// String returns a short name for the type.
func (t Type) String() string {
	switch t {
	case TypeNone:
		return "none"
	case TypeValue:
		return "value"
	case TypeDouble:
		return "double"
	case TypeBoolean:
		return "bool"
	case TypeObject:
		return "object"
	case TypeElements:
		return "elements"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// IsNumeric reports whether t is a number: a double, or a Boolean (0 or 1).
func (t Type) IsNumeric() bool { return setNumber.has(t) }

// Op is a MIR opcode.
type Op uint8

// MIR opcodes. The printed names (see opInfo) match the style of
// SpiderMonkey MIR dumps quoted in the paper: lowercase, e.g. "boundscheck",
// "initializedlength", "unbox".
const (
	OpNop Op = iota
	OpParameter
	OpConstant
	OpPhi
	OpGoto
	OpTest
	OpReturn
	OpReturnUndef
	OpUnbox     // guard: operand is of the expected type, produce typed value
	OpGuardType // guard on an already-loaded boxed value (globals, calls)
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
	OpPow
	OpBitAnd
	OpBitOr
	OpBitXor
	OpShl
	OpShr
	OpUshr
	OpNeg
	OpNot
	OpCompare  // Aux = CompareKind
	OpMathFunc // Aux = bytecode builtin id (pure math only)
	OpElements
	OpInitializedLength
	OpBoundsCheck
	OpLoadElement
	OpStoreElement
	OpSetLength
	OpArrayPush
	OpArrayPop
	OpNewArray
	OpLoadGlobal  // Aux = global slot
	OpStoreGlobal // Aux = global slot
	OpCall        // Aux = function index
	OpCallSpec    // speculated OpCall: result assumed TypeDouble, deopts otherwise
	OpOSREntry    // loop-header OSR point; operands = frame map (locals in slot order), Aux = loop ordinal
	OpSnapshot    // deopt frame map after a call-assign; operands = [call, locals in slot order], Num = spec ordinal+1
	OpAddrOf
	OpCodeBase
	OpMagic // placeholder for an optimized-out value (sentinel constant)
	OpKeepAlive
	numOps
)

// CompareKind distinguishes comparison operators in OpCompare's Aux field.
type CompareKind int

// Comparison kinds.
const (
	CmpLt CompareKind = iota + 1
	CmpLe
	CmpGt
	CmpGe
	CmpEq
	CmpNe
)

// String returns the operator spelling.
func (k CompareKind) String() string {
	switch k {
	case CmpLt:
		return "<"
	case CmpLe:
		return "<="
	case CmpGt:
		return ">"
	case CmpGe:
		return ">="
	case CmpEq:
		return "=="
	case CmpNe:
		return "!="
	default:
		return "?"
	}
}

// AliasSet is a bit set of abstract memory categories, used by alias
// analysis to attach memory dependencies to loads.
type AliasSet uint8

// Memory categories.
const (
	AliasNone         AliasSet = 0
	AliasElement      AliasSet = 1 << 0 // array payload cells
	AliasObjectFields AliasSet = 1 << 1 // array headers (length, elements pointer)
	AliasGlobal       AliasSet = 1 << 2 // global variable slots
	AliasAny          AliasSet = AliasElement | AliasObjectFields | AliasGlobal
)

// Intersects reports whether the two sets share a category.
func (s AliasSet) Intersects(o AliasSet) bool { return s&o != 0 }

type opInfoEntry struct {
	name    string
	control bool // terminates a block
	guard   bool // has a side exit (bailout); cannot be dropped by DCE
	movable bool // candidate for LICM / reordering when operands allow
	loads   AliasSet
	stores  AliasSet
}

var opInfo = [numOps]opInfoEntry{
	OpNop:               {name: "nop"},
	OpParameter:         {name: "parameter", movable: false},
	OpConstant:          {name: "constant", movable: true},
	OpPhi:               {name: "phi"},
	OpGoto:              {name: "goto", control: true},
	OpTest:              {name: "test", control: true},
	OpReturn:            {name: "return", control: true},
	OpReturnUndef:       {name: "returnundef", control: true},
	OpUnbox:             {name: "unbox", guard: true},
	OpGuardType:         {name: "guardtype", guard: true},
	OpAdd:               {name: "add", movable: true},
	OpSub:               {name: "sub", movable: true},
	OpMul:               {name: "mul", movable: true},
	OpDiv:               {name: "div", movable: true},
	OpMod:               {name: "mod", movable: true},
	OpPow:               {name: "pow", movable: true},
	OpBitAnd:            {name: "bitand", movable: true},
	OpBitOr:             {name: "bitor", movable: true},
	OpBitXor:            {name: "bitxor", movable: true},
	OpShl:               {name: "shl", movable: true},
	OpShr:               {name: "shr", movable: true},
	OpUshr:              {name: "ushr", movable: true},
	OpNeg:               {name: "neg", movable: true},
	OpNot:               {name: "not", movable: true},
	OpCompare:           {name: "compare", movable: true},
	OpMathFunc:          {name: "mathfunc", movable: true},
	OpElements:          {name: "elements", movable: true, loads: AliasObjectFields},
	OpInitializedLength: {name: "initializedlength", movable: true, loads: AliasObjectFields},
	OpBoundsCheck:       {name: "boundscheck", guard: true, movable: true},
	OpLoadElement:       {name: "loadelement", movable: true, loads: AliasElement},
	OpStoreElement:      {name: "storeelement", stores: AliasElement},
	OpSetLength:         {name: "setlength", stores: AliasObjectFields | AliasElement},
	OpArrayPush:         {name: "arraypush", stores: AliasObjectFields | AliasElement},
	OpArrayPop:          {name: "arraypop", stores: AliasObjectFields | AliasElement},
	OpNewArray:          {name: "newarray"},
	OpLoadGlobal:        {name: "loadglobal", movable: true, loads: AliasGlobal},
	OpStoreGlobal:       {name: "storeglobal", stores: AliasGlobal},
	OpCall:              {name: "call", loads: AliasAny, stores: AliasAny},
	OpCallSpec:          {name: "callspec", loads: AliasAny, stores: AliasAny},
	// OpOSREntry/OpSnapshot produce no value but pin a frame map. They are
	// deliberately alias-neutral (their operands are SSA values, so their
	// position relative to memory ops is irrelevant) so that enabling
	// OSR/speculation does not perturb GVN/LICM decisions — the optimized
	// MIR, and therefore the DNA chains the policy sees, stay identical
	// with the feature on or off. HasEffects lists them explicitly so DCE
	// keeps them (and keeps the locals they reference alive).
	OpOSREntry:  {name: "osrentry"},
	OpSnapshot:  {name: "snapshot"},
	OpAddrOf:    {name: "addrof", movable: true, loads: AliasObjectFields},
	OpCodeBase:  {name: "codebase", movable: true},
	OpMagic:     {name: "magic", movable: true},
	OpKeepAlive: {name: "keepalive"},
}

// String returns the MIR dump name of the opcode.
func (o Op) String() string {
	if int(o) < len(opInfo) && opInfo[o].name != "" {
		return opInfo[o].name
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// IsControl reports whether the op terminates a block.
func (o Op) IsControl() bool { return opInfo[o].control }

// IsGuard reports whether the op has a side exit.
func (o Op) IsGuard() bool { return opInfo[o].guard }

// IsMovable reports whether the op may be moved by LICM/reordering.
func (o Op) IsMovable() bool { return opInfo[o].movable }

// Loads returns the default (correct) alias categories the op reads.
func (o Op) Loads() AliasSet { return opInfo[o].loads }

// Stores returns the default (correct) alias categories the op writes.
func (o Op) Stores() AliasSet { return opInfo[o].stores }

// HasEffects reports whether the op writes memory or performs I/O-like work
// and therefore must not be removed even when unused.
func (o Op) HasEffects() bool {
	switch o {
	case OpStoreElement, OpSetLength, OpArrayPush, OpArrayPop, OpStoreGlobal,
		OpCall, OpCallSpec, OpNewArray, OpKeepAlive, OpOSREntry, OpSnapshot:
		return true
	}
	return opInfo[o].stores != AliasNone
}

// MagicSentinel is the numeric value of an OpMagic instruction at runtime,
// modeling SpiderMonkey's JS_OPTIMIZED_OUT magic value leaking into
// compiled code (CVE-2019-9792). It is large enough to defeat any bounds
// check it wrongly replaces.
const MagicSentinel = 1e9

// Instr is one MIR instruction.
type Instr struct {
	ID       int
	Op       Op
	Type     Type
	Operands []*Instr
	Block    *Block

	// Payloads.
	Num float64 // OpConstant value
	Aux int     // parameter index / global slot / function index / builtin / CompareKind

	// Dependency is the most recent instruction that may write memory this
	// instruction reads, as computed by alias analysis (nil means no
	// clobber since entry). GVN keys loads on it.
	Dependency *Instr

	// Uses is maintained by Graph.ComputeUses.
	Uses []*Instr

	// Dead marks instructions removed by a pass but not yet compacted.
	Dead bool
}

// String renders the instruction in the paper's Listing 1 style:
// "num opcode operand1 operand2".
func (in *Instr) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d %s", in.ID, in.Op)
	switch in.Op {
	case OpConstant:
		fmt.Fprintf(&sb, " %v", in.Num)
	case OpParameter, OpLoadGlobal, OpStoreGlobal, OpCall, OpCallSpec,
		OpMathFunc, OpOSREntry:
		fmt.Fprintf(&sb, " #%d", in.Aux)
	case OpCompare:
		fmt.Fprintf(&sb, " %s", CompareKind(in.Aux))
	}
	for _, op := range in.Operands {
		fmt.Fprintf(&sb, " %d", op.ID)
	}
	return sb.String()
}

// Block is a basic block. Instrs holds phis first, then ordinary
// instructions, with exactly one control instruction last (once built).
type Block struct {
	ID        int
	Instrs    []*Instr
	Preds     []*Block
	Succs     []*Block // for OpTest: Succs[0] = true edge, Succs[1] = false edge
	Graph     *Graph
	LoopDepth int

	// idom is filled by BuildDominators.
	idom *Block
	// domNum/domLast support O(1) dominance queries after BuildDominators.
	domNum, domLast int
}

// Control returns the block's terminating instruction, or nil while the
// block is still under construction.
func (b *Block) Control() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	last := b.Instrs[len(b.Instrs)-1]
	if last.Op.IsControl() {
		return last
	}
	return nil
}

// Phis returns the block's leading phi instructions.
func (b *Block) Phis() []*Instr {
	for i, in := range b.Instrs {
		if in.Op != OpPhi {
			return b.Instrs[:i]
		}
	}
	return b.Instrs
}

// Idom returns the immediate dominator (nil for the entry block) after
// BuildDominators has run.
func (b *Block) Idom() *Block { return b.idom }

// Dominates reports whether b dominates o (every block dominates itself).
// Valid after BuildDominators.
func (b *Block) Dominates(o *Block) bool {
	return b.domNum <= o.domNum && o.domNum <= b.domLast
}

// Graph is the MIR of one function.
type Graph struct {
	Name      string
	FuncIndex int
	NumParams int
	Blocks    []*Block
	nextInstr int
	nextBlock int
}

// NewGraph creates an empty graph for the named function.
func NewGraph(name string, funcIndex, numParams int) *Graph {
	return &Graph{Name: name, FuncIndex: funcIndex, NumParams: numParams}
}

// Entry returns the entry block.
func (g *Graph) Entry() *Block { return g.Blocks[0] }

// NewBlock appends a new empty block.
func (g *Graph) NewBlock() *Block {
	b := &Block{ID: g.nextBlock, Graph: g}
	g.nextBlock++
	g.Blocks = append(g.Blocks, b)
	return b
}

// NewInstr creates an instruction (not yet placed in a block).
func (g *Graph) NewInstr(op Op, typ Type, operands ...*Instr) *Instr {
	in := &Instr{ID: g.nextInstr, Op: op, Type: typ, Operands: operands}
	g.nextInstr++
	return in
}

// AddEdge records a CFG edge from pred to succ.
func AddEdge(pred, succ *Block) {
	pred.Succs = append(pred.Succs, succ)
	succ.Preds = append(succ.Preds, pred)
}

// Append places in at the end of block b (before nothing; caller manages
// control placement ordering).
func (b *Block) Append(in *Instr) *Instr {
	in.Block = b
	b.Instrs = append(b.Instrs, in)
	return in
}

// InsertBeforeControl places in just before the block's control
// instruction, or at the end if the block has no control yet.
func (b *Block) InsertBeforeControl(in *Instr) *Instr {
	in.Block = b
	if ctl := b.Control(); ctl != nil {
		b.Instrs = append(b.Instrs, nil)
		copy(b.Instrs[len(b.Instrs)-1:], b.Instrs[len(b.Instrs)-2:])
		b.Instrs[len(b.Instrs)-2] = in
		return in
	}
	b.Instrs = append(b.Instrs, in)
	return in
}

// AddPhi prepends a phi instruction to the block.
func (b *Block) AddPhi(in *Instr) *Instr {
	in.Block = b
	b.Instrs = append([]*Instr{in}, b.Instrs...)
	return in
}

// RemoveDead compacts every block, dropping instructions marked Dead.
func (g *Graph) RemoveDead() {
	for _, b := range g.Blocks {
		out := b.Instrs[:0]
		for _, in := range b.Instrs {
			if !in.Dead {
				out = append(out, in)
			}
		}
		b.Instrs = out
	}
}

// ReplaceUses rewrites every use of old as a use of new across the graph
// (operands and phi inputs). It does not touch old itself.
func (g *Graph) ReplaceUses(old, new *Instr) {
	for _, b := range g.Blocks {
		for _, in := range b.Instrs {
			for i, op := range in.Operands {
				if op == old {
					in.Operands[i] = new
				}
			}
		}
	}
}

// ComputeUses recomputes the Uses list of every live instruction.
func (g *Graph) ComputeUses() {
	for _, b := range g.Blocks {
		for _, in := range b.Instrs {
			in.Uses = in.Uses[:0]
		}
	}
	for _, b := range g.Blocks {
		for _, in := range b.Instrs {
			if in.Dead {
				continue
			}
			for _, op := range in.Operands {
				op.Uses = append(op.Uses, in)
			}
		}
	}
}

// Renumber reassigns dense instruction IDs in reverse-postorder block
// order, as IonMonkey's renumbering pass does.
func (g *Graph) Renumber() {
	id := 0
	for _, b := range g.ReversePostorder() {
		for _, in := range b.Instrs {
			in.ID = id
			id++
		}
	}
	g.nextInstr = id
}

// ReversePostorder returns the blocks in reverse postorder from the entry.
// Unreachable blocks are excluded. The depth-first walk visits successors
// in order with an explicit stack and marks blocks by ID (IDs come from
// NewBlock and are never reassigned), so it allocates no map.
func (g *Graph) ReversePostorder() []*Block {
	if len(g.Blocks) == 0 {
		return nil
	}
	type frame struct {
		b    *Block
		next int // index of the next successor to visit
	}
	seen := make([]bool, g.nextBlock)
	order := make([]*Block, 0, len(g.Blocks))
	var buf [32]frame
	stack := append(buf[:0], frame{b: g.Blocks[0]})
	seen[g.Blocks[0].ID] = true
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		if top.next < len(top.b.Succs) {
			s := top.b.Succs[top.next]
			top.next++
			if !seen[s.ID] {
				seen[s.ID] = true
				stack = append(stack, frame{b: s})
			}
			continue
		}
		order = append(order, top.b)
		stack = stack[:len(stack)-1]
	}
	slices.Reverse(order)
	return order
}

// rpoPositions maps each block ID to its position in rpo, -1 for a block
// rpo does not hold (unreachable or pruned).
func (g *Graph) rpoPositions(rpo []*Block) []int32 {
	pos := make([]int32, g.nextBlock)
	for i := range pos {
		pos[i] = -1
	}
	for i, b := range rpo {
		pos[b.ID] = int32(i)
	}
	return pos
}

// PruneUnreachable removes blocks not reachable from the entry, fixing up
// predecessor lists and phis of surviving blocks.
func (g *Graph) PruneUnreachable() {
	pos := g.rpoPositions(g.ReversePostorder())
	for _, b := range g.Blocks {
		if pos[b.ID] < 0 {
			continue
		}
		// Drop edges from unreachable predecessors, including phi inputs.
		for i := len(b.Preds) - 1; i >= 0; i-- {
			if pos[b.Preds[i].ID] < 0 {
				b.RemovePred(i)
			}
		}
	}
	out := g.Blocks[:0]
	for _, b := range g.Blocks {
		if pos[b.ID] >= 0 {
			out = append(out, b)
		}
	}
	g.Blocks = out
}

// RemovePred removes predecessor index i, dropping the matching phi inputs.
func (b *Block) RemovePred(i int) {
	b.Preds = append(b.Preds[:i], b.Preds[i+1:]...)
	for _, phi := range b.Phis() {
		if i < len(phi.Operands) {
			phi.Operands = append(phi.Operands[:i], phi.Operands[i+1:]...)
		}
	}
}

// String renders the whole graph as a MIR dump.
func (g *Graph) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "MIR %s (fn #%d, %d params)\n", g.Name, g.FuncIndex, g.NumParams)
	for _, b := range g.ReversePostorder() {
		fmt.Fprintf(&sb, "block%d", b.ID)
		if len(b.Preds) > 0 {
			sb.WriteString(" <-")
			for _, p := range b.Preds {
				fmt.Fprintf(&sb, " block%d", p.ID)
			}
		}
		if b.LoopDepth > 0 {
			fmt.Fprintf(&sb, " (loop depth %d)", b.LoopDepth)
		}
		sb.WriteByte('\n')
		for _, in := range b.Instrs {
			fmt.Fprintf(&sb, "  %s\n", in)
		}
		if len(b.Succs) > 0 {
			sb.WriteString("  ->")
			for _, s := range b.Succs {
				fmt.Fprintf(&sb, " block%d", s.ID)
			}
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

// InstrCount returns the number of live instructions.
func (g *Graph) InstrCount() int {
	n := 0
	for _, b := range g.Blocks {
		for _, in := range b.Instrs {
			if !in.Dead {
				n++
			}
		}
	}
	return n
}
