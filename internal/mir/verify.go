package mir

import (
	"fmt"
	"strings"
)

// Verify checks the SSA invariants of the graph and returns the list of
// violations (empty when the graph is well-formed). It is the backstop every
// optimization pass is checked against (engine/passes CheckIR mode), so it
// must hold at every pass boundary, not just at the end of the pipeline:
//
//   - every block reachable from entry ends in exactly one control
//     instruction, which is its last instruction;
//   - no block in the graph is unreachable from the entry (passes that cut
//     edges prune eagerly);
//   - phis appear only at block starts and have one operand per predecessor;
//   - operands are live, placed instructions in reachable blocks;
//   - successor/predecessor lists are mutually consistent;
//   - OpTest has exactly two successors, OpGoto exactly one, returns none;
//   - definitions dominate their uses: a non-phi use must be dominated by
//     its operand's definition (same-block uses must come after it), and a
//     phi's i-th input must dominate the i-th predecessor's exit;
//   - (the Types family) every instruction obeys MIR's type table
//     (typeRules, checked by Instr.CheckType): its result has a type its
//     opcode may produce, and each operand a type its opcode accepts.
//     TypeNone results are pure effects and cannot be used as values, and
//     arithmetic consumes doubles only: a Boolean is a number to a compare
//     or a test, but not an arithmetic operand.
//
// Verify never mutates the graph: dominance is computed on the side rather
// than through BuildDominators, so it can run between arbitrary passes
// without clobbering pass-maintained state.
func (g *Graph) Verify() []string {
	return g.VerifyOpts(VerifyOptions{Types: true})
}

// VerifyOptions selects which invariant families VerifyOpts checks.
type VerifyOptions struct {
	// Types enables the type-discipline checks. Engine builds with injected
	// vulnerabilities (BugSet non-empty) miscompile *by producing ill-typed
	// IR* — e.g. the CVE-2019-9791 model deletes an unbox guard so its uses
	// see the raw boxed value — which is exactly what this family catches.
	// Such builds therefore verify structure only, keeping the simulated
	// vulnerability window open.
	Types bool
}

// VerifyOpts is Verify with selectable strictness; see VerifyOptions.
func (g *Graph) VerifyOpts(opts VerifyOptions) []string {
	var errs []string
	addErr := func(format string, args ...any) {
		errs = append(errs, fmt.Sprintf(format, args...))
	}

	rpo := g.ReversePostorder()
	rpoPos := g.rpoPositions(rpo) // block ID -> RPO position, -1 = unreachable
	reach := func(b *Block) bool { return rpoPos[b.ID] >= 0 }
	for _, b := range g.Blocks {
		if !reach(b) {
			addErr("block%d is unreachable from entry", b.ID)
		}
	}

	// Liveness and intra-block position of every instruction. These stay
	// keyed by pointer: after Renumber, an instruction that left the graph
	// can share its ID with a live one, and telling them apart is the
	// point of the dead-operand check.
	n := 0
	for _, b := range g.Blocks {
		n += len(b.Instrs)
	}
	live := make(map[*Instr]bool, n)
	pos := make(map[*Instr]int, n)
	for _, b := range g.Blocks {
		for i, in := range b.Instrs {
			if !in.Dead {
				live[in] = true
			}
			pos[in] = i
		}
	}

	idom := computeIdoms(rpo, rpoPos)
	// dominates walks the idom chain; graphs are small, so the O(depth)
	// query is cheaper than building a numbering we would throw away.
	dominates := func(a, b *Block) bool {
		for x := rpoPos[b.ID]; x >= 0; x = idom[x] {
			if rpo[x] == a {
				return true
			}
		}
		return a == b
	}

	checkOperand := func(user *Instr, b *Block, op *Instr, idx int) {
		if !live[op] {
			addErr("block%d: instr %d uses dead operand %d", b.ID, user.ID, op.ID)
			return
		}
		if op.Block == nil {
			addErr("block%d: instr %d uses unplaced operand %d", b.ID, user.ID, op.ID)
			return
		}
		if !reach(op.Block) {
			addErr("block%d: instr %d uses operand %d from unreachable block%d",
				b.ID, user.ID, op.ID, op.Block.ID)
			return
		}
		if user.Op == OpPhi {
			// The i-th input must be available at the end of the i-th
			// predecessor (SSA's dominance condition for phis).
			if idx < len(b.Preds) {
				pred := b.Preds[idx]
				if !dominates(op.Block, pred) {
					addErr("block%d: phi %d input %d (def in block%d) does not dominate pred block%d",
						b.ID, user.ID, op.ID, op.Block.ID, pred.ID)
				}
			}
			return
		}
		if op.Block == b {
			if pos[op] >= pos[user] {
				addErr("block%d: instr %d uses operand %d defined later in the same block",
					b.ID, user.ID, op.ID)
			}
		} else if !dominates(op.Block, b) {
			addErr("block%d: instr %d uses operand %d whose def (block%d) does not dominate it",
				b.ID, user.ID, op.ID, op.Block.ID)
		}
	}

	for _, b := range rpo {
		ctl := b.Control()
		if ctl == nil {
			addErr("block%d has no control instruction", b.ID)
			continue
		}
		seenNonPhi := false
		for i, in := range b.Instrs {
			if in.Dead {
				continue
			}
			if in.Block != b {
				addErr("block%d: instr %d has wrong Block back-pointer", b.ID, in.ID)
			}
			if in.Op == OpPhi {
				if seenNonPhi {
					addErr("block%d: phi %d after non-phi", b.ID, in.ID)
				}
				if len(in.Operands) != len(b.Preds) {
					addErr("block%d: phi %d has %d inputs for %d preds", b.ID, in.ID, len(in.Operands), len(b.Preds))
				}
			} else {
				seenNonPhi = true
			}
			if in.Op.IsControl() && i != len(b.Instrs)-1 {
				addErr("block%d: control %s not last", b.ID, in)
			}
			if opts.Types {
				if errMsg := in.CheckType(); errMsg != "" {
					addErr("block%d: instr %d: %s", b.ID, in.ID, errMsg)
				}
			}
			for oi, op := range in.Operands {
				checkOperand(in, b, op, oi)
			}
		}
		wantSuccs := -1
		switch ctl.Op {
		case OpGoto:
			wantSuccs = 1
		case OpTest:
			wantSuccs = 2
		case OpReturn, OpReturnUndef:
			wantSuccs = 0
		}
		if wantSuccs >= 0 && len(b.Succs) != wantSuccs {
			addErr("block%d: %s with %d successors", b.ID, ctl.Op, len(b.Succs))
		}
		for _, s := range b.Succs {
			if !containsBlock(s.Preds, b) {
				addErr("block%d -> block%d edge missing back-pointer", b.ID, s.ID)
			}
		}
		for _, p := range b.Preds {
			if !containsBlock(p.Succs, b) {
				addErr("block%d <- block%d pred without succ edge", b.ID, p.ID)
			}
		}
	}
	return errs
}

// typeSet is a set of Types, one bit per Type.
type typeSet uint8

const (
	setNone    typeSet = 1 << TypeNone
	setBoxed   typeSet = 1 << TypeValue
	setDouble  typeSet = 1 << TypeDouble
	setBool    typeSet = 1 << TypeBoolean
	setObject  typeSet = 1 << TypeObject
	setElems   typeSet = 1 << TypeElements
	setNumber          = setDouble | setBool
	setUnboxed         = setNumber | setObject | setElems
	setValue           = setBoxed | setUnboxed // anything but TypeNone
	setJSValue         = setNumber | setObject // a value the interpreter can hold
)

func (s typeSet) has(t Type) bool { return s&(1<<t) != 0 }

func (s typeSet) String() string {
	var names []string
	for t := TypeNone; t <= TypeElements; t++ {
		if s.has(t) {
			names = append(names, t.String())
		}
	}
	return strings.Join(names, "|")
}

// typeRule is an opcode's row of the type table: the result types allowed
// (0: any), and the types each operand may have. operands[i] is for
// operand i, the last entry for every later operand; an opcode without
// operand entries takes any value.
type typeRule struct {
	result   typeSet
	operands []typeSet
}

var (
	noValue    = typeRule{result: setNone}
	arithmetic = typeRule{setDouble, []typeSet{setDouble}}
	unbox      = typeRule{setUnboxed, []typeSet{setBoxed}}
)

// typeRules is MIR's type table, the one definition of well-typed MIR:
// mirbuild checks each graph it builds against it (a violation declines
// the function), and CheckIR and the pipeline's final check hold every
// pass to it. The rules are the ones every pass preserves (validated over
// the full octane + examples + progen corpora), not an exhaustive typing
// judgment.
var typeRules = [numOps]typeRule{
	OpNop:         noValue,
	OpGoto:        noValue,
	OpTest:        {setNone, []typeSet{setNumber}},
	OpReturn:      {setNone, []typeSet{setJSValue}},
	OpReturnUndef: noValue,
	OpUnbox:       unbox,
	OpGuardType:   unbox,
	OpAdd:         arithmetic,
	OpSub:         arithmetic,
	OpMul:         arithmetic,
	OpDiv:         arithmetic,
	OpMod:         arithmetic,
	OpPow:         arithmetic,
	OpBitAnd:      arithmetic,
	OpBitOr:       arithmetic,
	OpBitXor:      arithmetic,
	OpShl:         arithmetic,
	OpShr:         arithmetic,
	OpUshr:        arithmetic,
	OpNeg:         arithmetic,
	OpMathFunc:    arithmetic,
	OpNot:         {operands: []typeSet{setNumber}},
	OpCompare:     {setBool, []typeSet{setNumber}},
	OpElements:    {setElems, []typeSet{setObject}},
	// BoundsCheck forwards its index (TypeDouble) so BCE can replace uses
	// of the check with the index itself.
	OpBoundsCheck:  {setDouble | setNone, []typeSet{setNumber}},
	OpLoadElement:  {operands: []typeSet{setElems, setNumber}},
	OpStoreElement: {setNone, []typeSet{setValue, setNumber}},
	OpSetLength:    {setNone, []typeSet{setObject, setNumber}},
	OpArrayPush:    {operands: []typeSet{setObject, setNumber}},
	OpArrayPop:     {operands: []typeSet{setObject}},
	OpNewArray:     {operands: []typeSet{setNumber}},
	OpStoreGlobal:  {setNone, []typeSet{setJSValue}},
	OpCall:         {operands: []typeSet{setJSValue}},
	OpOSREntry:     noValue,
	OpSnapshot:     noValue,
	OpAddrOf:       {operands: []typeSet{setObject}},
	OpKeepAlive:    noValue,
}

// CheckType checks one instruction against MIR's type table and returns
// the first violation, or "" when the instruction is well typed. It is the
// Types family of VerifyOpts, and the builder's one type check.
func (in *Instr) CheckType() string {
	r := typeRules[in.Op]
	if r.result != 0 && !r.result.has(in.Type) {
		return fmt.Sprintf("%s has type %s, want %s", in.Op, in.Type, r.result)
	}
	for i, op := range in.Operands {
		want := setValue
		if n := len(r.operands); n > 0 {
			want = r.operands[min(i, n-1)]
		}
		if !want.has(op.Type) {
			return fmt.Sprintf("%s operand %d is %d (%s), want %s", in.Op, i, op.ID, op.Type, want)
		}
	}
	return ""
}

func containsBlock(list []*Block, b *Block) bool {
	for _, x := range list {
		if x == b {
			return true
		}
	}
	return false
}
