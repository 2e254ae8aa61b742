package mir

import "fmt"

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
//   - types are consistent: every operand carries a result type (TypeNone
//     results are pure effects and cannot be used as values), control and
//     store instructions produce no value, and unbox/guard instructions
//     consume boxed values while typed arithmetic never does.
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
		if opts.Types && op.Type == TypeNone {
			addErr("block%d: instr %d uses no-result instruction %d (%s) as a value",
				b.ID, user.ID, op.ID, op.Op)
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
				if errMsg := checkInstrType(in); errMsg != "" {
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

// checkInstrType validates the result/operand type discipline of one
// instruction. It returns "" when consistent. The rules are deliberately
// the ones every pass preserves (validated over the full octane + examples
// + progen corpora), not an exhaustive typing judgment.
func checkInstrType(in *Instr) string {
	switch in.Op {
	case OpGoto, OpTest, OpReturn, OpReturnUndef,
		OpStoreElement, OpStoreGlobal, OpSetLength, OpKeepAlive, OpNop,
		OpOSREntry, OpSnapshot:
		if in.Type != TypeNone {
			return fmt.Sprintf("%s must not produce a value (has type %s)", in.Op, in.Type)
		}
	case OpBoundsCheck:
		// BoundsCheck forwards its index (TypeDouble) so BCE can replace
		// uses of the check with the index itself.
		if in.Type != TypeDouble && in.Type != TypeNone {
			return fmt.Sprintf("boundscheck has type %s", in.Type)
		}
	case OpUnbox, OpGuardType:
		if in.Type == TypeNone || in.Type == TypeValue {
			return fmt.Sprintf("%s must produce an unboxed type (has %s)", in.Op, in.Type)
		}
		if len(in.Operands) > 0 && in.Operands[0].Type != TypeValue {
			return fmt.Sprintf("%s of already-unboxed value %d (%s)",
				in.Op, in.Operands[0].ID, in.Operands[0].Type)
		}
	case OpAdd, OpSub, OpMul, OpDiv, OpMod, OpPow,
		OpBitAnd, OpBitOr, OpBitXor, OpShl, OpShr, OpUshr, OpNeg, OpMathFunc:
		if in.Type != TypeDouble {
			return fmt.Sprintf("arithmetic %s has type %s", in.Op, in.Type)
		}
		for _, op := range in.Operands {
			if op.Type != TypeDouble {
				return fmt.Sprintf("arithmetic %s consumes non-double operand %d (%s)",
					in.Op, op.ID, op.Type)
			}
		}
	case OpCompare:
		if in.Type != TypeBoolean {
			return fmt.Sprintf("compare has type %s", in.Type)
		}
	case OpElements:
		if in.Type != TypeElements {
			return fmt.Sprintf("elements has type %s", in.Type)
		}
		if len(in.Operands) > 0 && in.Operands[0].Type != TypeObject {
			return fmt.Sprintf("elements of non-object %d (%s)", in.Operands[0].ID, in.Operands[0].Type)
		}
	case OpLoadElement:
		if len(in.Operands) > 0 && in.Operands[0].Type != TypeElements {
			return fmt.Sprintf("loadelement base %d is %s, want elements",
				in.Operands[0].ID, in.Operands[0].Type)
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
