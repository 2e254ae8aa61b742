package passes

import (
	"math"
	"strconv"

	"github.com/jitbull/jitbull/internal/bytecode"
	"github.com/jitbull/jitbull/internal/mir"
)

// gvnPass is dominator-scoped global value numbering. An instruction is
// replaced by an earlier congruent one when the earlier one's block
// dominates it. Congruence keys include:
//
//   - opcode, aux payload and result type;
//   - operand identities (after canonicalization of earlier replacements);
//   - for memory loads, the alias-analysis Dependency, so loads separated
//     by a clobber are never congruent.
//
// Redundant guards (boundscheck, unbox, guardtype) are eliminated the same
// way: a dominating congruent guard already proved the property.
//
// Injected bug (CVE-2019-17026 / CVE-2019-9810 model — the paper notes the
// two CVEs share one root flaw): the congruence key of `initializedlength`
// omits its elements operand, i.e. lengths are keyed only by memory epoch,
// not by *which array* they belong to. A bounds check against array A then
// merges with one against array B, and GVN removes it — exactly the class
// of "incorrect dependency analysis leading to bounds check elimination"
// the paper describes for CVE-2019-17026.
type gvnPass struct{}

func (gvnPass) Name() string      { return "GVN" }
func (gvnPass) Disableable() bool { return true }

func (gvnPass) Run(g *mir.Graph, ctx *Context) error {
	g.BuildDominators()
	lengthKeyIgnoresObject := ctx.Bugs.Has(CVE201717026) || ctx.Bugs.Has(CVE20199810)

	rpo := g.ReversePostorder()
	eligible := 0
	for _, b := range rpo {
		for _, in := range b.Instrs {
			if !in.Dead && gvnEligible(in) {
				eligible++
			}
		}
	}
	// Most keys hold one instruction: first maps a key to its first, and
	// more holds the rare later ones, tried after it in insertion order.
	first := make(map[gvnKey]*mir.Instr, eligible)
	more := map[gvnKey][]*mir.Instr{}
	changed := false
	for _, b := range rpo {
		for _, in := range b.Instrs {
			if in.Dead || !gvnEligible(in) {
				continue
			}
			key := keyOf(in, lengthKeyIgnoresObject)
			leader, seen := first[key]
			if seen && (leader.Dead || !leader.Block.Dominates(b)) {
				leader = nil
				for _, cand := range more[key] {
					if !cand.Dead && cand.Block.Dominates(b) {
						leader = cand
						break
					}
				}
			}
			if leader != nil && leader != in {
				g.ReplaceUses(in, leader)
				in.Dead = true
				changed = true
				continue
			}
			if seen {
				more[key] = append(more[key], in)
			} else {
				first[key] = in
			}
		}
	}
	if changed {
		g.RemoveDead()
	}
	return nil
}

// gvnEligible reports whether the instruction participates in value
// numbering.
func gvnEligible(in *mir.Instr) bool {
	switch in.Op {
	case mir.OpPhi, mir.OpParameter, mir.OpCall, mir.OpNewArray,
		mir.OpArrayPush, mir.OpArrayPop, mir.OpStoreElement, mir.OpSetLength,
		mir.OpStoreGlobal, mir.OpKeepAlive, mir.OpNop, mir.OpMagic:
		return false
	case mir.OpMathFunc:
		// Math.random mutates RNG state: never congruent with itself.
		return bytecode.Builtin(in.Aux) != bytecode.BMathRandom
	}
	if in.Op.IsControl() {
		return false
	}
	return true
}

// gvnKey is the congruence key of an eligible instruction: opcode, aux
// payload and result type; a load's alias-analysis Dependency; and the
// operand identities. Up to four operand IDs that fit in int32 are held in
// ops (unused slots -1); otherwise ops is all -2 and more spells every ID
// out. A constant has no operands, so ops holds its value's bits instead
// (every NaN as one): the opcode keeps the two readings apart, and the key
// stays at 56 bytes.
type gvnKey struct {
	op   mir.Op
	typ  mir.Type
	aux  int
	dep  *mir.Instr
	ops  [4]int32
	more string
}

// nanBits is the one key value of every NaN constant: all NaNs are
// congruent, whatever their payload, while -0 and 0 stay apart.
const nanBits = 0x7ff8000000000001

func keyOf(in *mir.Instr, lengthKeyIgnoresObject bool) gvnKey {
	k := gvnKey{op: in.Op, typ: in.Type, aux: in.Aux, ops: [4]int32{-1, -1, -1, -1}}
	if in.Op == mir.OpConstant {
		bits := math.Float64bits(in.Num)
		if math.IsNaN(in.Num) {
			bits = nanBits
		}
		k.ops[0], k.ops[1] = int32(uint32(bits)), int32(uint32(bits>>32))
		return k
	}
	if in.Op.Loads() != mir.AliasNone {
		k.dep = in.Dependency
	}
	if in.Op == mir.OpInitializedLength && lengthKeyIgnoresObject {
		// BUG: the elements operand is not part of the key.
		return k
	}
	if len(in.Operands) <= len(k.ops) {
		fits := true
		for i, op := range in.Operands {
			if op.ID < 0 || op.ID > math.MaxInt32 {
				fits = false
				break
			}
			k.ops[i] = int32(op.ID)
		}
		if fits {
			return k
		}
	}
	k.ops = [4]int32{-2, -2, -2, -2}
	var b []byte
	for _, op := range in.Operands {
		b = strconv.AppendInt(append(b, '|'), int64(op.ID), 10)
	}
	k.more = string(b)
	return k
}
