// Package regalloc compacts the virtual register file of LIR code with a
// linear-scan allocation over the linearized op list. SSA values get dense
// frame slots that are reused once their live interval ends, shrinking the
// per-call frame the native executor allocates.
package regalloc

import (
	"slices"
	"sort"

	"github.com/jitbull/jitbull/internal/faults"
	"github.com/jitbull/jitbull/internal/lir"
	"github.com/jitbull/jitbull/internal/obs"
)

// AllocateWith is Allocate under a compile supervisor context (step budget
// and fault injection); fctx may be nil, in which case it cannot fail.
func AllocateWith(c *lir.Code, fctx *faults.CompileCtx) error {
	sp := fctx.Span(obs.CatCompile, "regalloc")
	regsIn := c.NumRegs
	if fctx != nil {
		if err := fctx.Step(faults.PointRegalloc, c.Name, int64(len(c.Ops))); err != nil {
			sp.EndErr(err)
			return err
		}
	}
	Allocate(c)
	sp.End(obs.I("regs_in", int64(regsIn)), obs.I("regs_out", int64(c.NumRegs)))
	return nil
}

// Allocate rewrites c's registers in place and updates NumRegs. Parameters
// keep their slots (the executor copies arguments into registers 0..n-1).
// It also attaches the basic-block metadata (leaders, loop heads) the
// superinstruction fuser consumes — the allocator already walks every
// branch for live-interval extension, so the shape falls out for free.
func Allocate(c *lir.Code) {
	c.Blocks = lir.ComputeBlocks(c)
	n := c.NumRegs
	if n == 0 {
		return
	}
	def := make([]int, n)
	last := make([]int, n)
	for i := range def {
		def[i] = -1
		last[i] = -1
	}
	touch := func(r int32, pc int) {
		if def[r] < 0 {
			def[r] = pc
		}
		last[r] = pc
	}
	forEachReg(c, func(r *int32, pc int, _ bool) { touch(*r, pc) })

	// Parameters are live from entry.
	for p := 0; p < c.NumParams && p < n; p++ {
		if def[p] < 0 {
			def[p] = 0
			last[p] = 0
		} else {
			def[p] = 0
		}
	}

	// OSR/deopt side tables reference registers the op stream alone may
	// consider dead: a local unused inside the loop still has to be
	// materializable at the loop header (OSR) and recoverable at a
	// speculated call (deopt). Extend those intervals to the referencing
	// pc BEFORE the back-edge fixpoint, so the fixpoint then carries them
	// around the loop — a frame-map register must never share a slot with
	// any value live in the loop, or OSR materialization would clobber it.
	extendSlots := func(slots []lir.FrameSlot, pc int) {
		for _, s := range slots {
			r := s.Reg
			if r < 0 || int(r) >= n {
				continue
			}
			if def[r] < 0 {
				def[r] = pc
			}
			if last[r] < pc {
				last[r] = pc
			}
		}
	}
	for _, e := range c.OSREntries {
		extendSlots(e.Slots, int(e.PC))
	}
	for pc, op := range c.Ops {
		if op.Kind == lir.KCallSpec && op.Target >= 0 && int(op.Target) < len(c.DeoptExits) {
			extendSlots(c.DeoptExits[op.Target].Slots, pc)
		}
	}

	// Extend intervals across loop back edges: a value defined before the
	// branch target and used inside [target, branch] is still needed on
	// the next iteration.
	for changed := true; changed; {
		changed = false
		for pc, op := range c.Ops {
			if op.Kind != lir.KJump && op.Kind != lir.KBranchFalse {
				continue
			}
			t := int(op.Target)
			if t > pc {
				continue // forward edge
			}
			for r := 0; r < n; r++ {
				if def[r] >= 0 && def[r] < t && last[r] >= t && last[r] < pc {
					last[r] = pc
					changed = true
				}
			}
		}
	}

	// Linear scan: assign slots in order of definition point.
	type interval struct {
		reg      int
		def, end int
	}
	intervals := make([]interval, 0, n)
	for r := 0; r < n; r++ {
		if def[r] >= 0 {
			intervals = append(intervals, interval{reg: r, def: def[r], end: last[r]})
		}
	}
	sort.Slice(intervals, func(i, j int) bool {
		if intervals[i].def != intervals[j].def {
			return intervals[i].def < intervals[j].def
		}
		return intervals[i].reg < intervals[j].reg
	})

	slotOf := make([]int32, n)
	for i := range slotOf {
		slotOf[i] = -1
	}
	// Parameters get their own fixed slots first.
	nextSlot := int32(c.NumParams)
	for p := 0; p < c.NumParams && p < n; p++ {
		slotOf[p] = int32(p)
	}
	type active struct {
		end  int
		slot int32
	}
	var free []int32
	var live []active
	expire := func(pc int) {
		out := live[:0]
		for _, a := range live {
			if a.end < pc {
				free = append(free, a.slot)
			} else {
				out = append(out, a)
			}
		}
		live = out
	}
	for _, iv := range intervals {
		if slotOf[iv.reg] >= 0 {
			continue // parameter
		}
		expire(iv.def)
		var slot int32
		if len(free) > 0 {
			sort.Slice(free, func(i, j int) bool { return free[i] < free[j] })
			slot = free[0]
			free = free[1:]
		} else {
			slot = nextSlot
			nextSlot++
		}
		slotOf[iv.reg] = slot
		live = append(live, active{end: iv.end, slot: slot})
	}

	maxSlot := int32(c.NumParams)
	forEachReg(c, func(r *int32, _ int, _ bool) {
		s := slotOf[*r]
		if s < 0 {
			s = 0 // unreachable register; any slot will do
		}
		*r = s
		if s+1 > maxSlot {
			maxSlot = s + 1
		}
	})
	if int(nextSlot) > int(maxSlot) {
		maxSlot = nextSlot
	}
	c.NumRegs = int(maxSlot)

	// Rewrite the side tables with the same mapping as the op stream.
	mapSlots := func(slots []lir.FrameSlot) {
		for i := range slots {
			s := slotOf[slots[i].Reg]
			if s < 0 {
				s = 0
			}
			slots[i].Reg = s
		}
	}
	for i := range c.OSREntries {
		mapSlots(c.OSREntries[i].Slots)
	}
	for i := range c.DeoptExits {
		mapSlots(c.DeoptExits[i].Slots)
	}
	markEligible(c)
}

// markEligible decides, per OSR entry, whether transferring into the native
// frame at that loop header is sound: every register live at the header (in
// the post-allocation code) must be covered by the entry's frame map, since
// OSR materialization zeroes the frame and writes only frame-map registers.
// The classes of uncovered live registers the entry can absorb are
// rematerializable constants and preheader-cached array accessors (see the
// reaching-defs pass below); anything else — sunk temporaries, derived
// values of other shapes — makes the entry ineligible.
//
// It then prunes the frame map to what the code can read: a slot stays when
// its register is live at the header or is the array handle a RematElems
// re-derives from. A pruned local is not materialized, so its runtime type
// no longer refuses the entry (a call result the loop body overwrites
// before reading may hold anything at the header, undefined after a deopt
// included). A deopt exit reads its slots' registers when its guard fails,
// so the liveness counts those reads as uses at the KCallSpec, before the
// call's def: a local the loop leaves alone but a deopt must hand back to
// the interpreter stays in the map.
func markEligible(c *lir.Code) {
	if len(c.OSREntries) == 0 {
		return
	}
	nOps := len(c.Ops)
	nRegs := c.NumRegs
	words := (nRegs + 63) / 64
	if words == 0 {
		words = 1
	}

	// Per-op register references, uses before defs (forEachReg's order). A
	// guarded call's deopt exit reads its slots after the call returns and
	// before the result is written.
	type ref struct {
		reg   int32
		isDef bool
	}
	refs := make([][]ref, nOps)
	forEachReg(c, func(r *int32, pc int, isDef bool) {
		if op := &c.Ops[pc]; isDef && op.Kind == lir.KCallSpec && op.Target >= 0 && int(op.Target) < len(c.DeoptExits) {
			for _, s := range c.DeoptExits[op.Target].Slots {
				refs[pc] = append(refs[pc], ref{s.Reg, false})
			}
		}
		refs[pc] = append(refs[pc], ref{*r, isDef})
	})

	// Block structure from the leaders regalloc already computed.
	var starts []int32
	for _, l := range c.Blocks.Leaders {
		if int(l) < nOps {
			starts = append(starts, l)
		}
	}
	nb := len(starts)
	if nb == 0 {
		return
	}
	blockOf := make(map[int32]int, nb)
	for i, s := range starts {
		blockOf[s] = i
	}
	end := func(i int) int {
		if i+1 < nb {
			return int(starts[i+1])
		}
		return nOps
	}

	bitset := func() []uint64 { return make([]uint64, words) }
	set := func(b []uint64, r int32) {
		if r >= 0 && int(r) < nRegs {
			b[r/64] |= 1 << (uint(r) % 64)
		}
	}
	has := func(b []uint64, r int32) bool {
		return r >= 0 && int(r) < nRegs && b[r/64]&(1<<(uint(r)%64)) != 0
	}

	gen := make([][]uint64, nb)
	kill := make([][]uint64, nb)
	succs := make([][]int, nb)
	for i := 0; i < nb; i++ {
		gen[i], kill[i] = bitset(), bitset()
		for pc := int(starts[i]); pc < end(i); pc++ {
			for _, rf := range refs[pc] {
				if rf.isDef {
					set(kill[i], rf.reg)
				} else if !has(kill[i], rf.reg) {
					set(gen[i], rf.reg)
				}
			}
		}
		lastOp := &c.Ops[end(i)-1]
		addSucc := func(target int32) {
			if bi, ok := blockOf[target]; ok {
				succs[i] = append(succs[i], bi)
			}
		}
		switch lastOp.Kind {
		case lir.KJump:
			addSucc(lastOp.Target)
		case lir.KBranchFalse:
			addSucc(lastOp.Target)
			if end(i) < nOps {
				addSucc(int32(end(i)))
			}
		case lir.KRetNum, lir.KRetObj, lir.KRetUndef:
			// No successors.
		default:
			if end(i) < nOps {
				addSucc(int32(end(i)))
			}
		}
	}

	liveIn := make([][]uint64, nb)
	for i := range liveIn {
		liveIn[i] = bitset()
	}
	for changed := true; changed; {
		changed = false
		for i := nb - 1; i >= 0; i-- {
			out := bitset()
			for _, s := range succs[i] {
				for w := 0; w < words; w++ {
					out[w] |= liveIn[s][w]
				}
			}
			for w := 0; w < words; w++ {
				nv := gen[i][w] | (out[w] &^ kill[i][w])
				if nv != liveIn[i][w] {
					liveIn[i][w] = nv
					changed = true
				}
			}
		}
	}

	// Reaching definitions, block level, one lattice value per register:
	// rdNone (no def on any path yet), a unique def pc, or rdMulti. After
	// allocation many SSA values share one slot, so "the slot is written
	// several times somewhere" says nothing about a given loop header —
	// what matters is which def *reaches* it. GVN parks loop-invariant
	// constants in the preheader, where they are the unique reaching def
	// of their slot even when the same slot served an earlier loop; those
	// the OSR prologue can rematerialize instead of rejecting the entry.
	const (
		rdNone  = int32(-1)
		rdMulti = int32(-2)
	)
	preds := make([][]int, nb)
	for i, ss := range succs {
		for _, s := range ss {
			preds[s] = append(preds[s], i)
		}
	}
	lastDef := make([][]int32, nb)
	for i := 0; i < nb; i++ {
		lastDef[i] = make([]int32, nRegs)
		for r := range lastDef[i] {
			lastDef[i][r] = rdNone
		}
		for pc := int(starts[i]); pc < end(i); pc++ {
			for _, rf := range refs[pc] {
				if rf.isDef && rf.reg >= 0 && int(rf.reg) < nRegs {
					lastDef[i][rf.reg] = int32(pc)
				}
			}
		}
	}
	merge := func(a, b int32) int32 {
		switch {
		case a == rdNone:
			return b
		case b == rdNone:
			return a
		case a == b:
			return a
		default:
			return rdMulti
		}
	}
	rdIn := make([][]int32, nb)
	rdOut := make([][]int32, nb)
	for i := 0; i < nb; i++ {
		rdIn[i] = make([]int32, nRegs)
		rdOut[i] = make([]int32, nRegs)
		for r := 0; r < nRegs; r++ {
			rdIn[i][r] = rdNone
			rdOut[i][r] = lastDef[i][r]
		}
	}
	for changed := true; changed; {
		changed = false
		for i := 0; i < nb; i++ {
			for r := 0; r < nRegs; r++ {
				v := rdNone
				for _, p := range preds[i] {
					v = merge(v, rdOut[p][r])
				}
				if v != rdIn[i][r] {
					rdIn[i][r] = v
					changed = true
				}
				o := lastDef[i][r]
				if o == rdNone {
					o = v
				}
				if o != rdOut[i][r] {
					rdOut[i][r] = o
					changed = true
				}
			}
		}
	}

	for ei := range c.OSREntries {
		e := &c.OSREntries[ei]
		bi, ok := blockOf[e.PC]
		if !ok {
			e.Eligible = false
			continue
		}
		covered := bitset()
		objSlot := bitset()  // frame-map registers holding array handles
		elemsReg := bitset() // registers resolved to elements addresses (RematElems)
		for _, s := range e.Slots {
			set(covered, s.Reg)
			if s.Kind == lir.SlotObj {
				set(objSlot, s.Reg)
			}
		}
		e.Consts = nil
		e.Remats = nil
		var unresolved []int32
		for r := int32(0); int(r) < nRegs; r++ {
			if has(liveIn[bi], r) && !has(covered, r) {
				unresolved = append(unresolved, r)
			}
		}
		// Resolve uncovered live registers to prologue rematerializations,
		// sweeping to a fixpoint because a cached length (KInitLen) depends
		// on a cached elements address (KElemsHandle) that may carry a
		// higher register number. The sweep order puts dependencies first
		// in e.Remats.
		for progress := true; progress && len(unresolved) > 0; {
			progress = false
			next := unresolved[:0]
			for _, r := range unresolved {
				d := rdIn[bi][r]
				switch {
				case d >= 0 && c.Ops[d].Kind == lir.KConst:
					e.Consts = append(e.Consts, lir.ConstSlot{Reg: r, Imm: c.Ops[d].Imm})
				case d >= 0 && c.Ops[d].Kind == lir.KElemsHandle && has(objSlot, c.Ops[d].A):
					// A preheader-cached elements address of an array the
					// frame map materializes: re-derive it from the array
					// handle. The unique-reaching-def lattice guarantees the
					// cache the loop body reads is this one.
					e.Remats = append(e.Remats, lir.RematOp{Kind: lir.RematElems, Reg: r, Src: c.Ops[d].A})
					set(elemsReg, r)
				case d >= 0 && c.Ops[d].Kind == lir.KInitLen && has(elemsReg, c.Ops[d].A):
					// A preheader-cached length read through a re-derived
					// elements address; the hoist proved it loop-invariant.
					e.Remats = append(e.Remats, lir.RematOp{Kind: lir.RematLen, Reg: r, Src: c.Ops[d].A})
				default:
					next = append(next, r)
					continue
				}
				progress = true
			}
			unresolved = next
		}
		e.Eligible = len(unresolved) == 0

		// Prune only now: the remats above root at object slots that may
		// themselves be dead at the header.
		keep := bitset()
		copy(keep, liveIn[bi])
		for _, ro := range e.Remats {
			if ro.Kind == lir.RematElems {
				set(keep, ro.Src)
			}
		}
		e.Slots = slices.DeleteFunc(e.Slots, func(s lir.FrameSlot) bool { return !has(keep, s.Reg) })
	}
}

// forEachReg visits every register reference in the code (including call
// argument lists), an op's uses before its def. isDef tells them apart: the
// allocator's intervals ignore it, markEligible's liveness needs it.
func forEachReg(c *lir.Code, fn func(r *int32, pc int, isDef bool)) {
	for pc := range c.Ops {
		op := &c.Ops[pc]
		switch op.Kind {
		case lir.KNop, lir.KJump, lir.KRetUndef, lir.KCodeBase, lir.KConst, lir.KLoadGlobal,
			lir.KOSRPoint:
			// No register sources. (KOSRPoint's frame map is a side table,
			// handled explicitly by Allocate, not an op-stream reference.)
		case lir.KBranchFalse, lir.KNeg, lir.KNot, lir.KUnbox, lir.KGuardType,
			lir.KElemsHandle, lir.KElemsRaw, lir.KInitLen, lir.KPop, lir.KNewArr,
			lir.KAddrOf, lir.KMove, lir.KMoveTag, lir.KRetNum, lir.KRetObj,
			lir.KStoreGlobalNum, lir.KStoreGlobalObj:
			fn(&op.A, pc, false)
		case lir.KMath:
			fn(&op.A, pc, false)
			fn(&op.B, pc, false)
		case lir.KCall, lir.KCallSpec:
			args := c.ArgLists[op.A]
			for i := range args {
				fn(&args[i], pc, false)
			}
		default:
			fn(&op.A, pc, false)
			fn(&op.B, pc, false)
			if op.Kind == lir.KStoreElem {
				fn(&op.C, pc, false)
			}
		}
		switch op.Kind {
		case lir.KConst, lir.KMove, lir.KMoveTag, lir.KAdd, lir.KSub, lir.KMul,
			lir.KDiv, lir.KMod, lir.KPow, lir.KBitAnd, lir.KBitOr, lir.KBitXor,
			lir.KShl, lir.KShr, lir.KUshr, lir.KNeg, lir.KNot, lir.KCmp, lir.KMath,
			lir.KUnbox, lir.KGuardType, lir.KElemsHandle, lir.KElemsRaw,
			lir.KInitLen, lir.KLoadElem, lir.KPush, lir.KPop, lir.KNewArr,
			lir.KAddrOf, lir.KCodeBase, lir.KLoadGlobal, lir.KCall, lir.KCallSpec:
			fn(&op.Dst, pc, true)
		}
	}
}
