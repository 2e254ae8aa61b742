// The sub-LIR tier bridge: the exported surface a lower tier (the
// machine-code backend in internal/mc) uses to stay bit-identical with
// this package's executors. The contract is delegation: whenever native
// code reaches a rare path — budget within reach, guard about to fail,
// unmapped access, an op it does not compile — it exits with the current
// LIR pc and step count and Resume finishes the activation in the unfused
// reference loop over the same register file. Because the reference loop
// IS the semantics, every delegated path is correct by construction. The
// ops a lower tier services itself between re-entries go through
// RuntimeOp (native.go), the same function the reference loop calls.
package native

import (
	"github.com/jitbull/jitbull/internal/heap"
	"github.com/jitbull/jitbull/internal/lir"
	"github.com/jitbull/jitbull/internal/value"
)

// Resume continues an activation in the unfused reference loop at pc with
// steps already charged, over a register file the caller has been
// mutating. It is exactly the delegation the fused tier performs at its
// block-level budget checks; Result.Checks is NOT accumulated here — the
// caller merges its own check count, as execFused does.
func Resume(code *lir.Code, regs []float64, tags []Tag, h Hooks, maxOps int64, pool *Pool, pc int, steps int64) (Result, Status, error) {
	return execSwitch(code, regs, tags, h, maxOps, pool, pc, steps)
}

// BoxParams exposes parameter boxing so a lower tier's entry sequence
// populates the register file identically.
func BoxParams(code *lir.Code, args []value.Value, regs []float64, tags []Tag) {
	boxParams(code, args, regs, tags)
}

// GetRegs leases a register file of n slots from the pool (contents are
// NOT zeroed, same as every internal lease).
func (p *Pool) GetRegs(n int) ([]float64, []Tag) { return p.getRegs(n) }

// PutRegs returns a leased register file.
func (p *Pool) PutRegs(f []float64, t []Tag) { p.putRegs(f, t) }

// Top exposes the register stack's allocation point to a lower tier whose
// generated code carves a callee's window itself: the address of the
// current chunk's first free register index, and the chunk's size. Both
// hold until the next lease or release made through the pool's methods
// (a lease may open another chunk), so they are re-read before every entry
// into generated code. A pool that has never leased a window has no chunk
// yet: nil, 0.
func (p *Pool) Top() (top *int, size int) {
	if len(p.chunks) == 0 {
		return nil, 0
	}
	c := &p.chunks[p.cur]
	return &c.top, len(c.floats)
}

// Window returns the n registers at offset off of the current chunk as a
// leased window: one that generated code carved by advancing the top, and
// that PutRegs gives back like any other.
func (p *Pool) Window(off, n int) ([]float64, []Tag) {
	c := &p.chunks[p.cur]
	return c.floats[off : off+n : off+n], c.tags[off : off+n : off+n]
}

// MaterializeOSR populates a register file for an OSR entry exactly as
// ExecOSR does: zero the (recycled, unzeroed) frame, strictly materialize
// the frame-map slots (a number slot accepts exactly a Number, a boolean
// slot exactly a Boolean, an object slot exactly an Array), rematerialize
// hoisted constants, and re-derive preheader-cached elems/length values in
// dependency order. ok=false refuses the transfer; nothing has run and the
// register file contents are unspecified. On success pc is the loop-header
// op index to enter at.
func MaterializeOSR(code *lir.Code, entryIdx int, locals []value.Value, arena *heap.Arena, regs []float64, tags []Tag) (int32, bool) {
	if entryIdx < 0 || entryIdx >= len(code.OSREntries) {
		return 0, false
	}
	e := &code.OSREntries[entryIdx]
	if !e.Eligible {
		return 0, false
	}
	for i := range regs {
		regs[i], tags[i] = 0, TagOther
	}
	for _, s := range e.Slots {
		var v value.Value
		if int(s.Slot) < len(locals) {
			v = locals[s.Slot]
		}
		switch s.Kind {
		case lir.SlotNum:
			if v.Type() != value.Number {
				return 0, false
			}
			regs[s.Reg], tags[s.Reg] = v.AsNumber(), TagNumber
		case lir.SlotBool:
			if v.Type() != value.Boolean {
				return 0, false
			}
			regs[s.Reg], tags[s.Reg] = v.AsNumber(), TagBoolean
		case lir.SlotObj:
			if !v.IsArray() {
				return 0, false
			}
			regs[s.Reg], tags[s.Reg] = float64(v.Handle()), TagObject
		default:
			return 0, false
		}
	}
	for _, cs := range e.Consts {
		regs[cs.Reg], tags[cs.Reg] = cs.Imm, TagNumber
	}
	for _, ro := range e.Remats {
		switch ro.Kind {
		case lir.RematElems:
			elems, ok := arena.Elems(int32(regs[ro.Src]))
			if !ok {
				return 0, false
			}
			regs[ro.Reg] = float64(elems)
		case lir.RematLen:
			v, crash := arena.LengthAt(int(regs[ro.Src]))
			if crash != nil {
				return 0, false
			}
			regs[ro.Reg] = v
		default:
			return 0, false
		}
	}
	return e.PC, true
}
