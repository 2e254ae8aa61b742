// LIR → amd64 lowering.
//
// Execution model: the canonical register file stays in memory — the same
// pooled []float64 / []Tag the threaded and unfused executors run over —
// and generated code addresses it off RBX (floats) and R13 (tags), with
// the arena cells off R12, the activation record off RDI and the
// per-engine environment off RSI. Memory is the source of truth and is
// complete at every op boundary: every op that defines a register stores
// it. That IS the deopt/OSR bridge contract: at any exit the register file
// is already the complete activation state, so delegation to the reference
// executor, OSR materialization and deopt reconstruction need zero flush
// code and cannot drift from the other tiers.
//
// XMM2-XMM14 cache the float registers write-through: an operand an XMM
// already holds is read from it, a def is computed into one and stored.
// The cache starts empty at every block leader. In an innermost loop the
// most-read registers live in fixed XMMs (pins) for the whole loop: a pad
// at the header loads them (the preheader falls through it, and Go enters
// there), jumps inside the loop land past it, and a direct call, whose
// callee used the XMMs, reloads them. Where Go enters an op with anything
// cached — pins, or values the ops before it computed — it enters through
// an out-of-line stub that loads them from memory, which Go left complete,
// and jumps in: Program.Off points there.
//
// Budget discipline matches the fused tier exactly: steps accumulate in
// R15 (flushed in static increments, not per-op), and the only budget
// checks are one at entry (performed by the Go run loop) plus one per
// taken jump — if steps + cost[target] would exceed the budget, the code
// exits with a delegate record and the reference loop finishes the
// activation, tripping the budget at the bit-identical op. R11 counts the
// taken-jump checks; the trampoline loads it from the record and stores it
// back.
//
// Ops whose semantics live in Go (allocation, math builtins) compile to a
// runtime-exit: the run loop executes that single op with reference
// semantics and re-enters at the next op's offset. Hot ops with a cheap
// common case — modulo, global loads/number-stores, raw element counts,
// calls into a function that has machine code of its own — compile to an
// inline fast path whose guards exit to the same runtime handler, so both
// routes produce identical bits.
// Guard failures and unmapped accesses compile to a delegate-exit *before*
// any side effect, so the reference loop re-executes the op and produces
// the identical bailout or crash.
package mc

import (
	"cmp"
	"errors"
	"math"
	"slices"

	"github.com/jitbull/jitbull/internal/heap"
	"github.com/jitbull/jitbull/internal/interp"
	"github.com/jitbull/jitbull/internal/lir"
	"github.com/jitbull/jitbull/internal/native"
	"github.com/jitbull/jitbull/internal/value"
)

// ErrUnsupported marks code the lowering declines; the engine falls back
// to the threaded tier silently (legitimate tiering, not a failure).
var ErrUnsupported = errors.New("mc: unsupported code shape")

// Exit kinds generated code reports in RAX (see exec_amd64.go's run loop).
const (
	exitRet      = 1 // the KRet* op left result kind and payload in the record
	exitDelegate = 2 // resume the reference loop at record.exitpc
	exitRuntime  = 3 // execute the op at record.exitpc in Go, re-enter after
	// A direct call (emitCall) came back with something other than exitRet:
	// the caller, suspended in the call op at record.exitpc, returns this
	// kind in turn, so the whole chain unwinds to the trampoline by plain
	// RETs and Go finishes it from the records, innermost first.
	exitUnwind = 4
	// A direct call returned a result the inline check does not take (it
	// wants coercion, a bailout or a deopt): the callee is done and
	// accounted for, its result sits in the caller's record, and Go applies
	// native.FinishCall to the call op at record.exitpc.
	exitCallRet = 5
)

// Activation-record field offsets (off RDI), shared with the trampoline
// (enter_amd64.s) and the mcact struct (exec_amd64.go); TestFrameOffsets
// asserts them with unsafe.Offsetof. A record holds no pointer: generated
// code creates the record of a direct callee itself, and generated code
// never writes a Go pointer.
const (
	fExitPC  = 0  // exit operand: LIR pc
	fSteps   = 8  // step counter (R15) while the activation is not running
	fChecks  = 16 // block-check counter: R11's home while the activation is not running
	fMaxOps  = 24 // step budget
	fKind    = 32 // exit kind of a direct callee its caller unwound from
	fResKind = 40 // native.ResultKind of the return value (exitRet, exitCallRet)
	fResVal  = 48 // its payload
	fRegsOff = 56 // direct callee: its window's offset in the register-stack chunk

	frameSize = 64
)

// frameDepth is the number of activation records in an environment's frame
// stack, and with it the deepest chain of direct calls: one more takes the
// slow path through Go, whose next entry into generated code starts a new
// machine stack budget. The trampoline reserves 8 bytes of goroutine stack
// per record for the nested return addresses (enterStack).
const (
	frameDepth = 64
	enterStack = 8 * (frameDepth + 1)
)

// Environment field offsets (off RSI): what generated code needs of the
// engine it runs in, filled once per engine (mcenv in exec_amd64.go) apart
// from the few fields the run loop refreshes before every entry.
const (
	eTop       = 0  // arena allocation top (refreshed)
	eCodeBase  = 8  // arena code-region base
	eCode      = 16 // &code[0]: the arena's code-pointer cells (addresses from codeBase)
	eHandleLen = 24 // live handle count (refreshed)
	eCells     = 32 // &cells[0] (R12; refreshed): the heap cells below top
	eHandles   = 40 // &handles[0] (refreshed)

	// Global-slot window: hooks that expose their backing []value.Value
	// (the engine) let generated code service KLoadGlobal / KStoreGlobalNum
	// inline; hooks that don't leave the length 0 and every global op takes
	// the runtime-exit slow path through GlobalGet/GlobalSet.
	eGlobalsLen = 48 // number of exposed global slots
	eGlobals    = 56 // &globals[0] (value.Value layout via value.Layout)

	// Direct calls. Hooks without an environment leave the table length 0
	// and every call takes the runtime-exit slow path through CallFunction.
	eTableLen = 64  // call-table entries
	eTable    = 72  // &table[0] (callSlot layout: the c* offsets)
	eNFrames  = 80  // records of the frame stack in use
	eSteps    = 88  // *int64: the VM's step counter
	eNatSteps = 96  // *int64: its native share
	eMaxSteps = 104 // *int64: the budget both are held against
	eDepth    = 112 // *int: the VM's call depth
	ePoolTop  = 120 // *int: first free register of the pool's chunk (refreshed)
	eChunkLen = 128 // size of that chunk in registers (refreshed)
	eDirect   = 136 // counter: direct calls made
	eUnwinds  = 144 // counter: direct calls that came back with a non-return exit
)

// Call-table slot field offsets: one slot per function of the program,
// indexed by a call op's Aux.
const (
	cEntry     = 0  // entry address; 0 while the function may not be called directly
	cNumRegs   = 8  // the callee's register window
	cNumParams = 16 // its parameter count
	cCost0     = 24 // its entry block's straight-line cost (Program.Cost[0])
	cCalls     = 32 // *int: the engine's call counter for the function

	slotSize = 40
)

// Host is the engine side of an Env: the hooks generated code's slow paths
// call, plus what direct calls need of the engine.
type Host interface {
	native.Hooks
	// Globals is the backing array behind GlobalGet / GlobalSet (the global
	// window of the inline global ops).
	Globals() []value.Value
	// MCEnv returns the environment the host built with NewEnv (nil when it
	// runs without one).
	MCEnv() *Env
	// ReturnDirect is the post-call half of the dispatch of function fn for
	// an activation generated code called directly and Go had to finish:
	// res, status and err are how the activation ended, exactly what the
	// host's own native dispatch would have seen, and the returned value or
	// error is what CallFunction would have returned — steps charged,
	// bailout re-run in the interpreter, deopt resumed, call depth given
	// back. args are the call's boxed arguments when status is StatusBail
	// (the re-run needs them), nil otherwise.
	ReturnDirect(fn int, args []value.Value, res native.Result, status native.Status, err error) (value.Value, error)
}

// maxExactInt mirrors value.Mod's int-fast-path magnitude bound (2^53).
const maxExactInt = 9007199254740992

// Program is relocatable machine code for one function plus the side
// tables the run loop needs. Install (install_amd64.go) copies Buf into a
// W^X page pair to produce an executable Unit.
type Program struct {
	Code *lir.Code
	Buf  []byte
	// Off[pc] is where Go enters op pc: the run loop after runtime ops, OSR
	// at loop headers, a direct call at op 0. Every offset is reachable with
	// the accumulated step counter already flushed. Where the register cache
	// holds something at pc, Off[pc] loads it first: a loop header's pad, or
	// an entry stub.
	Off []int32
	// Cost[pc] is the worst-case step charge from pc to the next budget
	// check (taken jump) or exit — the fused tier's computeCost shape over
	// raw ops.
	Cost []int32
	// RT[pc] marks ops the Go run loop executes (runtime-exit ops).
	RT []bool
	// HostStep[pc] tells the run loop whether to charge the op's step when
	// servicing a runtime exit at pc. True for every RT op (their step is
	// never in the compiled pending count). For hybrid ops — inline fast
	// path with a runtime slow exit (KMod, the global ops, KElemsRaw, the
	// call ops) —
	// the op's step is baked into the flush the fall-through path reaches,
	// so the host charges it only when the slow-path re-entry skips that
	// flush: next op is a block leader (the flush sits before its entry
	// offset), a runtime op (the host never re-enters native code before
	// it), or the end of the stream. Terminal slow-path outcomes (crash,
	// bail, deopt) never reach any flush; the run loop charges the step on
	// those exits itself.
	HostStep []bool
}

type stubKey struct {
	pc   int32
	kind uint8
}

// The register cache: X0 and X1 stay scratch, X2-X14 cache float
// registers, and at most maxPins of those are a loop's pins. The rest
// (at least three) is what an op's operands and def are evicted from, so
// one op never evicts its own operands.
const (
	xFirst  = X2
	xLast   = X14
	maxPins = 8
)

// loop is an innermost loop whose pins stay in XMMs: ops head..end,
// entered from outside only at head (by falling through or jumping).
// pins[i] is the LIR register X2+i holds.
type loop struct {
	head, end int32
	pins      []int32
}

type lowerer struct {
	a    Asm
	code *lir.Code
	cost []int32
	// off[pc] is Program.Off; lbl[pc] is op pc's code, past the pad or entry
	// stub off[pc] may be. Jumps land on lbl[pc] from inside pc's loop, on
	// off[pc] from anywhere else: only a jump into a loop at its header
	// sees the difference (the pad).
	off []int32
	lbl []int32
	rt  []bool
	// hybrid marks ops compiled as an inline fast path with a runtime-exit
	// slow path (KMod, the global ops, KElemsRaw, calls): their step is in the
	// compiled pending count, so the host charges it only when the slow
	// re-entry skips the downstream flush.
	hybrid []bool
	fix    []jumpFixup
	stubs  map[stubKey][]int
	pend   int32

	loops  []loop
	loopOf []int32 // index in loops of the loop op pc is in, -1 for none; nil: no loops
	cur    *loop   // the loop being lowered
	// entries are the ops Go enters with something in the cache: each gets
	// an entry stub that loads it.
	entries []entry

	// Cache state at the op being lowered. holds[x] is the register XMM x
	// caches, plus one (0: none); in[r] is the XMM caching register r (0:
	// none, X0 never caches); pinned[x] marks the current loop's pins;
	// used[x] is the tick of x's last use, for least-recently-used eviction.
	holds  [xLast + 1]int32
	pinned [xLast + 1]bool
	used   [xLast + 1]uint32
	in     []Xmm
	tick   uint32
}

type jumpFixup struct {
	at    int
	pc    int32
	inner bool // the jump is inside the target's loop: land on lbl[pc]
}

// entry is an op Go enters at and what the cache holds there (holds).
type entry struct {
	pc    int32
	holds [xLast + 1]int32
}

// Lower compiles code to relocatable amd64 bytes. It never partially
// lowers: any op kind outside the supported set returns ErrUnsupported
// (the current LIR instruction set is fully covered; the guard is for
// future kinds).
func Lower(code *lir.Code) (*Program, error) {
	n := len(code.Ops)
	if n == 0 {
		return nil, ErrUnsupported
	}
	for i := range code.Ops {
		if code.Ops[i].Kind >= lir.KindCount {
			return nil, ErrUnsupported
		}
	}
	lo := &lowerer{
		code:   code,
		cost:   computeCost(code.Ops),
		off:    make([]int32, n),
		lbl:    make([]int32, n),
		rt:     make([]bool, n),
		hybrid: make([]bool, n),
		stubs:  map[stubKey][]int{},
		in:     make([]Xmm, code.NumRegs),
	}
	leaders := make([]bool, n+1)
	leaders[0] = true
	for i := range code.Ops {
		op := &code.Ops[i]
		if isJump(op) {
			if int(op.Target) <= n {
				leaders[op.Target] = true
			}
		}
		if op.Kind == lir.KOSRPoint {
			leaders[i] = true // OSR enters here with a fresh step count
		}
	}
	lo.findLoops()
	for i := range code.Ops {
		pc := int32(i)
		if lo.cur != nil && pc > lo.cur.end {
			lo.unpin()
		}
		if leaders[i] {
			lo.flush(0)
		}
		lo.off[i] = int32(lo.a.Len())
		if leaders[i] {
			lo.forget()
		}
		if l := lo.loopAt(pc); l >= 0 && lo.loops[l].head == pc {
			lo.pin(&lo.loops[l])
		} else if i == 0 || code.Ops[i].Kind == lir.KOSRPoint || lo.rt[i-1] || lo.hybrid[i-1] {
			// Go starts an activation at op 0 and at OSR points, and
			// re-enters behind every runtime and hybrid op.
			lo.entry(pc)
		}
		lo.lbl[i] = int32(lo.a.Len())
		lo.emitOp(pc, &code.Ops[i])
	}
	lo.unpin()
	// Fallthrough off the end: delegate at pc=n — the reference loop's
	// empty tail returns undefined with the exact steps/checks.
	lo.flush(0)
	lo.exit(int32(n), exitDelegate)
	lo.emitStubs()
	for _, e := range lo.entries {
		lo.off[e.pc] = int32(lo.a.Len())
		for x, h := range e.holds {
			if h != 0 {
				lo.a.MovsdXmmMem(Xmm(x), RBX, slot(h-1))
			}
		}
		lo.a.Patch32(lo.a.JmpFwd(), int(lo.lbl[e.pc]))
	}
	for _, fx := range lo.fix {
		to := lo.off
		if fx.inner {
			to = lo.lbl
		}
		lo.a.Patch32(fx.at, int(to[fx.pc]))
	}
	hostStep := make([]bool, n)
	for i := range code.Ops {
		switch {
		case lo.rt[i]:
			hostStep[i] = true
		case lo.hybrid[i]:
			hostStep[i] = i+1 == n || leaders[i+1] || lo.rt[i+1]
		}
	}
	return &Program{Code: code, Buf: lo.a.Buf, Off: lo.off, Cost: lo.cost, RT: lo.rt, HostStep: hostStep}, nil
}

func isJump(op *lir.Op) bool { return op.Kind == lir.KJump || op.Kind == lir.KBranchFalse }

// findLoops picks the loops whose registers get pinned: for each header
// (the target of a backward jump) the range up to its last back edge, if
// no other such range lies inside it (innermost) and no jump from outside
// the range lands inside it past the header. Ranges that pass are
// disjoint: of two that overlap without nesting, the back edge of the
// later one enters the earlier one in the middle. One pass over the ops
// for each step, so lowering stays linear in the op count.
func (lo *lowerer) findLoops() {
	ops := lo.code.Ops
	n := len(ops)
	var last []int32 // last back edge into header h, -1: none
	for pc := range ops {
		if op := &ops[pc]; isJump(op) && op.Target >= 0 && int(op.Target) <= pc {
			if last == nil {
				last = make([]int32, n)
				for i := range last {
					last[i] = -1
				}
			}
			last[op.Target] = int32(pc)
		}
	}
	if last == nil {
		return
	}
	// A range nests another iff a header inside it has its last back edge
	// inside it too; a header past a range's end has its back edge past it,
	// so the least end among the later headers decides.
	var heads, ends []int32
	least := int32(n)
	for h := n - 1; h >= 0; h-- {
		if e := last[h]; e >= 0 {
			if least > e {
				heads, ends = append(heads, int32(h)), append(ends, e)
			}
			least = min(least, e)
		}
	}
	slices.Reverse(heads)
	slices.Reverse(ends)
	// Innermost ranges have increasing heads and ends, so the ranges a jump
	// enters in the middle are a run of indices: firstH[x] / firstE[x] is
	// the first range whose head / end is at least x.
	nl := int32(len(heads))
	firstH, firstE := make([]int32, n+2), make([]int32, n+2)
	for x, kh, ke := int32(0), int32(0), int32(0); x <= int32(n)+1; x++ {
		for kh < nl && heads[kh] < x {
			kh++
		}
		for ke < nl && ends[ke] < x {
			ke++
		}
		firstH[x], firstE[x] = kh, ke
	}
	entered := make([]int32, nl+1) // difference array over range indices
	mark := func(from, to int32) {
		if from < to {
			entered[from]++
			entered[to]--
		}
	}
	for s := range ops {
		op := &ops[s]
		if !isJump(op) || op.Target < 0 || int(op.Target) > n {
			continue
		}
		t := op.Target
		if int32(s) < t { // ranges with s < head < t <= end
			mark(max(firstH[s+1], firstE[t]), firstH[t])
		} else { // ranges with head < t <= end < s
			mark(firstE[t], min(firstE[s], firstH[t]))
		}
	}
	seen, count := make([]int32, lo.code.NumRegs), make([]int32, lo.code.NumRegs)
	open := int32(0)
	for k := int32(0); k < nl; k++ {
		open += entered[k]
		if open != 0 {
			continue
		}
		pins := lo.pickPins(heads[k], ends[k], seen, count, k+1)
		if len(pins) == 0 {
			continue
		}
		if lo.loopOf == nil {
			lo.loopOf = make([]int32, n)
			for i := range lo.loopOf {
				lo.loopOf[i] = -1
			}
		}
		for pc := heads[k]; pc <= ends[k]; pc++ {
			lo.loopOf[pc] = int32(len(lo.loops))
		}
		lo.loops = append(lo.loops, loop{head: heads[k], end: ends[k], pins: pins})
	}
}

// loopAt returns the index in loops of the loop op pc is in, -1 for none.
func (lo *lowerer) loopAt(pc int32) int32 {
	if int(pc) >= len(lo.loopOf) {
		return -1
	}
	return lo.loopOf[pc]
}

// pickPins returns the loop's pins: the registers it reads before it
// defines them in op order — what is live into an iteration — most reads
// first, at most maxPins. seen and count are scratch indexed by register;
// an entry is valid for this loop when seen holds stamp.
func (lo *lowerer) pickPins(head, end int32, seen, count []int32, stamp int32) []int32 {
	var pins []int32
	for pc := head; pc <= end; pc++ {
		op := &lo.code.Ops[pc]
		rs, k := xmmReads(op)
		for _, r := range rs[:k] {
			if seen[r] != stamp {
				seen[r], count[r] = stamp, 0
				pins = append(pins, r)
			}
			if count[r] >= 0 {
				count[r]++
			}
		}
		if d, ok := defines(op); ok && seen[d] != stamp {
			seen[d], count[d] = stamp, -1
		}
	}
	slices.SortFunc(pins, func(a, b int32) int {
		if c := cmp.Compare(count[b], count[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return pins[:min(len(pins), maxPins)]
}

// xmmReads returns the registers op reads through the cache.
func xmmReads(op *lir.Op) ([3]int32, int) {
	switch op.Kind {
	case lir.KMove, lir.KMoveTag, lir.KNeg, lir.KNot, lir.KBranchFalse,
		lir.KUnbox, lir.KGuardType, lir.KElemsHandle, lir.KAddrOf,
		lir.KInitLen, lir.KElemsRaw:
		return [3]int32{op.A}, 1
	case lir.KAdd, lir.KSub, lir.KMul, lir.KDiv, lir.KMod, lir.KCmp,
		lir.KBitAnd, lir.KBitOr, lir.KBitXor, lir.KShl, lir.KShr, lir.KUshr,
		lir.KBoundsCheck, lir.KLoadElem:
		return [3]int32{op.A, op.B}, 2
	case lir.KStoreElem:
		return [3]int32{op.A, op.B, op.C}, 3
	}
	return [3]int32{}, 0
}

// defines returns the register op defines, if any.
func defines(op *lir.Op) (int32, bool) {
	switch op.Kind {
	case lir.KNop, lir.KOSRPoint, lir.KJump, lir.KBranchFalse, lir.KBoundsCheck,
		lir.KStoreElem, lir.KSetLen, lir.KStoreGlobalNum, lir.KStoreGlobalObj,
		lir.KRetNum, lir.KRetObj, lir.KRetUndef:
		return 0, false
	}
	return op.Dst, true
}

// pin enters loop l at its header: the pad loads the pins, and they stay
// bound until the loop's last op.
func (lo *lowerer) pin(l *loop) {
	lo.loadPins(l)
	for i, r := range l.pins {
		x := xFirst + Xmm(i)
		lo.bind(x, r)
		lo.pinned[x] = true
	}
	lo.cur = l
}

// unpin leaves the current loop. The pins still hold their registers'
// values; they are plain cache entries from here on.
func (lo *lowerer) unpin() {
	lo.pinned = [xLast + 1]bool{}
	lo.cur = nil
}

// loadPins loads l's pins from memory: the pad, and the return of a
// direct call, whose callee clobbered them.
func (lo *lowerer) loadPins(l *loop) {
	for i, r := range l.pins {
		lo.a.MovsdXmmMem(xFirst+Xmm(i), RBX, slot(r))
	}
}

// cached returns the XMM holding register r, or 0 when none does: the op
// then reads r from memory.
func (lo *lowerer) cached(r int32) Xmm {
	x := lo.in[r]
	if x != 0 {
		lo.touch(x)
	}
	return x
}

// use returns an XMM holding register r, loading it on a miss: for an
// operand an instruction wants in a register.
func (lo *lowerer) use(r int32) Xmm {
	x := lo.in[r]
	if x == 0 {
		x = lo.evict()
		lo.a.MovsdXmmMem(x, RBX, slot(r))
		lo.bind(x, r)
	}
	lo.touch(x)
	return x
}

// target returns the XMM a def of r is computed into: the one that holds r
// already (its pin, say), else the least recently used one.
func (lo *lowerer) target(r int32) Xmm {
	if x := lo.in[r]; x != 0 {
		return x
	}
	return lo.evict()
}

// def stores x, which holds the new value of register r, and caches it.
func (lo *lowerer) def(r int32, x Xmm) {
	lo.a.MovsdMemXmm(RBX, slot(r), x)
	lo.bind(x, r)
	lo.touch(x)
}

// defMem accounts for a def of r that generated code stored without an
// XMM: a pin reloads, any other copy is dropped.
func (lo *lowerer) defMem(r int32) {
	switch x := lo.in[r]; {
	case x == 0:
	case lo.pinned[x]:
		lo.a.MovsdXmmMem(x, RBX, slot(r))
	default:
		lo.unbind(x)
	}
}

// entry records that Go enters op pc: when the cache holds anything there,
// Go enters through a stub that loads it from memory, which Go left
// complete.
func (lo *lowerer) entry(pc int32) {
	if lo.holds != [xLast + 1]int32{} {
		lo.entries = append(lo.entries, entry{pc, lo.holds})
	}
}

// forget empties the cache but for the pins.
func (lo *lowerer) forget() {
	for x := xFirst; x <= xLast; x++ {
		if !lo.pinned[x] {
			lo.unbind(x)
		}
	}
}

// evict frees the least recently used XMM that is not a pin.
func (lo *lowerer) evict() Xmm {
	var v Xmm
	for x := xFirst; x <= xLast; x++ {
		if lo.pinned[x] {
			continue
		}
		if lo.holds[x] == 0 {
			return x
		}
		if v == 0 || lo.used[x] < lo.used[v] {
			v = x
		}
	}
	lo.unbind(v)
	return v
}

func (lo *lowerer) bind(x Xmm, r int32) {
	if old := lo.in[r]; old != x {
		lo.unbind(old)
	}
	lo.unbind(x)
	lo.holds[x], lo.in[r] = r+1, x
}

func (lo *lowerer) unbind(x Xmm) {
	if h := lo.holds[x]; h != 0 {
		lo.in[h-1], lo.holds[x] = 0, 0
	}
}

func (lo *lowerer) touch(x Xmm) {
	lo.tick++
	lo.used[x] = lo.tick
}

// computeCost is the fused tier's backward cost pass over raw ops: the
// step charge from op i to the next control transfer, so a single check
// at block entry covers the whole straight-line run.
func computeCost(ops []lir.Op) []int32 {
	n := len(ops)
	cost := make([]int32, n+1)
	for i := n - 1; i >= 0; i-- {
		var own int32 = 1
		if ops[i].Kind == lir.KOSRPoint {
			own = 0
		}
		switch ops[i].Kind {
		case lir.KJump, lir.KRetNum, lir.KRetObj, lir.KRetUndef:
			cost[i] = own
		default:
			cost[i] = own + cost[i+1]
		}
	}
	return cost
}

// flush materializes the statically-accumulated step count (plus extra)
// into R15. Every exit path and every label runs with pend == 0.
func (lo *lowerer) flush(extra int32) {
	if v := lo.pend + extra; v > 0 {
		lo.a.AddRegImm(R15, v)
	}
	lo.pend = 0
}

// exit emits an inline exit: record the pc operand and return the kind to
// the trampoline.
func (lo *lowerer) exit(pc int32, kind int32) {
	lo.a.MovRegImm32(RCX, pc)
	lo.a.MovMemReg(RDI, fExitPC, RCX)
	lo.a.MovRegImm32(RAX, kind)
	lo.a.Ret()
}

// toStub emits a forward jcc whose target is the (pc, kind) exit stub,
// emitted out of line after the body so hot paths stay dense.
func (lo *lowerer) toStub(cc Cond, pc int32, kind uint8) {
	at := lo.a.JccFwd(cc)
	k := stubKey{pc, kind}
	lo.stubs[k] = append(lo.stubs[k], at)
}

func (lo *lowerer) emitStubs() {
	// Deterministic order: by pc then kind.
	keys := make([]stubKey, 0, len(lo.stubs))
	for k := range lo.stubs {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b stubKey) int {
		if c := cmp.Compare(a.pc, b.pc); c != 0 {
			return c
		}
		return cmp.Compare(a.kind, b.kind)
	})
	for _, k := range keys {
		at := lo.a.Len()
		for _, s := range lo.stubs[k] {
			lo.a.Patch32(s, at)
		}
		switch k.kind {
		case exitUnwind:
			// RDI is still the callee's record, R15 and R11 its
			// counters and RAX its exit kind: park them in the record
			// for Go, step back to the caller's record and counters,
			// and pass the unwind on.
			lo.a.MovMemReg(RDI, fSteps, R15)
			lo.a.MovMemReg(RDI, fChecks, R11)
			lo.a.MovMemReg(RDI, fKind, RAX)
			lo.a.SubRegImm(RDI, frameSize)
			lo.a.MovRegMem(R15, RDI, fSteps)
			lo.a.MovRegMem(R11, RDI, fChecks)
			lo.a.AddMemImm(RSI, eUnwinds, 1)
		case exitCallRet:
			// The callee's result kind (RCX) and payload (RDX) move into
			// the caller's record, free until its own return.
			lo.a.MovMemReg(RDI, fResKind, RCX)
			lo.a.MovMemReg(RDI, fResVal, RDX)
		}
		lo.exit(k.pc, int32(k.kind))
	}
}

// slot returns the byte displacement of float register r off RBX.
func slot(r int32) int32 { return r * 8 }

// runtimeOp emits a runtime-exit for ops whose semantics execute in Go.
// The Go handler charges the op's step itself, so only the accumulated
// count is flushed.
func (lo *lowerer) runtimeOp(pc int32) {
	lo.flush(0)
	lo.rt[pc] = true
	lo.exit(pc, exitRuntime)
}

// mappedCheck emits the test that the address in RAX is mapped heap —
// (uint64)addr < top, the only cells R12 addresses — delegating to the
// reference loop otherwise: it performs the access when the address is in
// the code region (which the arena backs separately) and reproduces the
// exact CrashError when it is unmapped.
func (lo *lowerer) mappedCheck(pc int32) {
	lo.a.CmpRegMem(RAX, RSI, eTop)
	lo.toStub(CondAE, pc, exitDelegate)
}

// jumpTo emits the taken-jump sequence: bump the block-check counter
// (R11), and either delegate (budget within reach of the target's
// straight-line cost) or jump — past the pad or entry stub when the jump
// stays inside the target's loop.
func (lo *lowerer) jumpTo(from, target int32) {
	lo.a.AddRegImm(R11, 1)
	lo.a.MovRegReg(RAX, R15)
	lo.a.AddRegImm(RAX, lo.cost[target])
	lo.a.CmpRegMem(RAX, RDI, fMaxOps)
	lo.toStub(CondG, target, exitDelegate)
	at := lo.a.JmpFwd()
	l := lo.loopAt(from)
	inner := l >= 0 && l == lo.loopAt(target)
	lo.fix = append(lo.fix, jumpFixup{at, target, inner})
}

// cmpResult defines dst as the 0/1 comparison outcome held in AL.
func (lo *lowerer) cmpResult(dst int32) {
	lo.a.MovzxReg32Reg8(RAX, RAX)
	lo.cvtDef(dst, RAX, false)
}

// cvtDef defines dst as the integer in src (64-bit when wide).
func (lo *lowerer) cvtDef(dst int32, src Reg, wide bool) {
	d := lo.target(dst)
	lo.a.Cvtsi2sdXmmReg(d, src, wide)
	lo.def(dst, d)
}

// copyDef defines dst as a bit-exact copy of register src.
func (lo *lowerer) copyDef(dst, src int32) {
	xs := lo.cached(src)
	d := lo.target(dst)
	switch {
	case xs == 0:
		lo.a.MovsdXmmMem(d, RBX, slot(src))
	case d != xs:
		lo.a.MovapsXmmXmm(d, xs)
	}
	lo.def(dst, d)
}

// sdForms are the encodings of KAdd..KDiv with a register source and with
// a memory source.
var sdForms = [...]struct {
	reg func(*Asm, Xmm, Xmm)
	mem func(*Asm, Xmm, Reg, int32)
}{
	{(*Asm).AddsdXmmXmm, (*Asm).AddsdXmmMem},
	{(*Asm).SubsdXmmXmm, (*Asm).SubsdXmmMem},
	{(*Asm).MulsdXmmXmm, (*Asm).MulsdXmmMem},
	{(*Asm).DivsdXmmXmm, (*Asm).DivsdXmmMem},
}

// arith defines op.Dst = A op B, computed in place into Dst's XMM (its pin
// in a loop) — through X0 when B is what sits there.
func (lo *lowerer) arith(op *lir.Op) {
	a := &lo.a
	xa, xb := lo.cached(op.A), lo.cached(op.B)
	d := lo.target(op.Dst)
	t := d
	if d == xb && xa != xb {
		t = X0
	}
	switch {
	case xa == 0:
		a.MovsdXmmMem(t, RBX, slot(op.A))
	case t != xa:
		a.MovapsXmmXmm(t, xa)
	}
	if f := sdForms[op.Kind-lir.KAdd]; xb != 0 {
		f.reg(a, t, xb)
	} else {
		f.mem(a, t, RBX, slot(op.B))
	}
	if t != d {
		a.MovapsXmmXmm(d, t)
	}
	lo.def(op.Dst, d)
}

// cvtt truncates register r into dst — Go's int64(x), or int32(x) when
// !wide — from its XMM or from memory.
func (lo *lowerer) cvtt(dst Reg, r int32, wide bool) {
	if x := lo.cached(r); x != 0 {
		lo.a.Cvttsd2siRegXmm(dst, x, wide)
	} else {
		lo.a.Cvttsd2siRegMem(dst, RBX, slot(r), wide)
	}
}

// ucomisd compares x with register r, from its XMM or from memory.
func (lo *lowerer) ucomisd(x Xmm, r int32) {
	if y := lo.cached(r); y != 0 {
		lo.a.UcomisdXmmXmm(x, y)
	} else {
		lo.a.UcomisdXmmMem(x, RBX, slot(r))
	}
}

func (lo *lowerer) emitOp(pc int32, op *lir.Op) {
	a := &lo.a
	switch op.Kind {
	case lir.KNop:
		lo.pend++
	case lir.KOSRPoint:
		// Charges no step (the reference loop undoes its increment).
	case lir.KConst:
		a.MovRegImm64(RAX, math.Float64bits(op.Imm))
		d := lo.target(op.Dst)
		a.MovqXmmReg(d, RAX)
		lo.def(op.Dst, d)
		lo.pend++
	case lir.KMove, lir.KMoveTag:
		lo.copyDef(op.Dst, op.A)
		if op.Kind == lir.KMoveTag {
			a.MovzxRegMem8(RCX, R13, op.A)
			a.MovMem8Reg(R13, op.Dst, RCX)
		}
		lo.pend++
	case lir.KAdd, lir.KSub, lir.KMul, lir.KDiv:
		lo.arith(op)
		lo.pend++
	case lir.KNeg:
		// IEEE negation is a sign-bit flip — Go's -x for every input
		// including NaN and ±0.
		if x := lo.cached(op.A); x != 0 {
			a.MovqRegXmm(RAX, x)
		} else {
			a.MovRegMem(RAX, RBX, slot(op.A))
		}
		a.BtcRegImm(RAX, 63)
		d := lo.target(op.Dst)
		a.MovqXmmReg(d, RAX)
		lo.def(op.Dst, d)
		lo.pend++
	case lir.KNot:
		// !truthy(a) ⟺ a == 0 or NaN ⟺ ZF after ucomisd 0.0, a.
		a.XorpsXmmXmm(X0, X0)
		lo.ucomisd(X0, op.A)
		a.SetccReg8(CondE, RAX)
		lo.cmpResult(op.Dst)
		lo.pend++
	case lir.KCmp:
		lo.emitCmp(op)
		lo.pend++
	case lir.KBitAnd, lir.KBitOr, lir.KBitXor:
		// ToInt32 ≡ the low 32 bits of cvttsd2si-64 for every input (the
		// 0x8000000000000000 overflow sentinel's low half is 0, matching
		// value.ToInt32's 0 for NaN, ±Inf and magnitudes of 2^63 or more).
		lo.cvtt(RAX, op.A, true)
		lo.cvtt(RCX, op.B, true)
		switch op.Kind {
		case lir.KBitAnd:
			a.AndRegReg32(RAX, RCX)
		case lir.KBitOr:
			a.OrRegReg32(RAX, RCX)
		default:
			a.XorRegReg32(RAX, RCX)
		}
		lo.cvtDef(op.Dst, RAX, false)
		lo.pend++
	case lir.KShl, lir.KShr, lir.KUshr:
		lo.cvtt(RAX, op.A, true)
		lo.cvtt(RCX, op.B, true)
		a.AndRegImm32(RCX, 31)
		switch op.Kind {
		case lir.KShl:
			a.ShlRegCl32(RAX)
			lo.cvtDef(op.Dst, RAX, false)
		case lir.KShr:
			a.SarRegCl32(RAX)
			lo.cvtDef(op.Dst, RAX, false)
		default: // KUshr: uint32 result, zero-extended by the 32-bit shift
			a.ShrRegCl32(RAX)
			lo.cvtDef(op.Dst, RAX, true)
		}
		lo.pend++
	case lir.KMod:
		lo.emitMod(pc, op)
		lo.pend++
	case lir.KJump:
		lo.flush(1) // the jump op's own step, charged before the check
		lo.jumpTo(pc, op.Target)
	case lir.KBranchFalse:
		lo.flush(1) // charged whether or not taken
		a.XorpsXmmXmm(X0, X0)
		lo.ucomisd(X0, op.A)
		skip := a.JccFwd(CondNE) // truthy: fall through, no check
		lo.jumpTo(pc, op.Target)
		a.Patch32(skip, a.Len())
	case lir.KUnbox, lir.KGuardType:
		lo.flush(0)
		a.MovzxRegMem8(RAX, R13, op.A)
		if op.Aux == 1 {
			a.CmpRegImm(RAX, 3) // TagObject
			lo.toStub(CondNE, pc, exitDelegate)
		} else {
			a.SubRegImm(RAX, 1) // tag-1 ∈ {0,1} ⟺ Number or Boolean
			a.CmpRegImm(RAX, 1)
			lo.toStub(CondA, pc, exitDelegate)
		}
		lo.copyDef(op.Dst, op.A)
		a.MovzxRegMem8(RCX, R13, op.A)
		a.MovMem8Reg(R13, op.Dst, RCX)
		lo.pend++
	case lir.KElemsHandle, lir.KAddrOf:
		lo.flush(0)
		// int32(regs[a]) via the 32-bit cvttsd2si (Go's exact conversion),
		// zero-extended so one unsigned compare covers h<0 and h>=len.
		lo.cvtt(RCX, op.A, false)
		a.CmpRegMem(RCX, RSI, eHandleLen)
		lo.toStub(CondAE, pc, exitDelegate)
		a.MovRegMem(RDX, RSI, eHandles)
		a.MovRegMemIdx(RAX, RDX, RCX, 8, 0)
		a.AddRegImm(RAX, heap.HeaderCells)
		lo.cvtDef(op.Dst, RAX, true)
		lo.pend++
	case lir.KInitLen:
		lo.flush(0)
		lo.cvtt(RAX, op.A, true)
		a.SubRegImm(RAX, heap.HeaderCells)
		lo.mappedCheck(pc)
		lo.loadCell(op.Dst)
		lo.pend++
	case lir.KBoundsCheck:
		lo.flush(0)
		xa := lo.use(op.A)
		a.Cvttsd2siRegXmm(RAX, xa, true)
		a.Cvtsi2sdXmmReg(X1, RAX, true)
		a.UcomisdXmmXmm(X1, xa)
		lo.toStub(CondNE, pc, exitDelegate) // not integral
		lo.toStub(CondP, pc, exitDelegate)  // NaN
		a.TestRegReg(RAX, RAX)
		lo.toStub(CondS, pc, exitDelegate) // negative
		lo.ucomisd(xa, op.B)
		lo.toStub(CondP, pc, exitDelegate)  // NaN length
		lo.toStub(CondAE, pc, exitDelegate) // idx >= length
		lo.pend++
	case lir.KLoadElem:
		lo.flush(0)
		lo.elemAddr(op)
		lo.mappedCheck(pc)
		lo.loadCell(op.Dst)
		lo.pend++
	case lir.KStoreElem:
		lo.flush(0)
		lo.elemAddr(op)
		lo.mappedCheck(pc)
		a.MovsdMemIdxXmm(R12, RAX, 8, 0, lo.use(op.C))
		lo.pend++
	case lir.KCodeBase:
		d := lo.target(op.Dst)
		a.Cvtsi2sdXmmMem(d, RSI, eCodeBase)
		lo.def(op.Dst, d)
		lo.pend++
	case lir.KRetNum, lir.KRetObj, lir.KRetUndef:
		// The result goes into the record, where a direct caller's inline
		// return sequence and the run loop both read it.
		lo.flush(1)
		kind := native.ResUndef
		switch op.Kind {
		case lir.KRetNum:
			kind = native.ResNum
		case lir.KRetObj:
			kind = native.ResObject
		}
		if kind == native.ResUndef {
			a.XorRegReg32(RCX, RCX)
		} else {
			a.MovRegMem(RCX, RBX, slot(op.A))
		}
		a.MovMemReg(RDI, fResVal, RCX)
		a.MovRegImm32(RAX, int32(kind))
		a.MovMemReg(RDI, fResKind, RAX)
		a.MovRegImm32(RAX, exitRet)
		a.Ret()
	case lir.KLoadGlobal:
		lo.emitLoadGlobal(pc, op)
		lo.pend++
	case lir.KStoreGlobalNum:
		lo.emitStoreGlobalNum(pc, op)
		lo.pend++
	case lir.KElemsRaw:
		lo.emitElemsRaw(pc, op)
		lo.pend++
	case lir.KCall, lir.KCallSpec:
		lo.emitCall(pc, op)
	case lir.KMath, lir.KPow, lir.KSetLen, lir.KPush,
		lir.KPop, lir.KNewArr, lir.KStoreGlobalObj:
		lo.runtimeOp(pc)
	default:
		// Unreachable: Lower pre-screens kinds. Emit a delegate so even a
		// future gap stays semantics-preserving.
		lo.flush(0)
		lo.exit(pc, exitDelegate)
	}
}

// elemAddr computes int(regs[A]) + int(regs[B]) + Aux into RAX with Go's
// exact float→int conversions.
func (lo *lowerer) elemAddr(op *lir.Op) {
	lo.cvtt(RAX, op.A, true)
	lo.cvtt(RCX, op.B, true)
	lo.a.AddRegReg(RAX, RCX)
	if op.Aux != 0 {
		lo.a.AddRegImm(RAX, op.Aux)
	}
}

// loadCell defines dst as the arena cell RAX indexes.
func (lo *lowerer) loadCell(dst int32) {
	d := lo.target(dst)
	lo.a.MovsdXmmMemIdx(d, R12, RAX, 8, 0)
	lo.def(dst, d)
}

// emitCmp lowers KCmp with NaN-false semantics. ucomisd x, y sets
// CF,ZF,PF = (x<y):100, (x>y):000, (x==y):010, unordered:111 — so A/AE
// after an operand-ordered compare give <,<=,>,>= with NaN false, and
// equality masks the parity flag explicitly.
func (lo *lowerer) emitCmp(op *lir.Op) {
	a := &lo.a
	switch int(op.Aux) {
	case 1: // a < b ⟺ b > a
		lo.ucomisd(lo.use(op.B), op.A)
		a.SetccReg8(CondA, RAX)
	case 2: // a <= b ⟺ b >= a
		lo.ucomisd(lo.use(op.B), op.A)
		a.SetccReg8(CondAE, RAX)
	case 3: // a > b
		lo.ucomisd(lo.use(op.A), op.B)
		a.SetccReg8(CondA, RAX)
	case 4: // a >= b
		lo.ucomisd(lo.use(op.A), op.B)
		a.SetccReg8(CondAE, RAX)
	case 5: // a == b: ZF and not parity (NaN==NaN is false)
		lo.ucomisd(lo.use(op.A), op.B)
		a.SetccReg8(CondE, RAX)
		a.SetccReg8(CondNP, RCX)
		a.AndRegReg8(RAX, RCX)
	default: // a != b: not ZF or parity (NaN!=NaN is true)
		lo.ucomisd(lo.use(op.A), op.B)
		a.SetccReg8(CondNE, RAX)
		a.SetccReg8(CondP, RCX)
		a.OrRegReg8(RAX, RCX)
	}
	lo.cmpResult(op.Dst)
}

// slowPath returns the jcc-emitter hybrid ops use for their guard exits:
// every failure route lands on this op's runtime-exit stub, so the slow
// path is native.RuntimeOp, called by the run loop.
func (lo *lowerer) slowPath(pc int32) func(Cond) {
	return func(cc Cond) { lo.toStub(cc, pc, exitRuntime) }
}

// Value-slot layout for the inline global window, resolved from the owning
// package so the baked displacements can never drift from the struct. The
// str field has no offset here on purpose: generated code must never touch
// the pointer-carrying field.
var valSize, valTyp, valNum, valRef = func() (int32, int32, int32, int32) {
	s, t, n, r := value.Layout()
	return int32(s), int32(t), int32(n), int32(r)
}()

// emitLoadGlobal inlines KLoadGlobal against the hooks-exposed global
// window: dispatch on the slot's type byte with exactly the reference
// unboxing (Number/Boolean keep their payload, Array boxes the handle,
// everything else is NaN/TagOther). Hooks with no window — and slots
// beyond it — take the runtime exit through GlobalGet, which is the same
// mapping in Go.
func (lo *lowerer) emitLoadGlobal(pc int32, op *lir.Op) {
	a := &lo.a
	lo.flush(0)
	lo.hybrid[pc] = true
	toSlow := lo.slowPath(pc)

	a.MovRegImm32(RAX, op.Aux)
	a.CmpRegMem(RAX, RSI, eGlobalsLen)
	toSlow(CondAE) // slot outside the window (or no window at all)
	disp := op.Aux * valSize
	a.MovRegMem(RDX, RSI, eGlobals)
	a.MovzxRegMem8(RAX, RDX, disp+valTyp)
	// Each arm stores the payload and leaves the native tag in RAX for the
	// shared tag store at the join.
	a.CmpRegImm(RAX, int32(value.Number))
	notNum := a.JccFwd(CondNE)
	a.MovRegMem(RCX, RDX, disp+valNum)
	a.MovMemReg(RBX, slot(op.Dst), RCX)
	a.MovRegImm32(RAX, int32(native.TagNumber))
	join1 := a.JmpFwd()
	a.Patch32(notNum, a.Len())
	a.CmpRegImm(RAX, int32(value.Boolean))
	notBool := a.JccFwd(CondNE)
	a.MovRegMem(RCX, RDX, disp+valNum)
	a.MovMemReg(RBX, slot(op.Dst), RCX)
	a.MovRegImm32(RAX, int32(native.TagBoolean))
	join2 := a.JmpFwd()
	a.Patch32(notBool, a.Len())
	a.CmpRegImm(RAX, int32(value.Array))
	notArr := a.JccFwd(CondNE)
	a.MovsxdRegMem(RCX, RDX, disp+valRef)
	a.Cvtsi2sdXmmReg(X0, RCX, true)
	a.MovsdMemXmm(RBX, slot(op.Dst), X0)
	a.MovRegImm32(RAX, int32(native.TagObject))
	join3 := a.JmpFwd()
	a.Patch32(notArr, a.Len())
	a.MovRegImm64(RCX, math.Float64bits(math.NaN()))
	a.MovMemReg(RBX, slot(op.Dst), RCX)
	a.MovRegImm32(RAX, int32(native.TagOther))
	a.Patch32(join1, a.Len())
	a.Patch32(join2, a.Len())
	a.Patch32(join3, a.Len())
	a.MovMem8Reg(R13, op.Dst, RAX)
	lo.defMem(op.Dst)
}

// emitStoreGlobalNum inlines KStoreGlobalNum: write the slot's type byte
// (Number), the number payload, and a zero handle, leaving the string
// field untouched. Every reader of a Value dispatches on the type byte
// first, so a stale string payload is unobservable — and skipping it keeps
// generated code away from the pointer-carrying field (no write barriers
// outside Go). Hooks with no window take the runtime exit via GlobalSet.
func (lo *lowerer) emitStoreGlobalNum(pc int32, op *lir.Op) {
	a := &lo.a
	lo.flush(0)
	lo.hybrid[pc] = true
	toSlow := lo.slowPath(pc)

	a.MovRegImm32(RAX, op.Aux)
	a.CmpRegMem(RAX, RSI, eGlobalsLen)
	toSlow(CondAE)
	disp := op.Aux * valSize
	a.MovRegMem(RDX, RSI, eGlobals)
	a.MovRegImm32(RAX, int32(value.Number))
	a.MovMem8Reg(RDX, disp+valTyp, RAX)
	a.MovRegMem(RCX, RBX, slot(op.A))
	a.MovMemReg(RDX, disp+valNum, RCX)
	a.XorRegReg32(RAX, RAX)
	a.MovMem32Reg(RDX, disp+valRef, RAX)
}

// emitElemsRaw inlines KElemsRaw's success path: operand integral (the
// 64-bit truncate round-trips) and the int32-wrapped handle valid — the
// exact condition under which the reference op returns the elements
// pointer. Anything else (invalid handle, fractional operand, float out of
// int64 range) runtime-exits to the reference code, which reproduces the
// crash / truncate fallbacks bit-for-bit.
func (lo *lowerer) emitElemsRaw(pc int32, op *lir.Op) {
	a := &lo.a
	lo.flush(0)
	lo.hybrid[pc] = true
	toSlow := lo.slowPath(pc)

	lo.cvtt(RAX, op.A, true)
	a.Cvtsi2sdXmmReg(X1, RAX, true)
	lo.ucomisd(X1, op.A)
	toSlow(CondNE)           // not integral (or beyond int64)
	toSlow(CondP)            // NaN
	a.MovsxdRegReg(RCX, RAX) // Go's int32(hnd) wrap, sign-extended
	a.CmpRegMem(RCX, RSI, eHandleLen)
	toSlow(CondAE) // invalid handle (negative is huge unsigned)
	a.MovRegMem(RDX, RSI, eHandles)
	a.MovRegMemIdx(RAX, RDX, RCX, 8, 0)
	a.AddRegImm(RAX, heap.HeaderCells)
	lo.cvtDef(op.Dst, RAX, true)
}

// emitCall inlines KCall / KCallSpec for a callee that has machine code of
// its own: a direct native→native call that never leaves generated code.
// The callee is resolved through the environment's call table (the code
// stays position-independent and knows nothing about its callee but the
// index), and the sequence makes, before its first side effect, every check
// the Go path — RuntimeOp → CallFunction → dispatch → Env.Call — makes; a
// failed check is the op's runtime exit, so Go does the whole call exactly
// as it would have:
//
//   - the index is inside the table (hooks without an environment: length 0);
//   - the slot has an entry: the engine publishes one only while the
//     function has a unit, no compilation of it is in flight (dispatch
//     installs a finished one at the call boundary) and no fault injector
//     wants to see the dispatch;
//   - arity: the site passes exactly the callee's parameters (BoxParams
//     fills missing ones and drops surplus ones in Go);
//   - call depth below interp.MaxCallDepth (EnterCall raises the error);
//   - the callee's arena code pointer is intact (dispatch raises
//     HijackError — the control-flow-hijack oracle);
//   - the remaining step budget covers the callee's entry block (dispatch
//     reports exhaustion, the entry delegates a block that cannot finish);
//   - the callee's window fits the pool's current chunk behind the
//     caller's, and the frame stack has a free record (Go opens the next
//     chunk, and its next entry into generated code starts a new machine
//     stack budget).
//
// The commit charges what dispatch charges (depth, the function's call
// counter), carves the window, fills the callee's record, parks the
// caller's step and check counters in its own, copies the arguments with
// the tags boxing would have produced, and calls. On exitRet the return
// sequence does the rest of dispatch (steps into the VM's counters, the
// callee's checks added to the caller's, depth and window back) and stores
// a result FinishCall would store unchanged: a Number for a number call, an
// array for an object call; the callee clobbered the XMMs, so the cache
// starts over and a loop's pins reload. Any other result is exitCallRet;
// any other exit of the callee is exitUnwind.
func (lo *lowerer) emitCall(pc int32, op *lir.Op) {
	a := &lo.a
	args := lo.code.ArgLists[op.A]
	lo.flush(0)
	lo.hybrid[pc] = true
	toSlow := lo.slowPath(pc)
	n := int32(lo.code.NumRegs) // the callee's window starts behind ours
	sl := op.Aux * slotSize

	a.CmpMemImm(RSI, eTableLen, op.Aux)
	toSlow(CondBE)
	a.MovRegMem(RDX, RSI, eTable)
	a.MovRegMem(R8, RDX, sl+cEntry)
	a.TestRegReg(R8, R8)
	toSlow(CondE)
	a.CmpMemImm(RDX, sl+cNumParams, int32(len(args)))
	toSlow(CondNE)
	a.MovRegMem(R9, RSI, eDepth)
	a.CmpMemImm(R9, 0, interp.MaxCallDepth)
	toSlow(CondGE)
	if op.Aux < heap.CodeRegionCells {
		a.MovRegMem(RAX, RSI, eCode)
		a.MovRegMem(RAX, RAX, op.Aux*8)
		a.MovRegImm64(RCX, math.Float64bits(heap.CodeSentinel(int(op.Aux))))
		a.CmpRegReg(RAX, RCX)
		toSlow(CondNE)
	}
	a.MovRegMem(R10, RSI, eMaxSteps) // R10 = MaxSteps − steps: the callee's budget
	a.MovRegMem(R10, R10, 0)
	a.MovRegMem(RAX, RSI, eSteps)
	a.SubRegMem(R10, RAX, 0)
	a.CmpRegMem(R10, RDX, sl+cCost0)
	toSlow(CondL)
	a.MovRegMem(RAX, RSI, ePoolTop) // RCX = window offset, RAX = new top
	a.MovRegMem(RCX, RAX, 0)
	a.MovRegMem(RAX, RDX, sl+cNumRegs)
	a.AddRegReg(RAX, RCX)
	a.CmpRegMem(RAX, RSI, eChunkLen)
	toSlow(CondA)
	a.CmpMemImm(RSI, eNFrames, frameDepth)
	toSlow(CondAE)

	// Commit.
	a.AddMemImm(R9, 0, 1)
	a.MovRegMem(R9, RSI, ePoolTop)
	a.MovMemReg(R9, 0, RAX)
	a.MovRegMem(RAX, RDX, sl+cCalls)
	a.AddMemImm(RAX, 0, 1)
	a.AddMemImm(RSI, eNFrames, 1)
	a.AddMemImm(RSI, eDirect, 1)
	a.MovMemReg(RDI, fSteps, R15)
	a.MovMemReg(RDI, fChecks, R11)
	a.MovMemReg(RDI, frameSize+fMaxOps, R10)
	a.MovMemReg(RDI, frameSize+fRegsOff, RCX)
	tag := native.TagOther // no argument has it: the first one loads RCX
	for i, ar := range args {
		dst, want := n+int32(i), native.TagNumber
		if op.C&(1<<i) != 0 {
			want = native.TagObject
			lo.copyHandle(dst, ar)
		} else {
			a.MovRegMem(RAX, RBX, slot(ar))
			a.MovMemReg(RBX, slot(dst), RAX)
		}
		if tag != want {
			tag = want
			a.MovRegImm32(RCX, int32(tag))
		}
		a.MovMem8Reg(R13, dst, RCX)
	}
	a.AddRegImm(RBX, slot(n))
	a.AddRegImm(R13, n)
	a.AddRegImm(RDI, frameSize)
	a.XorRegReg32(R15, R15)
	a.MovRegImm32(R11, 1) // the entry check just made
	a.CallReg(R8)

	// Return: RDI, RBX, R13, R15 and R11 are the callee's, and it clobbered
	// every XMM.
	a.CmpRegImm(RAX, exitRet)
	lo.toStub(CondNE, pc, exitUnwind)
	a.MovRegMem(RAX, RSI, eSteps)
	a.AddMemReg(RAX, 0, R15)
	a.MovRegMem(RAX, RSI, eNatSteps)
	a.AddMemReg(RAX, 0, R15)
	a.MovRegMem(RCX, RDI, fResKind)
	a.MovRegMem(RDX, RDI, fResVal)
	a.MovRegMem(R8, RDI, fRegsOff)
	a.SubRegImm(RDI, frameSize)
	a.SubRegImm(RBX, slot(n))
	a.SubRegImm(R13, n)
	a.AddRegMem(R11, RDI, fChecks)
	a.MovRegMem(R15, RDI, fSteps)
	a.MovRegMem(RAX, RSI, eDepth)
	a.AddMemImm(RAX, 0, -1)
	a.MovRegMem(RAX, RSI, ePoolTop)
	a.MovMemReg(RAX, 0, R8)
	a.AddMemImm(RSI, eNFrames, -1)
	want, tag := native.ResNum, native.TagNumber
	if op.Kind == lir.KCall && op.B == 1 {
		want, tag = native.ResObject, native.TagObject
	}
	a.CmpRegImm(RCX, int32(want))
	lo.toStub(CondNE, pc, exitCallRet)
	a.MovMemReg(RBX, slot(op.Dst), RDX)
	if want == native.ResObject {
		lo.copyHandle(op.Dst, op.Dst)
	}
	a.MovRegImm32(RAX, int32(tag))
	a.MovMem8Reg(R13, op.Dst, RAX)
	lo.forget()
	if lo.cur != nil {
		lo.loadPins(lo.cur)
	}
	lo.pend++
}

// copyHandle stores float64(int32(regs[src])) in regs[dst]: what an array
// handle becomes on its way through a boxed value (value.ArrayRef takes the
// int32, the unboxing side converts it back), with Go's exact conversions.
func (lo *lowerer) copyHandle(dst, src int32) {
	lo.a.Cvttsd2siRegMem(RAX, RBX, slot(src), false)
	lo.a.Cvtsi2sdXmmReg(X0, RAX, false)
	lo.a.MovsdMemXmm(RBX, slot(dst), X0)
}

// emitMod inlines value.Mod's int fast path under exactly its condition —
// both operands integral (the same int64 round trip, by cvttsd2si and
// cvtsi2sd), divisor nonzero, both magnitudes under 2^53 — and
// runtime-exits to the full value.Mod otherwise. A zero remainder of a
// dividend that is not positive (negative, or -0, which truncates to 0)
// takes the slow path too: its sign is the dividend's, which the integer
// remainder has lost. Both routes produce value.Mod's bits.
func (lo *lowerer) emitMod(pc int32, op *lir.Op) {
	a := &lo.a
	lo.flush(0)
	lo.hybrid[pc] = true // only the slow path exits; the fast path's step is in pend
	toSlow := lo.slowPath(pc)

	lo.cvtt(RAX, op.A, true)
	a.Cvtsi2sdXmmReg(X1, RAX, true)
	lo.ucomisd(X1, op.A)
	toSlow(CondNE)
	toSlow(CondP)
	lo.cvtt(RCX, op.B, true)
	a.Cvtsi2sdXmmReg(X1, RCX, true)
	lo.ucomisd(X1, op.B)
	toSlow(CondNE)
	toSlow(CondP)
	a.TestRegReg(RCX, RCX)
	toSlow(CondE) // y == 0 (incl. -0.0, which truncates to 0)
	a.MovRegImm64(RDX, maxExactInt)
	a.CmpRegReg(RAX, RDX)
	toSlow(CondGE)
	a.CmpRegReg(RCX, RDX)
	toSlow(CondGE)
	a.NegReg(RDX)
	a.CmpRegReg(RAX, RDX)
	toSlow(CondLE)
	a.CmpRegReg(RCX, RDX)
	toSlow(CondLE)
	a.MovRegReg(R8, RCX)
	a.MovRegReg(R9, RAX)
	a.Cqo()
	a.IdivReg(R8)
	a.TestRegReg(RDX, RDX)
	nonzero := a.JccFwd(CondNE)
	a.TestRegReg(R9, R9)
	toSlow(CondLE)
	a.Patch32(nonzero, a.Len())
	lo.cvtDef(op.Dst, RDX, true)
}
