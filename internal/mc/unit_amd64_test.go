//go:build amd64 && (linux || darwin)

package mc

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
	"unsafe"

	"github.com/jitbull/jitbull/internal/lir"
	"github.com/jitbull/jitbull/internal/native"
	"github.com/jitbull/jitbull/internal/obs"
	"github.com/jitbull/jitbull/internal/value"
)

// TestFrameOffsets pins the three layouts generated code addresses — the
// activation record (RDI), the environment (RSI) and the call-table slot —
// against the displacement constants baked into the lowering and the
// assembly trampoline. A drift here means generated code reads the wrong
// field.
func TestFrameOffsets(t *testing.T) {
	var (
		f mcact
		e mcenv
		c callSlot
	)
	checks := []struct {
		name string
		got  uintptr
		want int32
	}{
		{"mcact.exitpc", unsafe.Offsetof(f.exitpc), fExitPC},
		{"mcact.steps", unsafe.Offsetof(f.steps), fSteps},
		{"mcact.checks", unsafe.Offsetof(f.checks), fChecks},
		{"mcact.maxOps", unsafe.Offsetof(f.maxOps), fMaxOps},
		{"mcact.kind", unsafe.Offsetof(f.kind), fKind},
		{"mcact.resKind", unsafe.Offsetof(f.resKind), fResKind},
		{"mcact.resVal", unsafe.Offsetof(f.resVal), fResVal},
		{"mcact.regsOff", unsafe.Offsetof(f.regsOff), fRegsOff},
		{"sizeof mcact", unsafe.Sizeof(f), frameSize},

		{"mcenv.top", unsafe.Offsetof(e.top), eTop},
		{"mcenv.codeBase", unsafe.Offsetof(e.codeBase), eCodeBase},
		{"mcenv.code", unsafe.Offsetof(e.code), eCode},
		{"mcenv.handleLen", unsafe.Offsetof(e.handleLen), eHandleLen},
		{"mcenv.cells", unsafe.Offsetof(e.cells), eCells},
		{"mcenv.handles", unsafe.Offsetof(e.handles), eHandles},
		{"mcenv.globalsLen", unsafe.Offsetof(e.globalsLen), eGlobalsLen},
		{"mcenv.globals", unsafe.Offsetof(e.globals), eGlobals},
		{"mcenv.tableLen", unsafe.Offsetof(e.tableLen), eTableLen},
		{"mcenv.table", unsafe.Offsetof(e.table), eTable},
		{"mcenv.nframes", unsafe.Offsetof(e.nframes), eNFrames},
		{"mcenv.steps", unsafe.Offsetof(e.steps), eSteps},
		{"mcenv.natSteps", unsafe.Offsetof(e.natSteps), eNatSteps},
		{"mcenv.maxSteps", unsafe.Offsetof(e.maxSteps), eMaxSteps},
		{"mcenv.depth", unsafe.Offsetof(e.depth), eDepth},
		{"mcenv.poolTop", unsafe.Offsetof(e.poolTop), ePoolTop},
		{"mcenv.chunkLen", unsafe.Offsetof(e.chunkLen), eChunkLen},
		{"mcenv.direct", unsafe.Offsetof(e.direct), eDirect},
		{"mcenv.unwinds", unsafe.Offsetof(e.unwinds), eUnwinds},

		{"callSlot.entry", unsafe.Offsetof(c.entry), cEntry},
		{"callSlot.numRegs", unsafe.Offsetof(c.numRegs), cNumRegs},
		{"callSlot.numParams", unsafe.Offsetof(c.numParams), cNumParams},
		{"callSlot.cost0", unsafe.Offsetof(c.cost0), cCost0},
		{"callSlot.calls", unsafe.Offsetof(c.calls), cCalls},
		{"sizeof callSlot", unsafe.Sizeof(c), slotSize},

		// The frame stack is contiguous behind the environment block: a
		// direct callee's record is its caller's plus frameSize.
		{"Env.mcenv", unsafe.Offsetof(Env{}.mcenv), 0},
		{"sizeof Env.frames", unsafe.Sizeof(Env{}.frames), frameDepth * frameSize},
	}
	for _, c := range checks {
		if int32(c.got) != c.want {
			t.Errorf("%s is %d, lowering uses %d", c.name, c.got, c.want)
		}
	}
}

// TestEnterStack pins the literals of the trampoline against the constants
// they stand for: the frame enter reserves for nested return addresses, the
// two record/environment fields it reads by displacement, and the argument
// frame.
func TestEnterStack(t *testing.T) {
	src, err := os.ReadFile("enter_amd64.s")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		fmt.Sprintf("TEXT ·enter(SB), 0, $%d-44", enterStack),
		fmt.Sprintf("ADJSP $-%d", enterStack),
		fmt.Sprintf("ADJSP $%d", enterStack),
		fmt.Sprintf("MOVQ %d(SI), R12", eCells),
		fmt.Sprintf("MOVQ %d(DI), R15", fSteps),
		fmt.Sprintf("MOVQ R15, %d(DI)", fSteps),
	} {
		if !strings.Contains(string(src), want) {
			t.Errorf("enter_amd64.s does not contain %q", want)
		}
	}
}

// TestWXTransitions asserts the install lifecycle never passes through a
// writable+executable state: the recorded protection transitions are
// exactly mmap(RW-) followed by mprotect(R-X), and (on Linux) the kernel's
// own accounting agrees that the installed page is r-x.
func TestWXTransitions(t *testing.T) {
	code := &lir.Code{
		Name: "wx", NumParams: 0, NumRegs: 2,
		Ops: []lir.Op{
			{Kind: lir.KConst, Dst: 1, Imm: 7},
			{Kind: lir.KRetNum, A: 1},
		},
	}
	u, err := Compile(code)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	want := []string{"mmap:rw-", "mprotect:r-x"}
	got := u.Transitions()
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("protection transitions = %v, want %v (no RWX window, ever)", got, want)
	}
	if runtime.GOOS == "linux" {
		prot, ok := protAt(t, uint64(u.Base()))
		if !ok {
			t.Fatalf("installed unit at %#x not found in /proc/self/maps", u.Base())
		}
		if prot != "r-xp" {
			t.Fatalf("kernel reports %q for the installed unit, want r-xp", prot)
		}
	}
	// The unit must actually execute after the final transition.
	res, status, err := u.Exec(nil, newStub(), 0, nil)
	if err != nil || status != native.StatusOK || res.Val != 7 {
		t.Fatalf("exec after mprotect: res=%+v status=%v err=%v", res, status, err)
	}
	if err := u.Release(); err != nil {
		t.Fatalf("release: %v", err)
	}
}

// protAt scans /proc/self/maps for the mapping containing addr.
func protAt(t *testing.T, addr uint64) (string, bool) {
	t.Helper()
	data, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Fatalf("reading maps: %v", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		fields := strings.Fields(line)
		if len(fields) < 2 {
			continue
		}
		lo, hi, ok := strings.Cut(fields[0], "-")
		if !ok {
			continue
		}
		start, err1 := strconv.ParseUint(lo, 16, 64)
		end, err2 := strconv.ParseUint(hi, 16, 64)
		if err1 != nil || err2 != nil {
			continue
		}
		if addr >= start && addr < end {
			return fields[1], true
		}
	}
	return "", false
}

// retCode is a two-op function returning imm.
func retCode(imm float64) *lir.Code {
	return &lir.Code{
		Name: "ret", NumRegs: 2,
		Ops: []lir.Op{
			{Kind: lir.KConst, Dst: 1, Imm: imm},
			{Kind: lir.KRetNum, A: 1},
		},
	}
}

// TestUnitLifetime pins who unmaps a unit and when: the finalizer once the
// unit is unreachable, or Release — never both, never while the unit is
// reachable — with a tracked gauge following the mapped bytes exactly.
func TestUnitLifetime(t *testing.T) {
	var live obs.Gauge
	settle := func(want int64) {
		t.Helper()
		deadline := time.Now().Add(20 * time.Second)
		for live.Value() != want {
			if time.Now().After(deadline) {
				t.Fatalf("tracked bytes = %d after repeated GC, want %d", live.Value(), want)
			}
			runtime.GC()
			time.Sleep(time.Millisecond)
		}
	}

	kept, err := Compile(retCode(7))
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	kept.Track(&live)
	keptLen := int64(kept.MappedLen())

	// Dropped units are unmapped by the finalizer; the kept one is not.
	var bases []uintptr
	for i := 0; i < 32; i++ {
		u, err := Compile(retCode(float64(i)))
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		u.Track(&live)
		bases = append(bases, u.Base())
	}
	if live.Value() <= keptLen {
		t.Fatalf("tracked bytes = %d with 33 units mapped", live.Value())
	}
	settle(keptLen)
	if runtime.GOOS == "linux" {
		for _, base := range bases {
			// The runtime may reuse the address, but nothing maps executable
			// pages after the loop.
			if prot, ok := protAt(t, uint64(base)); ok && prot == "r-xp" {
				t.Fatalf("dropped unit at %#x is still mapped r-x", base)
			}
		}
	}
	if res, status, err := kept.Exec(nil, newStub(), 0, nil); err != nil || status != native.StatusOK || res.Val != 7 {
		t.Fatalf("kept unit after collection: res=%+v status=%v err=%v", res, status, err)
	}

	// Release unmaps now and cancels the finalizer: the bytes are
	// subtracted once, and a second Release has nothing left to do.
	if err := kept.Release(); err != nil {
		t.Fatalf("release: %v", err)
	}
	if live.Value() != 0 {
		t.Fatalf("tracked bytes = %d after Release, want 0", live.Value())
	}
	if err := kept.Release(); err != nil {
		t.Fatalf("second release: %v", err)
	}
	for i := 0; i < 3; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if live.Value() != 0 {
		t.Fatalf("tracked bytes = %d after Release and GC: unmapped twice", live.Value())
	}
}

// TestLowerRejectsUnknownKind pins the no-partial-lowering rule.
func TestLowerRejectsUnknownKind(t *testing.T) {
	code := &lir.Code{Name: "bad", NumRegs: 2, Ops: []lir.Op{{Kind: lir.KindCount}}}
	if _, err := Lower(code); err != ErrUnsupported {
		t.Fatalf("Lower(unknown kind) = %v, want ErrUnsupported", err)
	}
	if _, err := Lower(&lir.Code{Name: "empty"}); err != ErrUnsupported {
		t.Fatalf("Lower(empty) = %v, want ErrUnsupported", err)
	}
}

// osrLoopCode builds a loop with an eligible OSR entry whose frame map
// covers the sum and induction slots.
func osrLoopCode() *lir.Code {
	code := loopCode()
	code.OSREntries = []lir.OSREntry{{
		Ordinal: 0, PC: 4, Eligible: true,
		Slots: []lir.FrameSlot{
			{Slot: 0, Reg: 2, Kind: lir.SlotNum}, // n
			{Slot: 1, Reg: 3, Kind: lir.SlotNum}, // sum
			{Slot: 2, Reg: 4, Kind: lir.SlotNum}, // i
		},
		Consts: []lir.ConstSlot{{Reg: 5, Imm: 1}},
	}}
	return code
}

// TestExecOSRParity runs the same mid-loop entry on the machine-code tier
// and the reference tier, across interpreter states and budgets: results,
// steps and refusal decisions must match exactly.
func TestExecOSRParity(t *testing.T) {
	code := osrLoopCode()
	code.Fused = lir.Fuse(code)
	u, err := Compile(code)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	var pool native.Pool
	for _, locals := range [][]value.Value{
		{value.Num(10), value.Num(3), value.Num(2)},
		{value.Num(0), value.Num(0), value.Num(0)},
		{value.Num(5), value.Num(99), value.Num(5)},
	} {
		for maxOps := int64(0); maxOps <= 40; maxOps++ {
			mr, ms, merr, mok := u.ExecOSR(0, locals, newStub(), maxOps, &pool)
			rr, rs, rerr, rok := native.ExecOSR(code, 0, locals, newStub(), maxOps, &pool, false)
			if mok != rok {
				t.Fatalf("locals=%v maxOps=%d: entered %v vs %v", locals, maxOps, mok, rok)
			}
			mcr, rfr := observe(mr, ms, merr), observe(rr, rs, rerr)
			if !sameRun(mcr, rfr) {
				t.Errorf("locals=%v maxOps=%d: mc %+v != native %+v", locals, maxOps, mcr, rfr)
			}
		}
	}
}

// TestExecOSRStrictMaterialization: a local whose runtime type contradicts
// the frame map's static kind must refuse the transfer on both tiers —
// never coerce, never enter.
func TestExecOSRStrictMaterialization(t *testing.T) {
	code := osrLoopCode()
	code.Fused = lir.Fuse(code)
	u, err := Compile(code)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	var pool native.Pool
	bad := [][]value.Value{
		{value.Undef(), value.Num(0), value.Num(0)},
		{value.Num(1), value.Bool(true), value.Num(0)},
		{value.Num(1), value.Num(0)}, // frame map slot beyond the locals
	}
	for _, locals := range bad {
		_, _, _, mok := u.ExecOSR(0, locals, newStub(), 0, &pool)
		_, _, _, rok := native.ExecOSR(code, 0, locals, newStub(), 0, &pool, false)
		if mok || rok {
			t.Errorf("locals=%v: entered mc=%v native=%v, want both refused", locals, mok, rok)
		}
	}
}

// TestSpillPressureOSR drives an OSR entry through a frame wider than 14
// live values: the memory-resident register file has no cliff at the
// hardware register count, and the strict materialization contract holds
// slot for slot.
func TestSpillPressureOSR(t *testing.T) {
	const width = 20
	// while (i < n) { i = i + 1; acc_k = acc_k + k } with width accs, all
	// in the frame map.
	var ops []lir.Op
	header := int32(0)
	ops = append(ops, lir.Op{Kind: lir.KOSRPoint, Aux: 0})
	cmp := int32(3 + width)
	one := int32(4 + width)
	ops = append(ops,
		lir.Op{Kind: lir.KCmp, Dst: cmp, A: 1, B: 0, Aux: 1},
		lir.Op{Kind: lir.KBranchFalse, A: cmp, Target: int32(2*width + 6)},
		lir.Op{Kind: lir.KConst, Dst: one, Imm: 1},
		lir.Op{Kind: lir.KAdd, Dst: 1, A: 1, B: one},
	)
	for k := 0; k < width; k++ {
		ops = append(ops,
			lir.Op{Kind: lir.KConst, Dst: one, Imm: float64(k) + 0.5},
			lir.Op{Kind: lir.KAdd, Dst: int32(2 + k), A: int32(2 + k), B: one},
		)
	}
	ops = append(ops, lir.Op{Kind: lir.KJump, Target: header})
	// Exit: sum every acc.
	sum := int32(5 + width)
	ops = append(ops, lir.Op{Kind: lir.KConst, Dst: sum, Imm: 0})
	if int(ops[2].Target) != len(ops)-1 {
		panic(fmt.Sprintf("branch target %d != %d", ops[2].Target, len(ops)-1))
	}
	for k := 0; k < width; k++ {
		ops = append(ops, lir.Op{Kind: lir.KAdd, Dst: sum, A: sum, B: int32(2 + k)})
	}
	ops = append(ops, lir.Op{Kind: lir.KRetNum, A: sum})

	slots := []lir.FrameSlot{{Slot: 0, Reg: 0, Kind: lir.SlotNum}, {Slot: 1, Reg: 1, Kind: lir.SlotNum}}
	for k := 0; k < width; k++ {
		slots = append(slots, lir.FrameSlot{Slot: int32(2 + k), Reg: int32(2 + k), Kind: lir.SlotNum})
	}
	code := &lir.Code{
		Name: "spill-osr", NumParams: 2, NumRegs: int(sum) + 1, Ops: ops,
		OSREntries: []lir.OSREntry{{Ordinal: 0, PC: header, Eligible: true, Slots: slots}},
	}
	if code.NumRegs <= 14 {
		t.Fatalf("frame must exceed 14 live values, got %d", code.NumRegs)
	}
	code.Fused = lir.Fuse(code)
	u, err := Compile(code)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	locals := make([]value.Value, 2+width)
	locals[0] = value.Num(6) // n
	locals[1] = value.Num(2) // i
	for k := 0; k < width; k++ {
		locals[2+k] = value.Num(float64(k) * 1.25)
	}
	var pool native.Pool
	for maxOps := int64(0); maxOps <= 220; maxOps += 7 {
		mr, ms, merr, mok := u.ExecOSR(0, locals, newStub(), maxOps, &pool)
		rr, rs, rerr, rok := native.ExecOSR(code, 0, locals, newStub(), maxOps, &pool, false)
		if mok != rok {
			t.Fatalf("maxOps=%d: entered %v vs %v", maxOps, mok, rok)
		}
		if !mok {
			continue
		}
		mcr, rfr := observe(mr, ms, merr), observe(rr, rs, rerr)
		if !sameRun(mcr, rfr) {
			t.Errorf("maxOps=%d: mc %+v != native %+v", maxOps, mcr, rfr)
		}
		if maxOps == 0 && math.IsNaN(mr.Val) {
			t.Fatalf("unexpected NaN result")
		}
	}
	// Strictness at width: corrupt one deep slot's type.
	locals[2+width-1] = value.Bool(true)
	_, _, _, mok := u.ExecOSR(0, locals, newStub(), 0, &pool)
	_, _, _, rok := native.ExecOSR(code, 0, locals, newStub(), 0, &pool, false)
	if mok || rok {
		t.Fatalf("corrupted slot type entered: mc=%v native=%v", mok, rok)
	}
}
