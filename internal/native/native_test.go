package native

import (
	"errors"
	"math"
	"testing"

	"github.com/jitbull/jitbull/internal/bytecode"
	"github.com/jitbull/jitbull/internal/heap"
	"github.com/jitbull/jitbull/internal/lir"
	"github.com/jitbull/jitbull/internal/value"
)

// stubHooks is a minimal Hooks implementation for direct Exec tests.
type stubHooks struct {
	arena   *heap.Arena
	globals []value.Value
	callFn  func(idx int, args []value.Value) (value.Value, error)
}

func (s *stubHooks) Arena() *heap.Arena                { return s.arena }
func (s *stubHooks) GlobalGet(slot int) value.Value    { return s.globals[slot] }
func (s *stubHooks) GlobalSet(slot int, v value.Value) { s.globals[slot] = v }
func (s *stubHooks) Random() float64                   { return 0.5 }
func (s *stubHooks) CallFunction(idx int, args []value.Value) (value.Value, error) {
	if s.callFn != nil {
		return s.callFn(idx, args)
	}
	return value.Num(42), nil
}

func newStub() *stubHooks {
	return &stubHooks{arena: heap.New(1 << 10), globals: make([]value.Value, 8)}
}

func exec(t *testing.T, code *lir.Code, args []value.Value, h Hooks) Result {
	t.Helper()
	res, status, err := Exec(code, args, h, 0, nil)
	if err != nil {
		t.Fatalf("exec: %v", err)
	}
	if status != StatusOK {
		t.Fatalf("unexpected bail")
	}
	return res
}

func TestArithmetic(t *testing.T) {
	code := &lir.Code{
		Name: "arith", NumParams: 2, NumRegs: 6,
		Ops: []lir.Op{
			{Kind: lir.KUnbox, Dst: 2, A: 0},
			{Kind: lir.KUnbox, Dst: 3, A: 1},
			{Kind: lir.KMul, Dst: 4, A: 2, B: 3},
			{Kind: lir.KConst, Dst: 5, Imm: 1},
			{Kind: lir.KAdd, Dst: 4, A: 4, B: 5},
			{Kind: lir.KRetNum, A: 4},
		},
	}
	res := exec(t, code, []value.Value{value.Num(6), value.Num(7)}, newStub())
	if res.Kind != ResNum || res.Val != 43 {
		t.Fatalf("res = %+v, want 43", res)
	}
	if res.Steps != 6 {
		t.Fatalf("steps = %d, want 6", res.Steps)
	}
}

func TestUnboxBailsOnWrongTag(t *testing.T) {
	code := &lir.Code{
		Name: "guard", NumParams: 1, NumRegs: 2,
		Ops: []lir.Op{
			{Kind: lir.KUnbox, Dst: 1, A: 0, Aux: 1}, // expect object
			{Kind: lir.KRetNum, A: 1},
		},
	}
	_, status, err := Exec(code, []value.Value{value.Num(3)}, newStub(), 0, nil)
	if err != nil || status != StatusBail {
		t.Fatalf("want bail, got status=%v err=%v", status, err)
	}
}

// TestBoxParams pins what each kind of argument becomes in its parameter
// register: every executor's entry, the machine-code tier's included,
// boxes through this one function.
func TestBoxParams(t *testing.T) {
	args := []value.Value{value.Num(2.5), value.Bool(true), value.Bool(false), value.ArrayRef(7),
		value.Undef(), value.NullV(), value.Str("s")}
	code := &lir.Code{NumParams: len(args) + 1} // the last parameter has no argument
	regs, tags := make([]float64, code.NumParams), make([]Tag, code.NumParams)
	BoxParams(code, args, regs, tags)
	nan := math.NaN()
	want := []struct {
		reg float64
		tag Tag
	}{{2.5, TagNumber}, {1, TagBoolean}, {0, TagBoolean}, {7, TagObject},
		{nan, TagUndefined}, {nan, TagOther}, {nan, TagOther}, {nan, TagUndefined}}
	for i, w := range want {
		if tags[i] != w.tag || math.IsNaN(regs[i]) != math.IsNaN(w.reg) || (!math.IsNaN(w.reg) && regs[i] != w.reg) {
			t.Errorf("parameter %d: register %v tag %d, want %v tag %d", i, regs[i], tags[i], w.reg, w.tag)
		}
	}
}

func TestBoundsCheckBailsAndPasses(t *testing.T) {
	h := newStub()
	arr, _ := h.arena.Alloc(4)
	code := &lir.Code{
		Name: "bc", NumParams: 2, NumRegs: 6,
		Ops: []lir.Op{
			{Kind: lir.KUnbox, Dst: 2, A: 0, Aux: 1},
			{Kind: lir.KElemsHandle, Dst: 3, A: 2},
			{Kind: lir.KInitLen, Dst: 4, A: 3},
			{Kind: lir.KUnbox, Dst: 5, A: 1},
			{Kind: lir.KBoundsCheck, A: 5, B: 4},
			{Kind: lir.KLoadElem, Dst: 5, A: 3, B: 5},
			{Kind: lir.KRetNum, A: 5},
		},
	}
	h.arena.Set(arr, 2, 77)
	res := exec(t, code, []value.Value{value.ArrayRef(arr), value.Num(2)}, h)
	if res.Val != 77 {
		t.Fatalf("load = %v", res.Val)
	}
	_, status, _ := Exec(code, []value.Value{value.ArrayRef(arr), value.Num(9)}, h, 0, nil)
	if status != StatusBail {
		t.Fatal("OOB index must bail")
	}
	_, status, _ = Exec(code, []value.Value{value.ArrayRef(arr), value.Num(1.5)}, h, 0, nil)
	if status != StatusBail {
		t.Fatal("non-integer index must bail")
	}
}

func TestRawStoreWithoutCheckCorrupts(t *testing.T) {
	// The exploit path: no KBoundsCheck before the raw store.
	h := newStub()
	a, _ := h.arena.Alloc(4)
	b, _ := h.arena.Alloc(4)
	code := &lir.Code{
		Name: "raw", NumParams: 2, NumRegs: 6,
		Ops: []lir.Op{
			{Kind: lir.KUnbox, Dst: 2, A: 0, Aux: 1},
			{Kind: lir.KElemsHandle, Dst: 3, A: 2},
			{Kind: lir.KUnbox, Dst: 4, A: 1},
			{Kind: lir.KConst, Dst: 5, Imm: 999},
			{Kind: lir.KStoreElem, A: 3, B: 4, C: 5},
			{Kind: lir.KRetUndef},
		},
	}
	exec(t, code, []value.Value{value.ArrayRef(a), value.Num(4)}, h)
	if n, _ := h.arena.Length(b); n != 999 {
		t.Fatalf("neighbour length = %d, want corrupted 999", n)
	}
}

func TestRawAccessUnmappedCrashes(t *testing.T) {
	h := newStub()
	a, _ := h.arena.Alloc(4)
	code := &lir.Code{
		Name: "crash", NumParams: 2, NumRegs: 5,
		Ops: []lir.Op{
			{Kind: lir.KUnbox, Dst: 2, A: 0, Aux: 1},
			{Kind: lir.KElemsHandle, Dst: 3, A: 2},
			{Kind: lir.KUnbox, Dst: 4, A: 1},
			{Kind: lir.KLoadElem, Dst: 4, A: 3, B: 4},
			{Kind: lir.KRetNum, A: 4},
		},
	}
	_, _, err := Exec(code, []value.Value{value.ArrayRef(a), value.Num(900)}, h, 0, nil)
	var crash *heap.CrashError
	if !errors.As(err, &crash) {
		t.Fatalf("want CrashError, got %v", err)
	}
}

func TestElemsRawTypeConfusion(t *testing.T) {
	h := newStub()
	a, _ := h.arena.Alloc(4)
	code := &lir.Code{
		Name: "confused", NumParams: 1, NumRegs: 3,
		Ops: []lir.Op{
			// No unbox: the raw param is consumed as an object reference.
			{Kind: lir.KElemsRaw, Dst: 1, A: 0},
			{Kind: lir.KInitLen, Dst: 2, A: 1},
			{Kind: lir.KRetNum, A: 2},
		},
	}
	// A genuine array reference still works (bits are the reference).
	res := exec(t, code, []value.Value{value.ArrayRef(a)}, h)
	if res.Val != 4 {
		t.Fatalf("confused-but-valid length = %v", res.Val)
	}
	// An attacker number is a wild pointer.
	_, _, err := Exec(code, []value.Value{value.Num(123456789.5)}, h, 0, nil)
	var crash *heap.CrashError
	if !errors.As(err, &crash) {
		t.Fatalf("want CrashError, got %v", err)
	}
}

func TestBranchAndLoop(t *testing.T) {
	// sum 0..4 via a backward branch.
	code := &lir.Code{
		Name: "loop", NumParams: 0, NumRegs: 4,
		Ops: []lir.Op{
			{Kind: lir.KConst, Dst: 0, Imm: 0}, // i
			{Kind: lir.KConst, Dst: 1, Imm: 0}, // s
			{Kind: lir.KConst, Dst: 2, Imm: 5},
			// 3: loop
			{Kind: lir.KAdd, Dst: 1, A: 1, B: 0},
			{Kind: lir.KConst, Dst: 3, Imm: 1},
			{Kind: lir.KAdd, Dst: 0, A: 0, B: 3},
			{Kind: lir.KCmp, Dst: 3, A: 0, B: 2, Aux: 1}, // i < 5
			{Kind: lir.KBranchFalse, A: 3, Target: 9},
			{Kind: lir.KJump, Target: 3},
			{Kind: lir.KRetNum, A: 1},
		},
	}
	res := exec(t, code, nil, newStub())
	if res.Val != 10 {
		t.Fatalf("sum = %v, want 10", res.Val)
	}
}

func TestBudgetExhaustion(t *testing.T) {
	code := &lir.Code{
		Name: "spin", NumRegs: 1,
		Ops: []lir.Op{
			{Kind: lir.KJump, Target: 0},
		},
	}
	_, _, err := Exec(code, nil, newStub(), 1000, nil)
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("want BudgetError, got %v", err)
	}
}

func TestCallRoundTrip(t *testing.T) {
	h := newStub()
	var gotArgs []value.Value
	h.callFn = func(idx int, args []value.Value) (value.Value, error) {
		gotArgs = append([]value.Value(nil), args...)
		return value.Num(args[0].AsNumber() + args[1].AsNumber()), nil
	}
	code := &lir.Code{
		Name: "call", NumParams: 2, NumRegs: 5,
		ArgLists: [][]int32{{2, 3}},
		Ops: []lir.Op{
			{Kind: lir.KUnbox, Dst: 2, A: 0},
			{Kind: lir.KUnbox, Dst: 3, A: 1},
			{Kind: lir.KCall, Dst: 4, A: 0, B: 0, Aux: 7},
			{Kind: lir.KRetNum, A: 4},
		},
	}
	var pool Pool
	res, status, err := Exec(code, []value.Value{value.Num(2), value.Num(3)}, h, 0, &pool)
	if err != nil || status != StatusOK || res.Val != 5 {
		t.Fatalf("call: res=%v status=%v err=%v", res, status, err)
	}
	if len(gotArgs) != 2 || gotArgs[0].AsNumber() != 2 {
		t.Fatalf("args = %v", gotArgs)
	}
}

func TestCallResultKindMismatchBails(t *testing.T) {
	h := newStub()
	h.callFn = func(int, []value.Value) (value.Value, error) {
		return value.Str("oops"), nil
	}
	code := &lir.Code{
		Name: "badcall", NumRegs: 1,
		ArgLists: [][]int32{{}},
		Ops: []lir.Op{
			{Kind: lir.KCall, Dst: 0, A: 0, B: 0, Aux: 1},
			{Kind: lir.KRetNum, A: 0},
		},
	}
	_, status, err := Exec(code, nil, h, 0, nil)
	if err != nil || status != StatusBail {
		t.Fatalf("want bail on string result, got status=%v err=%v", status, err)
	}
}

func TestGlobalsAndMath(t *testing.T) {
	h := newStub()
	h.globals[2] = value.Num(9)
	code := &lir.Code{
		Name: "globals", NumRegs: 3,
		Ops: []lir.Op{
			{Kind: lir.KLoadGlobal, Dst: 0, Aux: 2},
			{Kind: lir.KGuardType, Dst: 1, A: 0},
			{Kind: lir.KMath, Dst: 2, A: 1, Aux: int32(mathSqrtID())},
			{Kind: lir.KStoreGlobalNum, A: 2, Aux: 3},
			{Kind: lir.KRetNum, A: 2},
		},
	}
	res := exec(t, code, nil, h)
	if res.Val != 3 {
		t.Fatalf("sqrt(9) = %v", res.Val)
	}
	if h.globals[3].AsNumber() != 3 {
		t.Fatalf("global store = %v", h.globals[3])
	}
}

func TestPopEmptyBails(t *testing.T) {
	h := newStub()
	arr, _ := h.arena.Alloc(0)
	code := &lir.Code{
		Name: "pop", NumParams: 1, NumRegs: 3,
		Ops: []lir.Op{
			{Kind: lir.KUnbox, Dst: 1, A: 0, Aux: 1},
			{Kind: lir.KPop, Dst: 2, A: 1},
			{Kind: lir.KRetNum, A: 2},
		},
	}
	_, status, err := Exec(code, []value.Value{value.ArrayRef(arr)}, h, 0, nil)
	if err != nil || status != StatusBail {
		t.Fatalf("pop of empty array must bail: status=%v err=%v", status, err)
	}
}

func TestResultValueBoxing(t *testing.T) {
	if v := (Result{Kind: ResNum, Val: 3}).Value(); !v.IsNumber() || v.AsNumber() != 3 {
		t.Error("num boxing")
	}
	if v := (Result{Kind: ResObject, Val: 7}).Value(); !v.IsArray() || v.Handle() != 7 {
		t.Error("object boxing")
	}
	if v := (Result{Kind: ResUndef}).Value(); !v.IsUndefined() {
		t.Error("undef boxing")
	}
	if !math.IsNaN((Result{Kind: ResNum, Val: math.NaN()}).Value().AsNumber()) {
		t.Error("NaN result")
	}
}

func TestPoolReuse(t *testing.T) {
	var p Pool
	f1, t1 := p.getRegs(8)
	p.putRegs(f1, t1)
	f2, t2 := p.getRegs(4)
	if &f2[0] != &f1[0] || &t2[0] != &t1[0] {
		t.Fatal("pool did not hand the released registers out again")
	}
	if len(f2) != 4 || cap(f2) != 4 || len(t2) != 4 {
		t.Fatalf("window is %d/%d registers, %d tags, want exactly 4", len(f2), cap(f2), len(t2))
	}
}

// TestPoolChunks leases more registers than one chunk holds, including a
// file larger than a whole chunk, and checks that live files never overlap
// and that everything unwinds to the first chunk.
func TestPoolChunks(t *testing.T) {
	var p Pool
	type lease struct {
		f []float64
		t []Tag
	}
	var live []lease
	for i, n := range []int{600, 600, 3 * regChunkRegs, 5, 0, 700} {
		f, tg := p.getRegs(n)
		if len(f) != n || len(tg) != n {
			t.Fatalf("lease %d: got %d registers, %d tags, want %d", i, len(f), len(tg), n)
		}
		for j := range f {
			f[j], tg[j] = float64(i), Tag(i)
		}
		live = append(live, lease{f, tg})
	}
	for i, l := range live {
		for j := range l.f {
			if l.f[j] != float64(i) || l.t[j] != Tag(i) {
				t.Fatalf("lease %d was overwritten at register %d", i, j)
			}
		}
	}
	for i := len(live) - 1; i >= 0; i-- {
		p.putRegs(live[i].f, live[i].t)
	}
	if p.cur != 0 || p.chunks[0].top != 0 {
		t.Fatalf("after releasing everything: chunk %d, top %d", p.cur, p.chunks[0].top)
	}
}

// TestPoolAlternatingFramesDoNotAllocate drives a call loop over a chain
// that alternates small and large frames a hundred calls deep, entered at
// a small frame and at a large one in turn. The former pool of whole
// frames popped and dropped every entry smaller than the request and kept
// 64 at most, so it allocated on every pass over such a chain; windows of
// one register stack never allocate once the chunks exist.
func TestPoolAlternatingFramesDoNotAllocate(t *testing.T) {
	// fn i calls fn i+1; even indices have 4 registers, odd ones 200.
	const depth = 100
	codes := make([]*lir.Code, depth)
	for i := range codes {
		c := &lir.Code{Name: "chain", NumParams: 1, NumRegs: 4, ArgLists: [][]int32{{1}}}
		if i%2 == 1 {
			c.NumRegs = 200
		}
		c.Ops = []lir.Op{{Kind: lir.KUnbox, Dst: 1, A: 0}}
		if i+1 < depth {
			c.Ops = append(c.Ops, lir.Op{Kind: lir.KCall, Dst: 1, A: 0, Aux: int32(i + 1)})
		}
		c.Ops = append(c.Ops, lir.Op{Kind: lir.KRetNum, A: 1})
		codes[i] = c
	}
	h := newStub()
	pool := &Pool{}
	h.callFn = func(idx int, args []value.Value) (value.Value, error) {
		res, _, err := Exec(codes[idx], args, h, 0, pool)
		return res.Value(), err
	}
	args := []value.Value{value.Num(7)}
	loop := func() {
		for _, entry := range []int{0, 1} {
			v, err := h.callFn(entry, args)
			if err != nil || v.AsNumber() != 7 {
				t.Fatalf("chain from fn %d = %v, %v", entry, v, err)
			}
		}
	}
	if allocs := testing.AllocsPerRun(20, loop); allocs != 0 {
		t.Fatalf("alternating small/large call loop allocates %v times per run, want 0", allocs)
	}
	if pool.cur != 0 || pool.chunks[0].top != 0 {
		t.Fatalf("register stack not unwound: chunk %d, top %d", pool.cur, pool.chunks[0].top)
	}
}

func mathSqrtID() int { return int(bytecode.BMathSqrt) }
