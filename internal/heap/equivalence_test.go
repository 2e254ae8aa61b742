package heap

import (
	"fmt"
	"math"
	"testing"
)

// fuzzHeapCells is the heap size FuzzArenaEquivalence runs at: large enough
// for the backing to double four times (512 → 8192) and be capped, small
// enough that a 16-bit operand reaches the gap, the code region and the
// outside of the address space.
const fuzzHeapCells = 1 << 13

// arenaAPI is what the fuzz target drives on both arenas.
type arenaAPI interface {
	Alloc(n int) (int32, error)
	Get(h int32, idx int) (float64, bool, *CrashError)
	Set(h int32, idx int, v float64) *CrashError
	Push(h int32, v float64) (int, error)
	Pop(h int32) (float64, bool)
	SetLength(h int32, n int) error
	RawLoad(addr int) (float64, *CrashError)
	RawStore(addr int, v float64) *CrashError
	LengthAt(elems int) (float64, *CrashError)

	Crashed() *CrashError
	Top() int
	HandleCount() int
	CodeIntegrityViolation() int
	FreeBlocks() int
	Length(h int32) (int, bool)
	Capacity(h int32) (int, bool)
	Elems(h int32) (int, bool)
}

var (
	_ arenaAPI = (*Arena)(nil)
	_ arenaAPI = (*refArena)(nil)
)

// Opcodes of the fuzz program, one byte each, followed by their operands.
const (
	opAlloc = iota
	opGet
	opSet
	opPush
	opPop
	opSetLength
	opRawLoad
	opRawStore
	opLengthAt
	numOps
)

// Operand kinds of an integer operand (index, length, count).
const (
	numSmall    = iota // one byte
	numWide            // two bytes: anywhere in the address space and past it
	numNearCode        // codeBase-64 .. codeBase+191: the gap's end, the code region, past Size()
	numNegative        // -(one byte)
	numKinds
)

// Operand kinds of an address operand.
const (
	addrElems   = iota // elements pointer of a handle, plus an integer operand
	addrAbs            // an integer operand
	addrNearTop        // top-16 .. top+239
	addrKinds
)

// Operand kinds of a value operand.
const (
	valNum     = iota // an integer operand
	valSpecial        // an entry of fuzzSpecials
	valKinds
)

var fuzzSpecials = []float64{
	0, math.Copysign(0, -1), 0.5, -1.5, math.NaN(), math.Inf(1), math.Inf(-1),
	1e300, -1e300, 1 << 31, 1 << 53, 1e9, CodeSentinel(0), CodeSentinel(5),
	fuzzHeapCells, fuzzHeapCells + CodeRegionCells, fuzzHeapCells - 1,
}

// fuzzProg decodes a byte string into operations. Reads past the end yield
// zeros, so every byte string is a program.
type fuzzProg struct {
	b []byte
	i int
}

func (p *fuzzProg) byte() byte {
	if p.i >= len(p.b) {
		return 0
	}
	v := p.b[p.i]
	p.i++
	return v
}

func (p *fuzzProg) num() int {
	switch p.byte() % numKinds {
	case numSmall:
		return int(p.byte())
	case numWide:
		return int(p.byte())<<8 | int(p.byte())
	case numNearCode:
		return fuzzHeapCells - 64 + int(p.byte())
	default:
		return -int(p.byte())
	}
}

// handle picks a handle of an arena that has n, or one of the two invalid
// neighbours -1 and n.
func (p *fuzzProg) handle(n int) int32 {
	return int32(int(p.byte())%(n+2)) - 1
}

func (p *fuzzProg) addr(a arenaAPI) int {
	switch p.byte() % addrKinds {
	case addrElems:
		e, _ := a.Elems(p.handle(a.HandleCount()))
		return e + p.num()
	case addrAbs:
		return p.num()
	default:
		return a.Top() - 16 + int(p.byte())
	}
}

func (p *fuzzProg) val() float64 {
	if p.byte()%valKinds == valNum {
		return float64(p.num())
	}
	return fuzzSpecials[int(p.byte())%len(fuzzSpecials)]
}

// fuzzAsm builds seed programs in the encoding fuzzProg decodes.
type fuzzAsm []byte

func (s fuzzAsm) n(v int) fuzzAsm {
	switch {
	case v < 0:
		return append(s, numNegative, byte(-v))
	case v < 256:
		return append(s, numSmall, byte(v))
	default:
		return append(s, numWide, byte(v>>8), byte(v))
	}
}
func (s fuzzAsm) h(h int) fuzzAsm         { return append(s, byte(h+1)) } // valid while h+1 < count+2
func (s fuzzAsm) v(v int) fuzzAsm         { return append(s, valNum).n(v) }
func (s fuzzAsm) special(i int) fuzzAsm   { return append(s, valSpecial, byte(i)) }
func (s fuzzAsm) abs(addr int) fuzzAsm    { return append(s, addrAbs).n(addr) }
func (s fuzzAsm) elems(h, d int) fuzzAsm  { return append(s, addrElems).h(h).n(d) }
func (s fuzzAsm) alloc(n int) fuzzAsm     { return append(s, opAlloc).n(n) }
func (s fuzzAsm) get(h, i int) fuzzAsm    { return append(s, opGet).h(h).n(i) }
func (s fuzzAsm) set(h, i, v int) fuzzAsm { return append(s, opSet).h(h).n(i).v(v) }
func (s fuzzAsm) push(h, v int) fuzzAsm   { return append(s, opPush).h(h).v(v) }
func (s fuzzAsm) pop(h int) fuzzAsm       { return append(s, opPop).h(h) }
func (s fuzzAsm) setLen(h, n int) fuzzAsm { return append(s, opSetLength).h(h).n(n) }

// fuzzSeeds are the shapes the lazily backed arena could plausibly get
// wrong; FuzzArenaEquivalence mutates from them, and TestArenaEquivalenceSeeds
// runs them in every `go test`.
func fuzzSeeds() map[string][]byte {
	const codeBase = fuzzHeapCells
	seeds := map[string][]byte{}

	// Growth across the 512, 1024, 2048 and 4096 doublings and into the cap,
	// by bump allocation and by push-driven reallocation, reading back across
	// each move of the backing.
	s := fuzzAsm{}.alloc(3).set(0, 1, 41).alloc(600).set(1, 599, 42).alloc(0)
	for i := 0; i < 12; i++ {
		s = s.push(2, i).get(0, 1).get(1, 599)
	}
	s = s.alloc(900).alloc(1500).get(1, 599).alloc(3000).get(0, 1).get(4, 1499).alloc(2000).alloc(100)
	seeds["growth"] = s

	// Shrink, coalesce, fold back into bump space, first-fit reuse.
	s = fuzzAsm{}.alloc(20).alloc(20).alloc(2).setLen(1, 2).setLen(0, 2).alloc(10)
	s = s.setLen(0, 40).setLen(0, 2).setLen(2, 0).alloc(700).setLen(4, 3).alloc(5).setLen(3, 0)
	seeds["shrink-coalesce-fold"] = s

	// Header corruption through an out-of-bounds raw store, then every
	// method that trusts the header: h1's length and capacity point far past
	// the top (into the gap), then into the code region, then outside the
	// address space.
	s = fuzzAsm{}.alloc(4).alloc(4).alloc(4)
	s = append(s, opRawStore).elems(0, 4).v(3)    // h1.length = 3
	s = append(s, opRawStore).elems(0, 5).v(6000) // h1.capacity = 6000
	s = s.get(1, 2).set(1, 5000, 7).get(1, 5000).push(1, 8).pop(1).setLen(1, 5500).get(1, 5400)
	s = append(s, opLengthAt).elems(1, 0)
	s = s.setLen(1, 2).alloc(100).alloc(3000).set(4, 50, 9).pop(4)
	s = append(s, opRawStore).elems(0, 4).v(7000) // h1.length = 7000, capacity 2: grow copies from the gap
	s = s.push(1, 1).setLen(1, 7500)
	s = append(s, opRawStore).elems(2, -2).special(4) // h2.length = NaN: int(NaN) is the most negative int
	s = s.get(2, 0).pop(2).setLen(2, 0)
	s = append(s, opRawStore).elems(0, -1).v(codeBase + CodeRegionCells + 40) // h0.capacity past Size()
	s = s.set(0, codeBase+CodeRegionCells+10, 1)                              // a Go index panic on both
	seeds["corrupt-header"] = s

	// Out of memory at the last cell: fill the heap exactly (the last heap
	// cell becomes mapped, the next address is the code region), fail every
	// way of allocating, free a little and fill up again one cell short.
	s = fuzzAsm{}.alloc(codeBase - 4).alloc(0).alloc(0)
	s = append(s, opRawStore).abs(codeBase - 1).v(5)
	s = append(s, opRawLoad).abs(codeBase - 1)
	s = s.push(1, 1).set(1, 0, 1).setLen(1, 9).alloc(-1)
	s = s.setLen(0, codeBase-9).alloc(0).alloc(1).alloc(0)
	seeds["oom-last-cell"] = s

	// Stores into the code region: the mapped way, through a corrupted
	// capacity (no memory-map check), and the cells on either side of it.
	s = fuzzAsm{}.alloc(4)
	s = append(s, opRawStore).abs(codeBase + 3).v(123)
	s = append(s, opRawLoad).abs(codeBase + 3)
	s = append(s, opRawStore).abs(codeBase - 1).v(1)
	s = append(s, opRawStore).abs(codeBase + CodeRegionCells).v(1)
	s = append(s, opRawStore).elems(0, -1).v(codeBase + 64) // h0.capacity reaches the code region
	s = s.set(0, codeBase+5, 77)
	s = append(s, opLengthAt).abs(codeBase + 9)
	s = append(s, opRawLoad).abs(codeBase + 7)
	seeds["code-region"] = s

	return seeds
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func crashText(c *CrashError) string {
	if c == nil {
		return "<nil>"
	}
	return c.Error()
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// fuzzStep decodes one operation and applies it to a, returning everything
// the operation reported as text. A Go panic (the arena indexed outside its
// address space) is part of the report.
func fuzzStep(a arenaAPI, p *fuzzProg) (report string) {
	defer func() {
		if r := recover(); r != nil {
			report = "panic"
		}
	}()
	bits := math.Float64bits
	switch op := p.byte() % numOps; op {
	case opAlloc:
		h, err := a.Alloc(p.num())
		return fmt.Sprintf("Alloc = %d, %s", h, errText(err))
	case opGet:
		v, ok, crash := a.Get(p.handle(a.HandleCount()), p.num())
		return fmt.Sprintf("Get = %x, %v, %s", bits(v), ok, crashText(crash))
	case opSet:
		crash := a.Set(p.handle(a.HandleCount()), p.num(), p.val())
		return fmt.Sprintf("Set = %s", crashText(crash))
	case opPush:
		n, err := a.Push(p.handle(a.HandleCount()), p.val())
		return fmt.Sprintf("Push = %d, %s", n, errText(err))
	case opPop:
		v, ok := a.Pop(p.handle(a.HandleCount()))
		return fmt.Sprintf("Pop = %x, %v", bits(v), ok)
	case opSetLength:
		err := a.SetLength(p.handle(a.HandleCount()), p.num())
		return fmt.Sprintf("SetLength = %s", errText(err))
	case opRawLoad:
		v, crash := a.RawLoad(p.addr(a))
		return fmt.Sprintf("RawLoad = %x, %s", bits(v), crashText(crash))
	case opRawStore:
		crash := a.RawStore(p.addr(a), p.val())
		return fmt.Sprintf("RawStore = %s", crashText(crash))
	default:
		v, crash := a.LengthAt(p.addr(a))
		return fmt.Sprintf("LengthAt = %x, %s", bits(v), crashText(crash))
	}
}

// fuzzState is every observable of an arena that is not an operation's
// result.
func fuzzState(a arenaAPI) string {
	s := fmt.Sprintf("crashed=%s top=%d handles=%d violation=%d free=%d",
		crashText(a.Crashed()), a.Top(), a.HandleCount(), a.CodeIntegrityViolation(), a.FreeBlocks())
	for h := int32(0); int(h) < a.HandleCount(); h++ {
		n, _ := a.Length(h)
		c, _ := a.Capacity(h)
		e, _ := a.Elems(h)
		s += fmt.Sprintf(" [%d %d %d]", e, n, c)
	}
	return s
}

// checkArenaEquivalence runs prog on the arena and on the eager oracle and
// fails at the first operation after which any observable differs.
func checkArenaEquivalence(t *testing.T, prog []byte) {
	t.Helper()
	got, want := New(fuzzHeapCells), newRefArena(fuzzHeapCells)
	if got.Size() != want.Size() || got.CodeBase() != want.CodeBase() {
		t.Fatalf("address space: size %d codeBase %d, oracle %d %d", got.Size(), got.CodeBase(), want.Size(), want.CodeBase())
	}
	pg, pw := &fuzzProg{b: prog}, &fuzzProg{b: prog}
	for n := 0; pw.i < len(prog); n++ {
		at := pw.i
		rg, rw := fuzzStep(got, pg), fuzzStep(want, pw)
		if rg != rw {
			t.Fatalf("op %d (byte %d): %s, oracle %s", n, at, rg, rw)
		}
		if rw == "panic" {
			return // both left the address space mid-operation: nothing defined remains
		}
		if pg.i != pw.i {
			t.Fatalf("op %d (byte %d): decoded %d bytes, oracle %d", n, at, pg.i-at, pw.i-at)
		}
		if sg, sw := fuzzState(got), fuzzState(want); sg != sw {
			t.Fatalf("op %d (byte %d) %s:\n got    %s\n oracle %s", n, at, rw, sg, sw)
		}
		if len(got.cells) < got.top || len(got.cells) > got.codeBase {
			t.Fatalf("op %d (byte %d): backing of %d cells, top %d, codeBase %d", n, at, len(got.cells), got.top, got.codeBase)
		}
	}
	// Cell by cell, mapped or not: what is not backed must be zero in the
	// oracle.
	for addr, w := range want.cells {
		if g := got.load(addr); !sameFloat(g, w) {
			t.Fatalf("cell %d = %v, oracle %v (backing %d, top %d)", addr, g, w, len(got.cells), got.top)
		}
	}
}

func TestArenaEquivalenceSeeds(t *testing.T) {
	for name, prog := range fuzzSeeds() {
		t.Run(name, func(t *testing.T) { checkArenaEquivalence(t, prog) })
	}
}

func FuzzArenaEquivalence(f *testing.F) {
	for _, prog := range fuzzSeeds() {
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 1<<10 {
			t.Skip("longer programs find nothing shorter ones do not")
		}
		checkArenaEquivalence(t, prog)
	})
}
