// Package heap implements the shared array arena used by every execution
// tier of the jitbull runtime.
//
// The arena models a JS engine heap closely enough that JIT-bug exploits are
// *observable*:
//
//   - Arrays are allocated contiguously: a header of two cells (length,
//     capacity) immediately followed by the payload cells. Adjacent
//     allocations sit next to each other, so an out-of-bounds write through
//     one array corrupts its neighbour's header — the classic first step of
//     the CVE-2019-17026 proof of concept.
//   - Shrinking an array via `.length = n` reclaims the tail cells into a
//     free list (SpiderMonkey reclaims shrunken elements), enabling
//     heap-grooming: a later allocation can be placed inside the reclaimed
//     region.
//   - The element-access fast path *trusts the length header* (as real
//     engines trust the butterfly/elements header), so corrupting a length
//     cell yields an arbitrary arena read/write primitive.
//   - A "JIT code" region at the top of the address space holds one code
//     pointer per compiled function. Overwriting one and then calling the
//     function models a control-flow hijack ("payload executed").
//   - Accesses outside the mapped regions (past the allocation top, or in
//     the guard gap below the code region) are a simulated segfault: the
//     arena records a crash and execution aborts.
package heap

import (
	"errors"
	"fmt"
	"math"
)

// Default sizes. DefaultHeapCells bounds script data; CodeRegionCells bounds
// the number of JIT-compiled functions whose code pointers are tracked.
const (
	DefaultHeapCells = 1 << 17
	CodeRegionCells  = 128

	headerCells = 2 // length, capacity
	// minFreeCells is the smallest tail worth reclaiming: enough for a
	// header plus one element.
	minFreeCells = headerCells + 1
)

// CodeSentinel is the expected value of code-pointer cell i. Values are
// exactly representable in float64, so any overwrite is detectable. It is
// exported for the machine-code tier, whose direct calls test the callee's
// cell inline (CodePointerOK's comparison, with the sentinel as an
// immediate).
func CodeSentinel(i int) float64 { return 1e15 + float64(i)*7 }

// ErrOOM is returned when the arena cannot satisfy an allocation.
var ErrOOM = errors.New("arena out of memory")

// CrashError is the simulated segfault raised by an access to unmapped
// arena memory.
type CrashError struct {
	Addr int
	Op   string
}

// Error implements the error interface.
func (e *CrashError) Error() string {
	return fmt.Sprintf("segmentation fault: %s at unmapped address %d", e.Op, e.Addr)
}

type freeBlock struct {
	off  int
	size int
}

// Arena is the shared heap. It is not safe for concurrent use; each Runtime
// owns one.
//
// The address space is fixed at creation — heap [0, codeBase), code region
// [codeBase, Size()) — but only what a script allocates is backed by memory:
// cells is a prefix of the heap that grows with the bump pointer, and every
// heap cell beyond it holds zero by construction (nothing non-zero is ever
// stored there without extending it first). Building an arena therefore
// costs the same for any heapCells.
type Arena struct {
	cells    []float64 // heap cells [0, len(cells)); top <= len(cells) <= codeBase
	top      int       // bump pointer; [0, top) is mapped heap
	codeBase int       // [codeBase, codeBase+CodeRegionCells) is the mapped code region
	free     []freeBlock
	handles  []int // handle -> header offset
	crash    *CrashError
	code     [CodeRegionCells]float64
}

// New creates an arena with heapCells of heap plus the code region. If
// heapCells is <= 0, DefaultHeapCells is used.
func New(heapCells int) *Arena {
	if heapCells <= 0 {
		heapCells = DefaultHeapCells
	}
	a := &Arena{codeBase: heapCells}
	for i := range a.code {
		a.code[i] = CodeSentinel(i)
	}
	return a
}

// Crashed returns the recorded segfault, if any.
func (a *Arena) Crashed() *CrashError { return a.crash }

// CodeBase returns the address of the first code-pointer cell.
func (a *Arena) CodeBase() int { return a.codeBase }

// Size returns the total number of addressable cells.
func (a *Arena) Size() int { return a.codeBase + CodeRegionCells }

// Top returns the current allocation top (exclusive end of mapped heap).
func (a *Arena) Top() int { return a.top }

// Cells exposes the backing of the mapped heap for the machine-code tier,
// which compiles RawLoad/RawStore-equivalent accesses to addresses below
// Top() inline instead of calling through this package. It always covers
// [0, Top()). Like Handles, the backing array moves when a method extends it
// (an allocation, or a store a corrupted header sent past it), so callers
// must re-read this after any call that is not a plain read.
func (a *Arena) Cells() []float64 { return a.cells }

// Code exposes the code-pointer cells (addresses CodeBase()+i) for the
// machine-code tier's inline code-pointer guard. Unlike Cells, it never
// moves.
func (a *Arena) Code() *[CodeRegionCells]float64 { return &a.code }

// Handles exposes the handle table for the machine-code tier's inline
// KElemsHandle/KAddrOf lowering. The backing array moves when allocation
// appends, so callers must re-read this after any operation that can
// allocate.
func (a *Arena) Handles() []int { return a.handles }

// HeaderCells is the per-array header size (length, capacity) — the
// elements-pointer bias the machine-code tier bakes into its inline
// handle-dereference sequence.
const HeaderCells = headerCells

// CodeIntegrityViolation returns the index of the first corrupted
// code-pointer cell, or -1 if the code region is intact.
func (a *Arena) CodeIntegrityViolation() int {
	for i := range a.code {
		if a.code[i] != CodeSentinel(i) {
			return i
		}
	}
	return -1
}

// CodePointerOK reports whether function fn's code pointer is intact. Out of
// range functions are considered intact (they have no tracked pointer).
func (a *Arena) CodePointerOK(fn int) bool {
	if fn < 0 || fn >= CodeRegionCells {
		return true
	}
	return a.code[fn] == CodeSentinel(fn)
}

// load, store and move are the only code that touches the backing
// arrays. They address the whole address space without consulting the
// memory map, which is what every method below did by indexing one eager
// array: offsets derived from length and capacity cells are trusted, and a
// script that corrupted those cells reaches wherever they point. An address
// in the unbacked part of the heap reads zero and absorbs a store (the
// backing is extended to hold it); an address in the code region hits the
// code-pointer cells; an address outside [0, Size()) is a Go index panic,
// as it always was.

func (a *Arena) load(addr int) float64 {
	if uint(addr) < uint(len(a.cells)) {
		return a.cells[addr]
	}
	return a.loadUnbacked(addr)
}

func (a *Arena) loadUnbacked(addr int) float64 {
	if addr < 0 || addr >= a.codeBase {
		return a.code[addr-a.codeBase] // the index is out of range exactly when addr is outside [0, Size())
	}
	return 0
}

func (a *Arena) store(addr int, v float64) {
	if uint(addr) < uint(len(a.cells)) {
		a.cells[addr] = v
		return
	}
	a.storeUnbacked(addr, v)
}

// Kept out of line so that store itself inlines into the element paths.
//
//go:noinline
func (a *Arena) storeUnbacked(addr int, v float64) {
	if addr < 0 || addr >= a.codeBase {
		a.code[addr-a.codeBase] = v
		return
	}
	if math.Float64bits(v) != 0 {
		a.back(addr + 1)
		a.cells[addr] = v
	}
}

// move copies the n cells at src to dst, with copy's semantics: ranges may
// overlap, and a range that leaves the address space (or a negative n) is
// a panic.
func (a *Arena) move(dst, src, n int) {
	lo, hi := min(src, dst), max(src, dst)
	if n < 0 || lo < 0 || n > a.Size()-hi {
		panic(fmt.Sprintf("heap: move of %d cells from %d to %d leaves the address space", n, src, dst))
	}
	if hi+n <= len(a.cells) {
		copy(a.cells[dst:dst+n], a.cells[src:src+n])
		return
	}
	buf := make([]float64, n)
	for i := range buf {
		buf[i] = a.load(src + i)
	}
	for i, v := range buf {
		a.store(dst+i, v)
	}
}

// minBackedCells is the first extension of the backing: one 4 KiB page of
// cells.
const minBackedCells = 512

// back extends the backing to hold at least n (<= codeBase) cells, at least
// doubling it so that a script's allocations cost amortized O(1) copies.
func (a *Arena) back(n int) {
	if n <= len(a.cells) {
		return
	}
	cells := make([]float64, min(max(n, 2*len(a.cells), minBackedCells), a.codeBase))
	copy(cells, a.cells)
	a.cells = cells
}

// mapped reports whether addr is inside a mapped region (heap below top, or
// the code region).
func (a *Arena) mapped(addr int) bool {
	return (addr >= 0 && addr < a.top) || (addr >= a.codeBase && addr < a.Size())
}

// RawLoad reads a cell with no bounds discipline beyond the memory map, as
// JIT-compiled code whose bounds check was (possibly wrongly) eliminated
// would. An unmapped access records a crash.
func (a *Arena) RawLoad(addr int) (float64, *CrashError) {
	if !a.mapped(addr) {
		return 0, a.fault(addr, "read")
	}
	return a.load(addr), nil
}

// RawStore writes a cell with no bounds discipline beyond the memory map.
// An unmapped access records a crash.
func (a *Arena) RawStore(addr int, v float64) *CrashError {
	if !a.mapped(addr) {
		return a.fault(addr, "write")
	}
	a.store(addr, v)
	return nil
}

func (a *Arena) fault(addr int, op string) *CrashError {
	c := &CrashError{Addr: addr, Op: op}
	if a.crash == nil {
		a.crash = c
	}
	return c
}

// Alloc allocates an array of n elements (capacity n) and returns its
// handle. Allocation is first-fit from the free list, else bump allocation.
func (a *Arena) Alloc(n int) (int32, error) {
	if n < 0 {
		return 0, fmt.Errorf("negative array length %d", n)
	}
	off, err := a.allocBlock(headerCells + n)
	if err != nil {
		return 0, err
	}
	a.store(off, float64(n))
	a.store(off+1, float64(n))
	for i := 0; i < n; i++ {
		a.store(off+headerCells+i, 0)
	}
	h := int32(len(a.handles))
	a.handles = append(a.handles, off)
	return h, nil
}

func (a *Arena) allocBlock(need int) (int, error) {
	for i, fb := range a.free {
		if fb.size >= need {
			off := fb.off
			rest := fb.size - need
			if rest >= minFreeCells {
				a.free[i] = freeBlock{off: off + need, size: rest}
			} else {
				// Too small a remainder to track; absorb it into the block.
				a.free = append(a.free[:i], a.free[i+1:]...)
			}
			return off, nil
		}
	}
	if a.top+need > a.codeBase {
		return 0, fmt.Errorf("%w: need %d cells, %d heap cells free", ErrOOM, need, a.codeBase-a.top)
	}
	off := a.top
	a.top += need
	a.back(a.top)
	return off, nil
}

// freeRange returns [off, off+size) to the free list, kept sorted by
// offset with adjacent blocks coalesced (and the top block folded back
// into the bump pointer), so allocation churn cannot fragment the arena
// to death.
func (a *Arena) freeRange(off, size int) {
	if size < minFreeCells {
		return
	}
	for i := 0; i < size; i++ {
		a.store(off+i, 0)
	}
	// Insert sorted by offset.
	pos := len(a.free)
	for i, fb := range a.free {
		if fb.off > off {
			pos = i
			break
		}
	}
	a.free = append(a.free, freeBlock{})
	copy(a.free[pos+1:], a.free[pos:])
	a.free[pos] = freeBlock{off: off, size: size}
	// Coalesce with the next block, then with the previous one.
	if pos+1 < len(a.free) && a.free[pos].off+a.free[pos].size == a.free[pos+1].off {
		a.free[pos].size += a.free[pos+1].size
		a.free = append(a.free[:pos+1], a.free[pos+2:]...)
	}
	if pos > 0 && a.free[pos-1].off+a.free[pos-1].size == a.free[pos].off {
		a.free[pos-1].size += a.free[pos].size
		a.free = append(a.free[:pos], a.free[pos+1:]...)
		pos--
	}
	// Fold a block touching the top back into bump space.
	if pos < len(a.free) && a.free[pos].off+a.free[pos].size == a.top {
		a.top = a.free[pos].off
		a.free = append(a.free[:pos], a.free[pos+1:]...)
	}
}

// validHandle reports whether h refers to an allocated array.
func (a *Arena) validHandle(h int32) bool {
	return h >= 0 && int(h) < len(a.handles)
}

// HandleCount returns the number of live array handles.
func (a *Arena) HandleCount() int { return len(a.handles) }

// Elems returns the payload base address ("elements pointer") of array h.
// ok is false for an invalid handle — the caller decides whether that is a
// bailout or a crash.
func (a *Arena) Elems(h int32) (int, bool) {
	if !a.validHandle(h) {
		return 0, false
	}
	return a.handles[h] + headerCells, true
}

// Length returns the (trusted) length header of array h.
func (a *Arena) Length(h int32) (int, bool) {
	if !a.validHandle(h) {
		return 0, false
	}
	return int(a.load(a.handles[h])), true
}

// Capacity returns the capacity header of array h.
func (a *Arena) Capacity(h int32) (int, bool) {
	if !a.validHandle(h) {
		return 0, false
	}
	return int(a.load(a.handles[h] + 1)), true
}

// LengthAt loads the length cell relative to an elements pointer, as the
// MIR initializedlength instruction does.
func (a *Arena) LengthAt(elems int) (float64, *CrashError) {
	return a.RawLoad(elems - headerCells)
}

// Get reads element idx of array h with interpreter semantics: indices in
// [0, length) are a trusted raw access (the length header is believed, as
// real engines believe the elements header — this is what turns a corrupted
// length into a read primitive); anything else reads as a hole.
// The second result is false when the access was a hole (undefined).
func (a *Arena) Get(h int32, idx int) (float64, bool, *CrashError) {
	if !a.validHandle(h) {
		return 0, false, nil
	}
	off := a.handles[h]
	length := int(a.load(off))
	if idx < 0 || idx >= length {
		return 0, false, nil
	}
	v, crash := a.RawLoad(off + headerCells + idx)
	return v, crash == nil, crash
}

// Set writes element idx of array h with interpreter semantics: indices in
// [0, length) are a trusted raw store; indices in [length, capacity) extend
// the length (dense-array growth); indices at or beyond capacity trigger a
// reallocation. Negative or absurd indices are ignored (they would be
// property stores in real JS).
func (a *Arena) Set(h int32, idx int, v float64) *CrashError {
	if !a.validHandle(h) || idx < 0 {
		return nil
	}
	off := a.handles[h]
	length := int(a.load(off))
	capacity := int(a.load(off + 1))
	switch {
	case idx < length:
		return a.RawStore(off+headerCells+idx, v)
	case idx < capacity:
		a.store(off+headerCells+idx, v)
		a.store(off, float64(idx+1))
		return nil
	default:
		if err := a.grow(h, idx+1); err != nil {
			// Treat allocation failure during growth as a crash so scripts
			// cannot continue with a half-grown array.
			return a.fault(a.top, "grow")
		}
		off = a.handles[h]
		a.store(off+headerCells+idx, v)
		a.store(off, float64(idx+1))
		return nil
	}
}

// grow reallocates array h to capacity at least need, moving its payload.
func (a *Arena) grow(h int32, need int) error {
	off := a.handles[h]
	length := int(a.load(off))
	capacity := int(a.load(off + 1))
	newCap := capacity * 2
	if newCap < need {
		newCap = need
	}
	if newCap < 4 {
		newCap = 4
	}
	newOff, err := a.allocBlock(headerCells + newCap)
	if err != nil {
		return err
	}
	copyN := length
	if copyN > capacity {
		copyN = capacity
	}
	a.store(newOff, float64(length))
	a.store(newOff+1, float64(newCap))
	a.move(newOff+headerCells, off+headerCells, copyN)
	for i := copyN; i < newCap; i++ {
		a.store(newOff+headerCells+i, 0)
	}
	a.handles[h] = newOff
	a.freeRange(off, headerCells+capacity)
	return nil
}

// SetLength implements `arr.length = n`. Shrinking reclaims the tail cells
// into the free list (capacity shrinks with length); growing within capacity
// just writes the header (new slots read as holes); growing beyond capacity
// reallocates.
func (a *Arena) SetLength(h int32, n int) error {
	if !a.validHandle(h) {
		return nil
	}
	if n < 0 {
		return fmt.Errorf("invalid array length %d", n)
	}
	off := a.handles[h]
	length := int(a.load(off))
	capacity := int(a.load(off + 1))
	switch {
	case n == length:
		return nil
	case n < length:
		tail := capacity - n
		if tail >= minFreeCells {
			a.freeRange(off+headerCells+n, tail)
			a.store(off+1, float64(n))
		}
		a.store(off, float64(n))
		return nil
	case n <= capacity:
		for i := length; i < n; i++ {
			a.store(off+headerCells+i, 0)
		}
		a.store(off, float64(n))
		return nil
	default:
		if err := a.grow(h, n); err != nil {
			return err
		}
		a.store(a.handles[h], float64(n))
		return nil
	}
}

// Push appends v, growing if needed, and returns the new length.
func (a *Arena) Push(h int32, v float64) (int, error) {
	if !a.validHandle(h) {
		return 0, fmt.Errorf("push on invalid handle %d", h)
	}
	off := a.handles[h]
	length := int(a.load(off))
	capacity := int(a.load(off + 1))
	if length >= capacity {
		if err := a.grow(h, length+1); err != nil {
			return 0, err
		}
		off = a.handles[h]
	}
	a.store(off+headerCells+length, v)
	a.store(off, float64(length+1))
	return length + 1, nil
}

// Pop removes and returns the last element. ok is false on an empty array
// (the result is then a hole/undefined).
func (a *Arena) Pop(h int32) (float64, bool) {
	if !a.validHandle(h) {
		return 0, false
	}
	off := a.handles[h]
	length := int(a.load(off))
	if length <= 0 {
		return 0, false
	}
	v := a.load(off + headerCells + length - 1)
	a.store(off, float64(length-1))
	return v, true
}

// FreeBlocks returns the number of tracked free blocks (for tests and
// diagnostics).
func (a *Arena) FreeBlocks() int { return len(a.free) }
