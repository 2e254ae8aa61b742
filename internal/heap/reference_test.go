package heap

import "fmt"

// refArena is the arena as it was before cells became a lazily backed
// prefix: one eager []float64 covering the whole address space, indexed
// directly everywhere. It is the oracle FuzzArenaEquivalence holds Arena
// to, observable by observable; it is kept verbatim (only the type name and
// the removed Reset differ), so do not "fix" it — an access past Size() is
// a Go index panic here, and the fuzz target requires the same of Arena.
type refArena struct {
	cells    []float64
	top      int // bump pointer; [0, top) is mapped heap
	codeBase int // [codeBase, len(cells)) is the mapped code region
	free     []freeBlock
	handles  []int // handle -> header offset
	crash    *CrashError
}

// newRefArena creates an arena with heapCells of heap plus the code region. If
// heapCells is <= 0, DefaultHeapCells is used.
func newRefArena(heapCells int) *refArena {
	if heapCells <= 0 {
		heapCells = DefaultHeapCells
	}
	a := &refArena{
		cells:    make([]float64, heapCells+CodeRegionCells),
		codeBase: heapCells,
	}
	for i := 0; i < CodeRegionCells; i++ {
		a.cells[a.codeBase+i] = CodeSentinel(i)
	}
	return a
}

// Crashed returns the recorded segfault, if any.
func (a *refArena) Crashed() *CrashError { return a.crash }

// CodeBase returns the address of the first code-pointer cell.
func (a *refArena) CodeBase() int { return a.codeBase }

// Size returns the total number of addressable cells.
func (a *refArena) Size() int { return len(a.cells) }

// Top returns the current allocation top (exclusive end of mapped heap).
func (a *refArena) Top() int { return a.top }

// CodeIntegrityViolation returns the index of the first corrupted
// code-pointer cell, or -1 if the code region is intact.
func (a *refArena) CodeIntegrityViolation() int {
	for i := 0; i < CodeRegionCells; i++ {
		if a.cells[a.codeBase+i] != CodeSentinel(i) {
			return i
		}
	}
	return -1
}

// CodePointerOK reports whether function fn's code pointer is intact. Out of
// range functions are considered intact (they have no tracked pointer).
func (a *refArena) CodePointerOK(fn int) bool {
	if fn < 0 || fn >= CodeRegionCells {
		return true
	}
	return a.cells[a.codeBase+fn] == CodeSentinel(fn)
}

// mapped reports whether addr is inside a mapped region (heap below top, or
// the code region).
func (a *refArena) mapped(addr int) bool {
	return (addr >= 0 && addr < a.top) || (addr >= a.codeBase && addr < len(a.cells))
}

// RawLoad reads a cell with no bounds discipline beyond the memory map, as
// JIT-compiled code whose bounds check was (possibly wrongly) eliminated
// would. An unmapped access records a crash.
func (a *refArena) RawLoad(addr int) (float64, *CrashError) {
	if !a.mapped(addr) {
		return 0, a.fault(addr, "read")
	}
	return a.cells[addr], nil
}

// RawStore writes a cell with no bounds discipline beyond the memory map.
// An unmapped access records a crash.
func (a *refArena) RawStore(addr int, v float64) *CrashError {
	if !a.mapped(addr) {
		return a.fault(addr, "write")
	}
	a.cells[addr] = v
	return nil
}

func (a *refArena) fault(addr int, op string) *CrashError {
	c := &CrashError{Addr: addr, Op: op}
	if a.crash == nil {
		a.crash = c
	}
	return c
}

// Alloc allocates an array of n elements (capacity n) and returns its
// handle. Allocation is first-fit from the free list, else bump allocation.
func (a *refArena) Alloc(n int) (int32, error) {
	if n < 0 {
		return 0, fmt.Errorf("negative array length %d", n)
	}
	off, err := a.allocBlock(headerCells + n)
	if err != nil {
		return 0, err
	}
	a.cells[off] = float64(n)
	a.cells[off+1] = float64(n)
	for i := 0; i < n; i++ {
		a.cells[off+headerCells+i] = 0
	}
	h := int32(len(a.handles))
	a.handles = append(a.handles, off)
	return h, nil
}

func (a *refArena) allocBlock(need int) (int, error) {
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
	return off, nil
}

// freeRange returns [off, off+size) to the free list, kept sorted by
// offset with adjacent blocks coalesced (and the top block folded back
// into the bump pointer), so allocation churn cannot fragment the arena
// to death.
func (a *refArena) freeRange(off, size int) {
	if size < minFreeCells {
		return
	}
	for i := 0; i < size; i++ {
		a.cells[off+i] = 0
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
func (a *refArena) validHandle(h int32) bool {
	return h >= 0 && int(h) < len(a.handles)
}

// HandleCount returns the number of live array handles.
func (a *refArena) HandleCount() int { return len(a.handles) }

// Elems returns the payload base address ("elements pointer") of array h.
// ok is false for an invalid handle — the caller decides whether that is a
// bailout or a crash.
func (a *refArena) Elems(h int32) (int, bool) {
	if !a.validHandle(h) {
		return 0, false
	}
	return a.handles[h] + headerCells, true
}

// Length returns the (trusted) length header of array h.
func (a *refArena) Length(h int32) (int, bool) {
	if !a.validHandle(h) {
		return 0, false
	}
	return int(a.cells[a.handles[h]]), true
}

// Capacity returns the capacity header of array h.
func (a *refArena) Capacity(h int32) (int, bool) {
	if !a.validHandle(h) {
		return 0, false
	}
	return int(a.cells[a.handles[h]+1]), true
}

// LengthAt loads the length cell relative to an elements pointer, as the
// MIR initializedlength instruction does.
func (a *refArena) LengthAt(elems int) (float64, *CrashError) {
	return a.RawLoad(elems - headerCells)
}

// Get reads element idx of array h with interpreter semantics: indices in
// [0, length) are a trusted raw access (the length header is believed, as
// real engines believe the elements header — this is what turns a corrupted
// length into a read primitive); anything else reads as a hole.
// The second result is false when the access was a hole (undefined).
func (a *refArena) Get(h int32, idx int) (float64, bool, *CrashError) {
	if !a.validHandle(h) {
		return 0, false, nil
	}
	off := a.handles[h]
	length := int(a.cells[off])
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
func (a *refArena) Set(h int32, idx int, v float64) *CrashError {
	if !a.validHandle(h) || idx < 0 {
		return nil
	}
	off := a.handles[h]
	length := int(a.cells[off])
	capacity := int(a.cells[off+1])
	switch {
	case idx < length:
		return a.RawStore(off+headerCells+idx, v)
	case idx < capacity:
		a.cells[off+headerCells+idx] = v
		a.cells[off] = float64(idx + 1)
		return nil
	default:
		if err := a.grow(h, idx+1); err != nil {
			// Treat allocation failure during growth as a crash so scripts
			// cannot continue with a half-grown array.
			return a.fault(a.top, "grow")
		}
		off = a.handles[h]
		a.cells[off+headerCells+idx] = v
		a.cells[off] = float64(idx + 1)
		return nil
	}
}

// grow reallocates array h to capacity at least need, moving its payload.
func (a *refArena) grow(h int32, need int) error {
	off := a.handles[h]
	length := int(a.cells[off])
	capacity := int(a.cells[off+1])
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
	a.cells[newOff] = float64(length)
	a.cells[newOff+1] = float64(newCap)
	copy(a.cells[newOff+headerCells:newOff+headerCells+copyN], a.cells[off+headerCells:off+headerCells+copyN])
	for i := copyN; i < newCap; i++ {
		a.cells[newOff+headerCells+i] = 0
	}
	a.handles[h] = newOff
	a.freeRange(off, headerCells+capacity)
	return nil
}

// SetLength implements `arr.length = n`. Shrinking reclaims the tail cells
// into the free list (capacity shrinks with length); growing within capacity
// just writes the header (new slots read as holes); growing beyond capacity
// reallocates.
func (a *refArena) SetLength(h int32, n int) error {
	if !a.validHandle(h) {
		return nil
	}
	if n < 0 {
		return fmt.Errorf("invalid array length %d", n)
	}
	off := a.handles[h]
	length := int(a.cells[off])
	capacity := int(a.cells[off+1])
	switch {
	case n == length:
		return nil
	case n < length:
		tail := capacity - n
		if tail >= minFreeCells {
			a.freeRange(off+headerCells+n, tail)
			a.cells[off+1] = float64(n)
		}
		a.cells[off] = float64(n)
		return nil
	case n <= capacity:
		for i := length; i < n; i++ {
			a.cells[off+headerCells+i] = 0
		}
		a.cells[off] = float64(n)
		return nil
	default:
		if err := a.grow(h, n); err != nil {
			return err
		}
		a.cells[a.handles[h]] = float64(n)
		return nil
	}
}

// Push appends v, growing if needed, and returns the new length.
func (a *refArena) Push(h int32, v float64) (int, error) {
	if !a.validHandle(h) {
		return 0, fmt.Errorf("push on invalid handle %d", h)
	}
	off := a.handles[h]
	length := int(a.cells[off])
	capacity := int(a.cells[off+1])
	if length >= capacity {
		if err := a.grow(h, length+1); err != nil {
			return 0, err
		}
		off = a.handles[h]
	}
	a.cells[off+headerCells+length] = v
	a.cells[off] = float64(length + 1)
	return length + 1, nil
}

// Pop removes and returns the last element. ok is false on an empty array
// (the result is then a hole/undefined).
func (a *refArena) Pop(h int32) (float64, bool) {
	if !a.validHandle(h) {
		return 0, false
	}
	off := a.handles[h]
	length := int(a.cells[off])
	if length <= 0 {
		return 0, false
	}
	v := a.cells[off+headerCells+length-1]
	a.cells[off] = float64(length - 1)
	return v, true
}

// FreeBlocks returns the number of tracked free blocks (for tests and
// diagnostics).
func (a *refArena) FreeBlocks() int { return len(a.free) }
