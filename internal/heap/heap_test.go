package heap

import (
	"testing"
	"testing/quick"
)

func TestAllocAndAccess(t *testing.T) {
	a := New(1024)
	h, err := a.Alloc(4)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := a.Length(h); n != 4 {
		t.Fatalf("length = %d, want 4", n)
	}
	if c, _ := a.Capacity(h); c != 4 {
		t.Fatalf("capacity = %d, want 4", c)
	}
	if err := a.Set(h, 2, 3.5); err != nil {
		t.Fatal(err)
	}
	v, present, crash := a.Get(h, 2)
	if crash != nil || !present || v != 3.5 {
		t.Fatalf("Get = %v %v %v", v, present, crash)
	}
}

func TestHolesReadAsAbsent(t *testing.T) {
	a := New(1024)
	h, _ := a.Alloc(4)
	if _, present, _ := a.Get(h, 10); present {
		t.Error("read past length should be a hole")
	}
	if _, present, _ := a.Get(h, -1); present {
		t.Error("negative index should be a hole")
	}
}

func TestAdjacentAllocation(t *testing.T) {
	a := New(1024)
	h1, _ := a.Alloc(8)
	h2, _ := a.Alloc(8)
	e1, _ := a.Elems(h1)
	e2, _ := a.Elems(h2)
	// h2's header must sit immediately after h1's payload.
	if e2 != e1+8+2 {
		t.Fatalf("arrays not adjacent: elems %d and %d", e1, e2)
	}
}

func TestRawOOBWriteCorruptsNeighbourLength(t *testing.T) {
	a := New(1024)
	h1, _ := a.Alloc(8)
	h2, _ := a.Alloc(8)
	e1, _ := a.Elems(h1)
	// Simulate a JITed store whose bounds check was wrongly eliminated:
	// index 8 lands exactly on h2's length header.
	if crash := a.RawStore(e1+8, 1e9); crash != nil {
		t.Fatalf("in-heap raw store must not crash: %v", crash)
	}
	if n, _ := a.Length(h2); n != 1e9 {
		t.Fatalf("neighbour length = %d, want corrupted 1e9", n)
	}
}

func TestCorruptedLengthGivesReadPrimitive(t *testing.T) {
	a := New(1024)
	h1, _ := a.Alloc(8)
	h2, _ := a.Alloc(8)
	a.Set(h2, 0, 77)
	e1, _ := a.Elems(h1)
	e2, _ := a.Elems(h2)
	a.RawStore(e1+8, 1e9) // corrupt h2.length... wait, e1+8 is h2's header
	_ = e2
	// h2's length is now huge; interpreter-style Get trusts it, so h1 can't
	// but h2 can read far beyond its capacity — i.e. an arena read primitive.
	if n, _ := a.Length(h2); n != 1e9 {
		t.Fatal("setup failed")
	}
	v, present, crash := a.Get(h2, 0)
	if crash != nil || !present || v != 77 {
		t.Fatalf("sanity read failed: %v %v %v", v, present, crash)
	}
	// Reading within the mapped heap but outside h2's real capacity works.
	if _, present, crash := a.Get(h2, 100); a.Top() > e2+100 && (crash != nil || !present) {
		t.Fatalf("read primitive blocked: present=%v crash=%v", present, crash)
	}
}

func TestUnmappedAccessCrashes(t *testing.T) {
	a := New(256)
	h, _ := a.Alloc(4)
	e, _ := a.Elems(h)
	// Far beyond the allocation top, inside the unmapped gap.
	if crash := a.RawStore(e+200, 1); crash == nil {
		t.Fatal("store into unmapped gap must crash")
	}
	if a.Crashed() == nil {
		t.Fatal("crash must be recorded")
	}
	if _, crash := a.RawLoad(-5); crash == nil {
		t.Fatal("negative address must crash")
	}
}

func TestCodeRegionIntegrity(t *testing.T) {
	a := New(256)
	if a.CodeIntegrityViolation() != -1 {
		t.Fatal("fresh arena must have intact code region")
	}
	if !a.CodePointerOK(3) {
		t.Fatal("code pointer 3 must start intact")
	}
	// The code region is mapped: a precise OOB write can reach it (W^X
	// violation through the corrupted-array primitive).
	if crash := a.RawStore(a.CodeBase()+3, 123); crash != nil {
		t.Fatalf("write to code region: %v", crash)
	}
	if a.CodePointerOK(3) {
		t.Fatal("overwrite must be detected")
	}
	if a.CodeIntegrityViolation() != 3 {
		t.Fatalf("violation index = %d, want 3", a.CodeIntegrityViolation())
	}
}

func TestShrinkReclaimsTail(t *testing.T) {
	a := New(1024)
	h, _ := a.Alloc(12)
	if err := a.SetLength(h, 4); err != nil {
		t.Fatal(err)
	}
	if n, _ := a.Length(h); n != 4 {
		t.Fatalf("length = %d", n)
	}
	if c, _ := a.Capacity(h); c != 4 {
		t.Fatalf("capacity = %d, want shrunk to 4", c)
	}
	// The shrunken array was the top allocation, so its reclaimed tail
	// folds back into bump space (no tracked free block)...
	if a.FreeBlocks() != 0 {
		t.Fatalf("free blocks = %d, want 0 (tail folded into bump space)", a.FreeBlocks())
	}
	// ...and a following allocation still lands right inside the reclaimed
	// tail, adjacent to the shrunken array — the heap-grooming step of the
	// exploit chain.
	e, _ := a.Elems(h)
	h2, _ := a.Alloc(4)
	e2, _ := a.Elems(h2)
	if e2 != e+4+2 {
		t.Fatalf("groomed alloc at %d, want %d (inside reclaimed tail)", e2, e+4+2)
	}
}

func TestShrinkOfInteriorArrayTracksFreeBlock(t *testing.T) {
	a := New(1024)
	h, _ := a.Alloc(12)
	if _, err := a.Alloc(4); err != nil { // pin the top so the tail cannot fold
		t.Fatal(err)
	}
	if err := a.SetLength(h, 4); err != nil {
		t.Fatal(err)
	}
	if a.FreeBlocks() != 1 {
		t.Fatalf("free blocks = %d, want 1", a.FreeBlocks())
	}
	e, _ := a.Elems(h)
	h2, _ := a.Alloc(6)
	e2, _ := a.Elems(h2)
	if e2 != e+4+2 {
		t.Fatalf("groomed alloc at %d, want %d (inside reclaimed tail)", e2, e+4+2)
	}
}

func TestFreeListCoalesces(t *testing.T) {
	a := New(1 << 12)
	h1, _ := a.Alloc(20)
	h2, _ := a.Alloc(20)
	if _, err := a.Alloc(2); err != nil { // pin the top
		t.Fatal(err)
	}
	a.SetLength(h2, 2) // frees 18 cells
	a.SetLength(h1, 2) // frees 18 cells adjacent (after h1's new tail)... separate blocks
	// Churn: repeated grow/shrink must not leak arena space to
	// fragmentation.
	before := a.Top()
	for i := 0; i < 200; i++ {
		a.SetLength(h1, 40) // grow (realloc)
		a.SetLength(h1, 2)  // shrink
	}
	if a.Top() > before+200 {
		t.Fatalf("fragmentation leak: top grew from %d to %d", before, a.Top())
	}
}

func TestShrinkTooSmallTailKeepsCapacity(t *testing.T) {
	a := New(1024)
	h, _ := a.Alloc(5)
	a.SetLength(h, 4) // tail of 1 cell is below minFreeCells
	if c, _ := a.Capacity(h); c != 5 {
		t.Fatalf("capacity = %d, want unchanged 5", c)
	}
	if n, _ := a.Length(h); n != 4 {
		t.Fatalf("length = %d, want 4", n)
	}
}

func TestGrowWithinCapacityAfterShrinkViaSetLength(t *testing.T) {
	a := New(1024)
	h, _ := a.Alloc(8)
	a.Set(h, 5, 42)
	a.SetLength(h, 10) // grow within... capacity is 8, so this reallocates
	if n, _ := a.Length(h); n != 10 {
		t.Fatalf("length = %d", n)
	}
	v, present, _ := a.Get(h, 5)
	if !present || v != 42 {
		t.Fatalf("element lost across growth: %v %v", v, present)
	}
	if v, present, _ := a.Get(h, 9); !present || v != 0 {
		t.Fatalf("new slot should read as 0 (initialized), got %v %v", v, present)
	}
}

func TestSetBeyondCapacityGrows(t *testing.T) {
	a := New(1024)
	h, _ := a.Alloc(2)
	if err := a.Set(h, 10, 7); err != nil {
		t.Fatal(err)
	}
	if n, _ := a.Length(h); n != 11 {
		t.Fatalf("length = %d, want 11", n)
	}
	if v, present, _ := a.Get(h, 10); !present || v != 7 {
		t.Fatalf("grown element: %v %v", v, present)
	}
}

func TestSetBetweenLengthAndCapacityExtends(t *testing.T) {
	a := New(1024)
	h, _ := a.Alloc(8)
	a.SetLength(h, 2) // tail reclaimed? 8-2=6 >= 3 so capacity shrinks to 2
	h2, _ := a.Alloc(2)
	_ = h2
	// Fresh array with capacity > length via push-driven growth.
	h3, _ := a.Alloc(0)
	a.Push(h3, 1) // capacity grows to >= 4
	c, _ := a.Capacity(h3)
	if c < 4 {
		t.Fatalf("capacity after push = %d", c)
	}
	a.Set(h3, 2, 9) // within capacity, beyond length
	if n, _ := a.Length(h3); n != 3 {
		t.Fatalf("length = %d, want 3", n)
	}
}

func TestPushPop(t *testing.T) {
	a := New(1024)
	h, _ := a.Alloc(0)
	for i := 0; i < 10; i++ {
		if _, err := a.Push(h, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if n, _ := a.Length(h); n != 10 {
		t.Fatalf("length = %d", n)
	}
	for i := 9; i >= 0; i-- {
		v, ok := a.Pop(h)
		if !ok || v != float64(i) {
			t.Fatalf("pop %d: %v %v", i, v, ok)
		}
	}
	if _, ok := a.Pop(h); ok {
		t.Fatal("pop of empty array should report not-ok")
	}
}

func TestOOM(t *testing.T) {
	a := New(64)
	if _, err := a.Alloc(1000); err == nil {
		t.Fatal("expected OOM")
	}
	// The arena must still work after a failed allocation.
	h, err := a.Alloc(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Set(h, 0, 1); err != nil {
		t.Fatal(err)
	}
}

func TestFirstFitReusesFreedBlocks(t *testing.T) {
	a := New(1 << 10)
	h1, _ := a.Alloc(20)
	if _, err := a.Alloc(2); err != nil { // pin the top so the tail stays a tracked block
		t.Fatal(err)
	}
	topAfter := a.Top()
	a.SetLength(h1, 2) // frees 18 cells into the free list
	h2, _ := a.Alloc(10)
	if a.Top() != topAfter {
		t.Fatalf("allocation should have been served from the free list")
	}
	e1, _ := a.Elems(h1)
	e2, _ := a.Elems(h2)
	if e2 != e1+2+2 {
		t.Fatalf("h2 at %d, want carved at %d", e2, e1+4)
	}
}

func TestPropertyGetSetRoundTrip(t *testing.T) {
	a := New(1 << 14)
	h, err := a.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	f := func(idx uint8, v float64) bool {
		i := int(idx) % 64
		if err := a.Set(h, i, v); err != nil {
			return false
		}
		got, present, crash := a.Get(h, i)
		return crash == nil && present && (got == v || (got != got && v != v))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyLengthNeverNegative(t *testing.T) {
	a := New(1 << 14)
	h, _ := a.Alloc(16)
	f := func(n uint16) bool {
		if err := a.SetLength(h, int(n%200)); err != nil {
			return false
		}
		got, _ := a.Length(h)
		return got == int(n%200)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if err := a.SetLength(h, -1); err == nil {
		t.Error("negative length must be rejected")
	}
}

// corruptHeader allocates three adjacent four-element arrays in a 64 Ki
// arena and overwrites the middle one's header through the first one's
// elements pointer, as a JITed store with an eliminated bounds check would:
// the addresses its length and capacity now describe lie far past the
// allocation top, where no memory backs the heap.
func corruptHeader(t *testing.T, length, capacity float64) (a *Arena, h int32, elems int) {
	t.Helper()
	a = New(1 << 16)
	h0, _ := a.Alloc(4)
	h, _ = a.Alloc(4)
	if _, err := a.Alloc(4); err != nil {
		t.Fatal(err)
	}
	e0, _ := a.Elems(h0)
	if c := a.RawStore(e0+4, length); c != nil {
		t.Fatal(c)
	}
	if c := a.RawStore(e0+5, capacity); c != nil {
		t.Fatal(c)
	}
	elems, _ = a.Elems(h)
	return a, h, elems
}

// The arms that index the heap with offsets read from length/capacity cells
// and no memory-map check: Set's idx<capacity arm, Push's and Pop's element
// access, SetLength's zeroing of [length, n), freeRange's zeroing of a
// reclaimed tail, and grow's copy of the old payload. With a corrupted
// header they reach past the top: a silent access to cells every
// top-advancing path re-initialises before they can be read — never a Go
// panic or a recorded crash — and, aimed at the code region, a hijack.
func TestCorruptedHeaderReachesPastTheTop(t *testing.T) {
	const far = 40000
	unmapped := func(t *testing.T, a *Arena, addr int) {
		t.Helper()
		if a.Crashed() != nil {
			t.Fatalf("recorded a crash: %v", a.Crashed())
		}
		if addr < a.Top() || addr >= a.CodeBase() {
			t.Fatalf("address %d is mapped (top %d)", addr, a.Top())
		}
	}
	t.Run("Set/idx<capacity", func(t *testing.T) {
		a, h, elems := corruptHeader(t, 3, 50000)
		if crash := a.Set(h, far, 7); crash != nil {
			t.Fatal(crash)
		}
		if n, _ := a.Length(h); n != far+1 {
			t.Fatalf("length = %d, want %d", n, far+1)
		}
		unmapped(t, a, elems+far)
		// The cell is re-initialised by the allocation that maps it.
		big, err := a.Alloc(50000)
		if err != nil {
			t.Fatal(err)
		}
		e, _ := a.Elems(big)
		if v, present, crash := a.Get(big, elems+far-e); v != 0 || !present || crash != nil {
			t.Fatalf("stale cell read back: %v %v %v", v, present, crash)
		}
	})
	t.Run("Set/idx<capacity/code-region", func(t *testing.T) {
		a, h, elems := corruptHeader(t, 3, 1<<17)
		if crash := a.Set(h, a.CodeBase()+9-elems, 7); crash != nil {
			t.Fatal(crash)
		}
		if a.Crashed() != nil || a.CodePointerOK(9) || a.CodeIntegrityViolation() != 9 {
			t.Fatalf("crashed=%v ok(9)=%v violation=%d, want a silent overwrite of code pointer 9",
				a.Crashed(), a.CodePointerOK(9), a.CodeIntegrityViolation())
		}
	})
	t.Run("Push+Pop", func(t *testing.T) {
		a, h, elems := corruptHeader(t, far, 50000)
		if n, err := a.Push(h, 7); n != far+1 || err != nil {
			t.Fatalf("Push = %d, %v", n, err)
		}
		unmapped(t, a, elems+far)
		if v, ok := a.Pop(h); v != 7 || !ok {
			t.Fatalf("Pop = %v, %v, want the value Push left there", v, ok)
		}
		if v, ok := a.Pop(h); v != 0 || !ok {
			t.Fatalf("Pop = %v, %v, want 0 from a cell nothing wrote", v, ok)
		}
		unmapped(t, a, elems+far-1)
	})
	t.Run("SetLength/n<=capacity", func(t *testing.T) {
		a, h, elems := corruptHeader(t, 3, 50000)
		if err := a.SetLength(h, far); err != nil {
			t.Fatal(err)
		}
		if n, _ := a.Length(h); n != far {
			t.Fatalf("length = %d", n)
		}
		unmapped(t, a, elems+far-1)
	})
	t.Run("SetLength/shrink", func(t *testing.T) {
		a, h, elems := corruptHeader(t, 4, 50000)
		top := a.Top()
		if err := a.SetLength(h, 2); err != nil {
			t.Fatal(err)
		}
		// The "tail" [elems+2, elems+50000) is now a free block that runs
		// past the top and over the neighbour; first fit hands it out.
		if a.FreeBlocks() != 1 || a.Top() != top {
			t.Fatalf("free blocks = %d, top %d -> %d", a.FreeBlocks(), top, a.Top())
		}
		h2, err := a.Alloc(far)
		if err != nil {
			t.Fatal(err)
		}
		if e2, _ := a.Elems(h2); e2 != elems+2+2 || a.Top() != top {
			t.Fatalf("alloc at %d (top %d), want %d inside the bogus block", e2, a.Top(), elems+4)
		}
		if n, _ := a.Length(h2); n != far {
			t.Fatalf("length = %d", n)
		}
		unmapped(t, a, elems+far)
	})
	t.Run("grow/copy", func(t *testing.T) {
		// Room below: a free block large enough for the reallocation, so grow
		// is served first-fit and its source range [elems, elems+20000) —
		// length and capacity both corrupted — runs past the top.
		a := New(1 << 16)
		h0, _ := a.Alloc(45000)
		h, _ := a.Alloc(4)
		a.Set(h, 1, 11)
		if err := a.SetLength(h0, 0); err != nil {
			t.Fatal(err)
		}
		elems, _ := a.Elems(h)
		a.RawStore(elems-2, 20000)
		a.RawStore(elems-1, 20000)
		top := a.Top()
		if n, err := a.Push(h, 7); n != 20001 || err != nil {
			t.Fatalf("Push = %d, %v", n, err)
		}
		if e, _ := a.Elems(h); e >= elems || a.Top() != top {
			t.Fatalf("moved to %d (top %d -> %d), want first fit below %d", e, top, a.Top(), elems)
		}
		for idx, want := range map[int]float64{1: 11, 6: 0, 19999: 0, 20000: 7} {
			if v, present, crash := a.Get(h, idx); v != want || !present || crash != nil {
				t.Fatalf("Get(%d) = %v %v %v, want %v", idx, v, present, crash, want)
			}
		}
		unmapped(t, a, elems+19999)
	})
}
