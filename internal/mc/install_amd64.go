//go:build amd64 && (linux || darwin)

package mc

import (
	"fmt"
	"os"
	"runtime"
	"syscall"
	"unsafe"

	"github.com/jitbull/jitbull/internal/lir"
	"github.com/jitbull/jitbull/internal/obs"
)

// Supported reports whether this build can execute machine code. The
// lowering and encoder work everywhere; execution needs amd64 plus an OS
// with the mmap/mprotect install path.
func Supported() bool { return true }

// Unit is installed, executable machine code for one function. The
// mapping is never writable and executable at the same time: Install maps
// RW, copies, then flips to RX (strict W^X), and the unit is immutable
// afterwards. Units are retired by dropping the reference: the mapping is
// unmapped by a finalizer once the unit is unreachable, and every
// activation keeps its unit reachable (see run), so pages go only when no
// pointer that could still execute them exists. Release unmaps early for
// callers that own the only reference.
type Unit struct {
	prog *Program
	mem  []byte
	base uintptr
	prot []string
	live *obs.Gauge // mapped bytes accounted by Track; nil-safe
}

// Install copies prog into a fresh page-aligned mapping with a strict
// W^X lifecycle and returns the executable unit.
func Install(prog *Program) (*Unit, error) {
	page := os.Getpagesize()
	n := (len(prog.Buf) + page - 1) &^ (page - 1)
	if n == 0 {
		n = page
	}
	mem, err := syscall.Mmap(-1, 0, n,
		syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mc: mmap: %w", err)
	}
	copy(mem, prog.Buf)
	if err := syscall.Mprotect(mem, syscall.PROT_READ|syscall.PROT_EXEC); err != nil {
		_ = syscall.Munmap(mem)
		return nil, fmt.Errorf("mc: mprotect: %w", err)
	}
	u := &Unit{
		prog: prog,
		mem:  mem,
		base: uintptr(unsafe.Pointer(unsafe.SliceData(mem))),
		prot: []string{"mmap:rw-", "mprotect:r-x"},
	}
	runtime.SetFinalizer(u, (*Unit).unmap)
	return u, nil
}

// Track adds the unit's mapped bytes to g now and subtracts them when the
// mapping goes (finalizer or Release), so g reads the bytes currently
// mapped on behalf of whoever shares it. Call at most once, before the
// unit is shared.
func (u *Unit) Track(g *obs.Gauge) {
	u.live = g
	g.Add(int64(len(u.mem)))
}

// Compile lowers and installs code in one step — the engine's entry point.
func Compile(code *lir.Code) (*Unit, error) {
	prog, err := Lower(code)
	if err != nil {
		return nil, err
	}
	return Install(prog)
}

// Transitions returns the recorded page-permission lifecycle, in order.
// There is never an rwx state to record.
func (u *Unit) Transitions() []string { return u.prot }

// Base returns the executable mapping's start address (for tests that
// cross-check /proc/self/maps).
func (u *Unit) Base() uintptr { return u.base }

// MappedLen returns the length of the executable mapping.
func (u *Unit) MappedLen() int { return len(u.mem) }

// Program returns the lowered program backing this unit.
func (u *Unit) Program() *Program { return u.prog }

// Release unmaps the unit now instead of at finalization. The caller must
// hold the only reference and have no activation running: nothing guards
// the pages after this returns. The engine never calls it — it retires
// units by dropping the reference.
func (u *Unit) Release() error {
	runtime.SetFinalizer(u, nil)
	return u.unmap()
}

// unmap is the one place a mapping is returned to the OS: the finalizer
// Install registers, or Release (which cancels the finalizer first, so it
// runs at most once per mapping; a second Release is a no-op).
func (u *Unit) unmap() error {
	mem := u.mem
	if mem == nil {
		return nil
	}
	u.mem, u.base = nil, 0
	u.live.Add(-int64(len(mem)))
	return syscall.Munmap(mem)
}
