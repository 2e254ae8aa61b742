//go:build !(amd64 && (linux || darwin))

package mc

import (
	"github.com/jitbull/jitbull/internal/interp"
	"github.com/jitbull/jitbull/internal/lir"
	"github.com/jitbull/jitbull/internal/native"
	"github.com/jitbull/jitbull/internal/obs"
	"github.com/jitbull/jitbull/internal/value"
)

// Supported reports whether this build can execute machine code. The
// lowering and encoder still compile and test on every platform; only
// install/execute are gated.
func Supported() bool { return false }

// Unit exists so the engine's wiring typechecks on unsupported platforms;
// no value of this type is ever created (Install always fails), so the
// methods are unreachable.
type Unit struct{}

// Env exists for the same reason: with no unit to publish, an engine on an
// unsupported platform never builds one.
type Env struct{}

// NewEnv is unreachable (the engine builds an environment only where the
// tier is supported).
func NewEnv(host Host, pool *native.Pool, vm *interp.VM, nfuncs int) *Env { return nil }

// Publish is unreachable.
func (env *Env) Publish(fn int, u *Unit, calls *int) {}

// Published is unreachable.
func (env *Env) Published(fn int) bool { return false }

// Calls is unreachable.
func (env *Env) Calls() (direct, unwinds int64) { return 0, 0 }

// Install refuses on unsupported platforms; the engine degrades to the
// threaded tier silently.
func Install(prog *Program) (*Unit, error) { return nil, ErrUnsupported }

// Compile refuses on unsupported platforms.
func Compile(code *lir.Code) (*Unit, error) { return nil, ErrUnsupported }

// Exec is unreachable (no Unit is ever constructed here).
func (u *Unit) Exec(args []value.Value, h native.Hooks, maxOps int64, pool *native.Pool) (native.Result, native.Status, error) {
	return native.Result{}, native.StatusOK, ErrUnsupported
}

// ExecOSR is unreachable (no Unit is ever constructed here).
func (u *Unit) ExecOSR(entryIdx int, locals []value.Value, h native.Hooks, maxOps int64, pool *native.Pool) (native.Result, native.Status, error, bool) {
	return native.Result{}, native.StatusOK, nil, false
}

// Transitions is unreachable.
func (u *Unit) Transitions() []string { return nil }

// Track is unreachable.
func (u *Unit) Track(g *obs.Gauge) {}

// Release is unreachable.
func (u *Unit) Release() error { return nil }
