package engine

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"

	"github.com/jitbull/jitbull/internal/faults"
	"github.com/jitbull/jitbull/internal/jitqueue"
	"github.com/jitbull/jitbull/internal/mc"
	"github.com/jitbull/jitbull/internal/obs"
	"github.com/jitbull/jitbull/internal/octane"
	"github.com/jitbull/jitbull/internal/passes"
	"github.com/jitbull/jitbull/internal/value"
)

// The call boundary, cell against cell. A call from one compiled function
// to another stays in machine code where the tier exists (mc's emitCall)
// and walks RuntimeOp → CallFunction → dispatch → execNative in every
// other cell; everything a script, the budget or the engine's counters can
// observe must be the same either way.

// boundaryRun is what one run of a script leaves behind.
type boundaryRun struct {
	err      string
	result   string
	global   string
	steps    int64
	native   int64 // the share of steps native code executed
	checks   int64 // block-level budget checks (fused discipline, all tiers)
	stats    Stats
	hijacked bool
	direct   int64 // calls that stayed in generated code (not compared)
	unwinds  int64
}

func runBoundary(t *testing.T, src string, cfg Config, out io.Writer) boundaryRun {
	t.Helper()
	cfg.Out = out
	e, err := New(src, cfg)
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	return finishBoundary(e)
}

func finishBoundary(e *Engine) boundaryRun {
	// Every call the top-level script makes must find the call depth at
	// zero and the register stack empty: whatever the previous call nested,
	// directly or through Go, has been given back.
	_, _, _, depth := e.VM.Cells()
	nesting, leak := 0, ""
	e.VM.Dispatch = dispatchFunc(func(idx int, args []value.Value) (value.Value, error) {
		if nesting == 0 && leak == "" {
			if *depth != 0 {
				leak = fmt.Sprintf("call depth %d before a top-level call", *depth)
			} else if top, _ := e.pool.Top(); top != nil && *top != 0 {
				leak = fmt.Sprintf("register stack at %d before a top-level call", *top)
			}
		}
		nesting++
		v, err := e.CallFunction(idx, args)
		nesting--
		return v, err
	})
	v, runErr := e.Run()
	r := boundaryRun{
		result:   v.ToString(),
		global:   e.Global("result").ToString(),
		steps:    e.VM.Steps(),
		native:   e.VM.NativeSteps(),
		checks:   e.MetricsSink().Counter("native.block_budget_checks").Value(),
		stats:    e.Stats(),
		hijacked: e.Hijacked() != nil,
	}
	if runErr != nil {
		r.err = runErr.Error()
	}
	if leak != "" {
		r.err += " [leak: " + leak + "]"
	}
	if e.mcEnv != nil {
		r.direct, r.unwinds = e.mcEnv.Calls()
	}
	return r
}

// sameBoundary compares two cells; the executor attribution of an install
// (TierMC / TierFused) is the one thing that may differ.
func sameBoundary(t *testing.T, what string, a, b boundaryRun) {
	t.Helper()
	sa, sb := a.stats, b.stats
	sa.TierMC, sa.TierFused, sa.TierSwitch = 0, 0, 0
	sb.TierMC, sb.TierFused, sb.TierSwitch = 0, 0, 0
	if a.err != b.err || a.result != b.result || a.global != b.global ||
		a.steps != b.steps || a.native != b.native || a.checks != b.checks || sa != sb || a.hijacked != b.hijacked {
		t.Errorf("%s:\n  mc:   err=%q result=%s global=%s steps=%d (native %d) checks=%d hijacked=%v %+v\n  nomc: err=%q result=%s global=%s steps=%d (native %d) checks=%d hijacked=%v %+v",
			what, a.err, a.result, a.global, a.steps, a.native, a.checks, a.hijacked, sa,
			b.err, b.result, b.global, b.steps, b.native, b.checks, b.hijacked, sb)
	}
}

// boundaryCase is one script of the suite. Every script runs with and
// without the machine-code tier, plain and with call-result speculation.
type boundaryCase struct {
	name string
	src  string
	bugs passes.BugSet
	// What the script must exercise for the case to mean anything, checked
	// in the plain mc cell.
	direct   bool // calls stay in generated code
	unwinds  bool // and some callee had to be finished by Go
	bailouts bool
	deopts   bool // checked in the Speculate cell
	storm    bool // so is this: a deopt storm requalified a function
	errLike  string
}

var boundaryCases = []boundaryCase{
	{
		name: "number-result",
		src: `
function add(a, b) { return a + b * 2; }
function hot(n) { var s = 0; for (var i = 0; i < n; i++) { s = add(s, i) % 1000003; } return s; }
var result = 0;
for (var r = 0; r < 40; r++) { result = (result + hot(50)) % 1000003; }`,
		direct: true,
	},
	{
		name: "object-result-and-object-argument",
		src: `
function pick(a, b, k) { if (k % 2 == 0) { return a; } return b; }
function hot(a, b, n) { var s = 0; for (var i = 0; i < n; i++) { var c = pick(a, b, i); s = (s + c[i % 4]) % 1000003; } return s; }
var x = [1, 2, 3, 4];
var y = [50, 60, 70, 80];
var result = 0;
for (var r = 0; r < 40; r++) { result = (result + hot(x, y, 40)) % 1000003; }`,
		direct: true,
	},
	{
		name: "undefined-result-is-coerced",
		src: `
var g = 0;
function bump(a) { g = g + a; }
function hot(n) { var s = 0; for (var i = 0; i < n; i++) { var c = bump(i); if (c) { s = s + 1; } s = s + 2; } return s; }
var result = 0;
for (var r = 0; r < 40; r++) { result = (result + hot(30)) % 1000003; }
result = result + g;`,
		direct: true, unwinds: false,
	},
	{
		// f is compiled for two numbers; cold's call site passes one. Through
		// Go the missing parameter is undefined and f's parameter guard bails
		// to the interpreter; the direct path must not let f see the 7 that g
		// left where its second parameter lives.
		name: "fewer-arguments-than-parameters",
		src: `
function f(a, b) { if (b) { return a + b; } return a + 1; }
function g(a, b) { return a + b; }
function hot(n) { var s = 0; for (var i = 0; i < n; i++) { s = (s + g(i, 7) + f(i, 2)) % 1000003; } return s; }
function cold(n) { var s = 0; for (var i = 0; i < n; i++) { s = (s + g(i, 7) + f(i)) % 1000003; } return s; }
var result = 0;
for (var r = 0; r < 40; r++) { result = (result + hot(30)) % 1000003; }
for (var r = 0; r < 22; r++) { result = (result + cold(1)) % 1000003; }`,
		direct: true, bailouts: true,
	},
	{
		name: "more-arguments-than-parameters",
		src: `
function f(a) { return a * 3; }
function hot(n) { var s = 0; for (var i = 0; i < n; i++) { s = (s + f(i, s, 7)) % 1000003; } return s; }
var result = 0;
for (var r = 0; r < 40; r++) { result = (result + hot(30)) % 1000003; }`,
	},
	{
		// The callee is compiled for an index inside the array; the compiled
		// caller then hands it one outside. The bounds guard bails after the
		// callee has bumped the global, and the interpreter re-runs the call
		// from the caller's registers: it must see the arguments of this
		// call, whatever the callee did to its own copies.
		name: "callee-bails-on-a-guard",
		src: `
var seen = 0;
function probe(a, i) { seen = seen + i; i = i + 0; return a[i] + 1; }
function hot(a, n, off) { var s = 0; for (var i = 0; i < n; i++) { var c = probe(a, i % 3 + off); if (c) { s = (s + c) % 1000003; } } return s; }
var arr = [5, 6, 7];
var result = 0;
for (var r = 0; r < 40; r++) { result = (result + hot(arr, 20, 0)) % 1000003; }
for (var r = 0; r < 5; r++) { result = (result + hot(arr, 10, 40)) % 1000003; }
result = result + seen;`,
		direct: true, unwinds: true, bailouts: true,
	},
	{
		name: "callee-result-deopts-the-caller",
		src: `
function flip(p, q) { if (p < 25) { return (q * 2 + p) % 1000003; } return; }
function hot(n) { var s = 0; var i = 0; while (i < n) { var c = flip(i, s); if (c) { s = (s + c + i) % 1000003; } i = i + 1; } return s; }
var result = 0;
for (var r = 0; r < 40; r++) { result = (result + hot(20)) % 1000003; }
for (var r = 0; r < 3; r++) { result = (result + hot(40)) % 1000003; }`,
		direct: true, deopts: true,
	},
	{
		name: "callee-crashes-on-an-unmapped-access",
		bugs: passes.BugSet{"CVE-2019-9810": true},
		src: `
function reader(a, b, idx) {
  var t = b[idx + 1] + b[idx + 2];
  var u = a[idx] + a[idx + 3];
  var s = a[idx] + a[idx + 3];
  return t + u - s;
}
function drive(a, b, idx, n) { var s = 0; for (var i = 0; i < n; i++) { s = s + reader(a, b, idx); } return s; }
var big = new Array(30000);
var small = new Array(8);
var result = 0;
for (var i = 0; i < 60; i++) { result += drive(small, big, 3, 4); }
result += drive(small, big, 25000, 2);`,
		direct: true, unwinds: true, errLike: "segmentation fault",
	},
	{
		name: "recursion-to-the-depth-limit",
		src: `
function f(n) { return f(n + 1) + 1; }
var result = f(0);`,
		direct: true, unwinds: true, errLike: "maximum call depth exceeded",
	},
	{
		// The limit falls inside a chain of direct calls: an interpreted
		// recursion (=== keeps deep out of the JIT) uses up all but a few
		// levels without touching the frame stack, then compiled code goes on
		// calling itself directly.
		name: "depth-limit-inside-a-direct-chain",
		src: `
function leaf(a) { return a + 1; }
function chain(k, a) { if (k <= 0) { return a; } return chain(k - 1, leaf(a)) + 1; }
function deep(n, k) { if (n === undefined) { return 0; } if (n <= 0) { return chain(k, 0); } return deep(n - 1, k) + 1; }
var result = 0;
for (var r = 0; r < 40; r++) { result = result + chain(3, r); }
result = result + deep(9900, 20);
result = result + deep(9985, 20);`,
		direct: true, unwinds: true, errLike: "maximum call depth exceeded",
	},
	{
		// Deeper than the frame stack: the first frameDepth levels of a chain
		// are direct, the next call goes through Go, whose entry starts the
		// next chain — and the whole tower must unwind level by level.
		name: "recursion-through-the-frame-stack",
		src: `
function down(n) { if (n <= 0) { return 0; } return down(n - 1) + 1; }
var warm = 0;
for (var i = 0; i < 50; i++) { warm += down(5); }
var result = down(5000);`,
		direct: true,
	},
	{
		// Wide activations: some fifty levels fill the register pool's chunk
		// before the frame stack is full, so a direct call finds no room
		// behind its caller's window and must leave the lease to Go, which
		// opens the next chunk.
		name: "recursion-across-a-register-chunk",
		src: `
function wide(n, a) {
  if (n <= 0) { return a; }
  var b = a + 1; var c = b * 2; var d = c + b; var e = d * 3; var f = e - c; var g = f + d;
  var h = g * 2; var i = h - e; var j = i + f; var k = j * 2; var l = k - g; var m = l + h;
  var o = m * 2; var p = o - i; var q = p + j; var u = q - k; var v = u + l; var w = v - m;
  var r = wide(n - 1, a + 1);
  return (r + b + c + d + e + f + g + h + i + j + k + l + m + o + p + q + u + v + w) % 1000003;
}
var result = 0;
for (var t = 0; t < 30; t++) { result = (result + wide(2, t)) % 1000003; }
result = (result + wide(60, 1)) % 1000003;
result = (result + wide(130, 2)) % 1000003;`,
		direct: true,
	},
	{
		// A deopt storm inside a recursion: the activation that trips the
		// limit discards and requalifies the artifact its own callers are
		// still running. (Calls are speculated only inside a loop.)
		name: "deopt-storm-inside-a-recursion",
		src: `
function flip(p) { if (p % 7 != 3) { return p + 1; } return; }
function walk(n, acc) {
  if (n <= 0) { return acc; }
  var k = 0;
  while (k < 1) { var c = flip(n); if (c) { acc = (acc + c) % 1000003; } k = k + 1; }
  return walk(n - 1, acc + 1);
}
var result = 0;
for (var r = 0; r < 30; r++) { result = (result + walk(2, r)) % 1000003; }
for (var r = 0; r < 6; r++) { result = (result + walk(90, r)) % 1000003; }`,
		direct: true, deopts: true, storm: true,
	},
}

func TestCallBoundary(t *testing.T) {
	for _, tc := range boundaryCases {
		for _, spec := range []bool{false, true} {
			name := tc.name
			if spec {
				name += "/speculate"
			}
			t.Run(name, func(t *testing.T) {
				cfg := Config{IonThreshold: 10, BaselineThreshold: 4, Bugs: tc.bugs, Speculate: spec}
				ringWith, ringWithout := obs.NewRing(0), obs.NewRing(0)
				cfg.Tracer = obs.NewTracer(ringWith)
				with := runBoundary(t, tc.src, cfg, nil)
				cfg.NoMC, cfg.Tracer = true, obs.NewTracer(ringWithout)
				without := runBoundary(t, tc.src, cfg, nil)
				sameBoundary(t, "mc vs NoMC", with, without)
				// A guard bailout is stated once wherever the callee ran, and
				// as often as the counter says.
				if a, b := countEvents(ringWith, obs.FactBailout), countEvents(ringWithout, obs.FactBailout); a != b || a != with.stats.Bailouts {
					t.Errorf("bailout facts: mc %d, NoMC %d, Stats.Bailouts %d", a, b, with.stats.Bailouts)
				}

				if tc.errLike == "" && with.err != "" {
					t.Fatalf("script failed: %s", with.err)
				}
				if !strings.Contains(with.err, tc.errLike) {
					t.Fatalf("error %q, want one containing %q", with.err, tc.errLike)
				}
				if tc.bailouts && with.stats.Bailouts == 0 {
					t.Errorf("no bailout: %+v", with.stats)
				}
				if tc.deopts && spec && with.stats.DeoptExits == 0 {
					t.Errorf("no deopt exit: %+v", with.stats)
				}
				if tc.storm && spec && with.stats.LoopsRequalified == 0 {
					t.Errorf("no deopt storm: %+v", with.stats)
				}
				if !mc.Supported() {
					return
				}
				if tc.direct && with.direct == 0 {
					t.Errorf("no call stayed in generated code")
				}
				if tc.unwinds && with.unwinds == 0 {
					t.Errorf("no direct callee was finished by Go (%d direct calls)", with.direct)
				}
			})
		}
	}
}

func countEvents(ring *obs.Ring, name string) int {
	n := 0
	for _, ev := range ring.Events() {
		if ev.Name == name {
			n++
		}
	}
	return n
}

// TestCallBoundaryBudgetSweep exhausts the step budget at every possible
// point of a script whose calls go direct: the error, the result and the
// step count must not depend on which side of the boundary ran out.
func TestCallBoundaryBudgetSweep(t *testing.T) {
	src := `
var g = 0;
function leaf(a, b) { g = g + 1; return (a * 3 + b) % 1000003; }
function mid(a, n) { var s = a; for (var i = 0; i < n; i++) { s = leaf(s, i); } return s; }
function hot(n) { var s = 0; for (var i = 0; i < n; i++) { s = (s + mid(i, 3)) % 1000003; } return s; }
var result = 0;
for (var r = 0; r < 12; r++) { result = (result + hot(6)) % 1000003; }`
	cfg := Config{IonThreshold: 3, BaselineThreshold: 2, HeapCells: 1 << 10}
	full := runBoundary(t, src, cfg, nil)
	if full.err != "" {
		t.Fatal(full.err)
	}
	if mc.Supported() && full.direct == 0 {
		t.Fatal("no call stayed in generated code")
	}
	for max := int64(1); max <= full.steps; max++ {
		cfg := cfg
		cfg.MaxSteps = max
		with := runBoundary(t, src, cfg, nil)
		cfg.NoMC = true
		without := runBoundary(t, src, cfg, nil)
		sameBoundary(t, fmt.Sprintf("MaxSteps=%d", max), with, without)
		if max < full.steps && with.err == "" {
			t.Fatalf("MaxSteps=%d of %d: no budget error", max, full.steps)
		}
		if t.Failed() {
			return
		}
	}
}

// pokeWriter overwrites the arena code pointer of one function the first
// time the script prints.
type pokeWriter struct {
	e  *Engine
	fn int
}

func (w *pokeWriter) Write(p []byte) (int, error) {
	a := w.e.Arena()
	a.RawStore(a.CodeBase()+w.fn, 1234.5)
	return len(p), nil
}

// TestDirectCallAfterCodePointerOverwrite is the hijack oracle at the
// direct boundary: the callee's arena code pointer is overwritten between
// two direct calls of one caller activation, and the second call must
// raise the HijackError dispatch raises — the control-flow-hijack outcome
// the vulnerability-window experiments count.
func TestDirectCallAfterCodePointerOverwrite(t *testing.T) {
	src := `
function add(a, b) { return a + b; }
function poke() { print(1); return 0; }
function hot(n, when) {
  var s = 0;
  for (var i = 0; i < n; i++) {
    s = add(s, i);
    if (i == when) { s = s + poke(); }
    s = add(s, 1);
  }
  return s;
}
var result = 0;
for (var r = 0; r < 40; r++) { result = result + hot(10, -1); }
result = result + hot(10, 5);`
	run := func(noMC bool) boundaryRun {
		e, err := New(src, Config{IonThreshold: 10, BaselineThreshold: 4, NoMC: noMC})
		if err != nil {
			t.Fatal(err)
		}
		for i, st := range e.fns {
			if st.fn.Name == "add" {
				e.VM.Out = &pokeWriter{e: e, fn: i}
			}
		}
		return finishBoundary(e)
	}
	with, without := run(false), run(true)
	sameBoundary(t, "mc vs NoMC", with, without)
	if !with.hijacked || !strings.Contains(with.err, "control-flow hijack: code pointer of add") {
		t.Fatalf("hijacked=%v err=%q, want the HijackError for add", with.hijacked, with.err)
	}
	if mc.Supported() && with.direct == 0 {
		t.Fatal("no call stayed in generated code")
	}
}

// TestBudgetLeftoverOfZero pins the budget escape: a native activation
// entered with nothing left of the step budget used to run without any
// limit (every executor reads a budget of zero or less as "none"). The
// sweep puts the exhaustion point on every step of a script; the last
// call — three million iterations — must never start with a free hand.
func TestBudgetLeftoverOfZero(t *testing.T) {
	src := `
function spin(n) { var s = 0; for (var i = 0; i < n; i++) { s = s + i; } return s; }
var result = 0;
for (var r = 0; r < 200; r++) { result = result + spin(1); }
result = result + spin(3000000);`
	type cell struct {
		name string
		cfg  Config
	}
	cells := []cell{
		{"mc", Config{IonThreshold: 100, HeapCells: 1 << 10}},
		{"nomc", Config{IonThreshold: 100, HeapCells: 1 << 10, NoMC: true}},
		{"nomc-nofuse", Config{IonThreshold: 100, HeapCells: 1 << 10, NoMC: true, NoFuse: true}},
	}
	last := int64(12000)
	if testing.Short() {
		last = 7400 // still crosses the first native call and the exact-zero point
	}
	for max := int64(1); max <= last; max++ {
		var first boundaryRun
		for i, c := range cells {
			cfg := c.cfg
			cfg.MaxSteps = max
			r := runBoundary(t, src, cfg, nil)
			if r.err == "" {
				t.Fatalf("MaxSteps=%d %s: no budget error", max, c.name)
			}
			if over := r.steps - max; over > 1 {
				t.Fatalf("MaxSteps=%d %s: ran %d steps past the budget (%s)", max, c.name, over, r.err)
			}
			if i == 0 {
				first = r
			} else if r.err != first.err || r.steps != first.steps {
				t.Fatalf("MaxSteps=%d: %s err=%q steps=%d, %s err=%q steps=%d",
					max, cells[0].name, first.err, first.steps, c.name, r.err, r.steps)
			}
		}
	}
}

// TestDirectCallsAreTaken is the "fast path is really taken" guard: a table
// that silently stays empty would pass every equivalence test. NavierStokes
// at scale 1 makes nearly all its calls (IX from the grid kernels) out of
// machine code; at least nine in ten of those must stay there, and fewer
// than one in a hundred may need Go to finish the callee.
func TestDirectCallsAreTaken(t *testing.T) {
	if !mc.Supported() {
		t.Skip("no machine-code tier on this platform")
	}
	navier, err := octane.ByName("NavierStokes")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	e, err := New(navier.Source(1), Config{IonThreshold: 100, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	// Calls the interpreter issues come through the VM's dispatcher; calls
	// issued below it (by native code) do not.
	fromInterp := 0
	e.VM.Dispatch = dispatchFunc(func(idx int, args []value.Value) (value.Value, error) {
		fromInterp++
		return e.CallFunction(idx, args)
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, st := range e.fns {
		total += st.calls
	}
	fromNative := int64(total - fromInterp)
	direct, unwinds := e.mcEnv.Calls()
	t.Logf("calls=%d from native code=%d direct=%d unwinds=%d", total, fromNative, direct, unwinds)
	if direct*10 < fromNative*9 {
		t.Errorf("direct calls %d < 90%% of the %d calls issued by native code", direct, fromNative)
	}
	if unwinds*100 >= fromNative {
		t.Errorf("call unwinds %d >= 1%% of the %d calls issued by native code", unwinds, fromNative)
	}
	if got := reg.Counter("mc.direct_calls").Value(); got != direct {
		t.Errorf("mc.direct_calls = %d, environment counted %d", got, direct)
	}
	if got := reg.Counter("mc.call_unwinds").Value(); got != unwinds {
		t.Errorf("mc.call_unwinds = %d, environment counted %d", got, unwinds)
	}
}

// TestCallTableFollowsTheEngine: a slot holds an entry exactly while a
// dispatch of the function would go straight to its unit — never without
// one, never while a background compilation is in flight. The run compiles
// in the background and goes through a deopt storm (discard, requalify,
// recompile), and the whole table is checked at every call the interpreter
// issues and once more at the end; with an injector configured it stays
// empty throughout.
func TestCallTableFollowsTheEngine(t *testing.T) {
	if !mc.Supported() {
		t.Skip("no machine-code tier on this platform")
	}
	src := `
function flip(p, q) { if (p < 300) { return (q + p * 2) % 1000003; } return; }
function hot(n) { var s = 0; var i = 0; while (i < n) { var c = flip(i, s); if (c) { s = (s + c) % 1000003; } i = i + 1; } return s; }
function outer(n) { return hot(n) + 1; }
var result = 0;
for (var r = 0; r < 60; r++) { result = (result + outer(400)) % 1000003; }`
	q := jitqueue.New(2, 16, nil)
	defer q.Close()
	for _, inj := range []*faults.Injector{nil, faults.NewInjector(1)} {
		e, err := New(src, Config{IonThreshold: 10, BaselineThreshold: 4, OSR: true, Speculate: true, Queue: q, Faults: inj})
		if err != nil {
			t.Fatal(err)
		}
		published := 0
		check := func() {
			for i, st := range e.fns {
				on := e.mcEnv.Published(i)
				if on {
					published++
				}
				if want := st.mcu != nil && !st.inflight && inj == nil; on != want {
					t.Fatalf("%s: slot published=%v with unit=%v inflight=%v injector=%v",
						st.fn.Name, on, st.mcu != nil, st.inflight, inj != nil)
				}
			}
		}
		e.VM.Dispatch = dispatchFunc(func(idx int, args []value.Value) (value.Value, error) {
			check()
			// The script runs for a few milliseconds; on a loaded box the
			// workers may not get a CPU in that time. Wait for what is in
			// flight, so the installs (and the storm behind them) happen
			// while there is still a run to have them in.
			for _, st := range e.fns {
				for st.inflight && st.pending.Load() == nil {
					runtime.Gosched()
				}
			}
			v, err := e.CallFunction(idx, args)
			check()
			return v, err
		})
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		check()
		st := e.Stats()
		if st.AsyncInstalls == 0 || st.LoopsRequalified == 0 {
			t.Fatalf("the run must install from the queue and go through a deopt storm: %+v", st)
		}
		if inj == nil && published == 0 {
			t.Fatal("no slot was ever published")
		}
	}
}

type dispatchFunc func(idx int, args []value.Value) (value.Value, error)

func (f dispatchFunc) CallFunction(idx int, args []value.Value) (value.Value, error) {
	return f(idx, args)
}
