// Parity across arena growth. The arena backs only the heap a script has
// allocated, so the array behind R12 moves whenever Go extends it — in a
// runtime op, or in a direct callee Go had to finish. These scripts run
// whole, through the engine, with and without the machine-code tier, and
// everything a script or the engine's counters can observe must agree.
package mc_test

import (
	"io"
	"strings"
	"testing"

	"github.com/jitbull/jitbull/internal/engine"
	"github.com/jitbull/jitbull/internal/mc"
)

// growthRun is what one run of a script leaves behind.
type growthRun struct {
	err      string
	result   string
	steps    int64
	native   int64
	stats    engine.Stats
	hijacked bool
	backed   int   // cells of heap the arena ended up backing
	direct   int64 // calls that stayed in generated code (mc only)
	unwinds  int64 // of which Go had to finish the callee
}

// runGrowth runs src with the machine-code tier on or off. hook, when set,
// is called each time the script prints, with the ordinal of the print.
func runGrowth(t *testing.T, src string, noMC bool, hook func(e *engine.Engine, nth int)) growthRun {
	t.Helper()
	e, err := engine.New(src, engine.Config{IonThreshold: 10, BaselineThreshold: 4, NoMC: noMC})
	if err != nil {
		t.Fatal(err)
	}
	e.VM.Out = io.Discard
	if hook != nil {
		prints := 0
		e.VM.Out = writerFunc(func() { prints++; hook(e, prints) })
	}
	_, runErr := e.Run()
	r := growthRun{
		result:   e.Global("result").ToString(),
		steps:    e.VM.Steps(),
		native:   e.VM.NativeSteps(),
		stats:    e.Stats(),
		hijacked: e.Hijacked() != nil,
		backed:   len(e.Arena().Cells()),
	}
	if runErr != nil {
		r.err = runErr.Error()
	}
	if env := e.MCEnv(); env != nil {
		r.direct, r.unwinds = env.Calls()
	}
	// Which executor an install went to is the one thing that may differ.
	r.stats.TierMC, r.stats.TierFused, r.stats.TierSwitch = 0, 0, 0
	return r
}

type writerFunc func()

func (f writerFunc) Write(p []byte) (int, error) { f(); return len(p), nil }

// checkGrowth runs src both ways and requires identical observables, and
// that the run meant something: the mc cell executed machine code, and the
// backing grew through at least minBacked cells on the way.
func checkGrowth(t *testing.T, src string, minBacked int, hook func(e *engine.Engine, nth int)) (with growthRun) {
	t.Helper()
	with, without := runGrowth(t, src, false, hook), runGrowth(t, src, true, hook)
	w, wo := with, without
	w.direct, w.unwinds, wo.direct, wo.unwinds = 0, 0, 0, 0
	if w != wo {
		t.Errorf("mc and NoMC disagree:\n  mc:   %+v\n  nomc: %+v", w, wo)
	}
	if with.native == 0 || with.backed < minBacked {
		t.Errorf("native steps %d, backing %d cells: want machine code running while the backing grows past %d",
			with.native, with.backed, minBacked)
	}
	return with
}

func TestParityArenaGrowth(t *testing.T) {
	if !mc.Supported() {
		t.Skip("no machine-code tier on this platform")
	}

	// A runtime op that allocates (push) in the middle of inline element
	// traffic: the loads and stores after each exit must see the cells the
	// ones before it wrote, wherever the backing is by then.
	t.Run("push-loop", func(t *testing.T) {
		with := checkGrowth(t, `
function fill(a, n) {
  var s = 0;
  for (var i = 0; i < n; i++) {
    a[0] = i;
    s = (s + a[0] * 3) % 1000003;
    a.push(s);
    s = (s + a[i + 1] + a[0]) % 1000003;
    a[i + 1] = s + 1;
    s = (s + a[i + 1]) % 1000003;
  }
  return s;
}
var result = 0;
for (var r = 0; r < 30; r++) { result = (result + fill([7], 5)) % 1000003; }
var big = [7];
result = (result + fill(big, 6000)) % 1000003;
result = (result + big[1] + big[3000] + big[6000] + big.length) % 1000003;`, 1<<14, nil)
		if with.err != "" {
			t.Fatalf("script error: %s", with.err)
		}
	})

	// A chain of direct calls whose innermost callee allocates: it exits to
	// Go inside the chain (unwind), Go finishes it and the callers (adopt),
	// and the outermost caller goes on reading and writing its own array
	// inline.
	t.Run("direct-callee-allocates", func(t *testing.T) {
		with := checkGrowth(t, `
function grow(b, n) { for (var j = 0; j < n; j++) { b.push(j); } return b.length; }
function mid(a, b, n) { return grow(b, n) % 7 + a[1]; }
function hot(a, b, n) {
  var s = 0;
  for (var i = 0; i < 20; i++) {
    a[i % 4] = i;
    s = (s + a[i % 4]) % 1000003;
    s = (s + mid(a, b, n)) % 1000003;
    s = (s + a[i % 4] * 5 + a[(i + 1) % 4]) % 1000003;
    a[(i + 1) % 4] = s;
  }
  return s;
}
var result = 0;
for (var r = 0; r < 30; r++) { result = (result + hot([1, 2, 3, 4], [], 2)) % 1000003; }
var keep = [1, 2, 3, 4];
var sink = [];
result = (result + hot(keep, sink, 600)) % 1000003;
result = (result + keep[0] + keep[3] + sink[11999] + sink.length) % 1000003;`, 1<<14, nil)
		if with.err != "" {
			t.Fatalf("script error: %s", with.err)
		}
		if with.direct == 0 || with.unwinds == 0 {
			t.Fatalf("direct calls %d, unwinds %d: the chain must stay in machine code and unwind", with.direct, with.unwinds)
		}
	})

	// An inline store that lands in the code region — the array's length was
	// corrupted, so the compiled bounds check passes — followed by a direct
	// call to the function whose code pointer it overwrote: the call site's
	// guard reads the code region through its own pointer and must raise the
	// hijack dispatch raises.
	t.Run("store-into-code-region", func(t *testing.T) {
		const trainingRounds = 40 // each prints once
		with := checkGrowth(t, `
function target(x) { return x + 1; }
function put(a, i, v) { a[i] = v; return a[1]; }
function poke() { print(1); return 0; }
function hot(a, n, where, when) {
  var s = 0;
  for (var k = 0; k < n; k++) {
    s = (s + target(k)) % 1000003;
    if (k == when) { s = s + poke(); s = s + put(a, where, 1337); }
    s = (s + target(s)) % 1000003;
  }
  return s;
}
var planted = [1, 2, 3, 4];
var filler = [];
for (var i = 0; i < 3000; i++) { filler.push(i); }
var result = 0;
for (var r = 0; r < 40; r++) { result = (result + hot(planted, 10, 2, r % 10)) % 1000003; planted[2] = 3; }
result = result + hot(planted, 10, __codebase() + 1 - __addrof(planted), 5);`, 1<<12, func(e *engine.Engine, nth int) {
			if nth > trainingRounds {
				a := e.Arena()
				elems, _ := a.Elems(0) // planted: the script's first allocation
				a.RawStore(elems-2, 1e9)
			}
		})
		if !with.hijacked || !strings.Contains(with.err, "control-flow hijack: code pointer of target") {
			t.Fatalf("err=%q hijacked=%v: want the hijack of target", with.err, with.hijacked)
		}
		if with.direct == 0 {
			t.Fatal("no call stayed in machine code")
		}
	})
}
