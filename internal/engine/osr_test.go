package engine

import (
	"fmt"
	"testing"

	"github.com/jitbull/jitbull/internal/bytecode"
	"github.com/jitbull/jitbull/internal/jitqueue"
	"github.com/jitbull/jitbull/internal/obs"
	"github.com/jitbull/jitbull/internal/value"
)

// osrAgainstInterp runs src under the OSR/deopt engine and the clean
// interpreter and asserts value equality, returning the JIT engine for
// stats assertions.
func osrAgainstInterp(t *testing.T, src string, cfg Config) *Engine {
	t.Helper()
	_, want, err := RunScript(src, Config{DisableJIT: true})
	if err != nil {
		t.Fatalf("interp: %v", err)
	}
	e, got, err := RunScript(src, cfg)
	if err != nil {
		t.Fatalf("jit: %v", err)
	}
	if want.ToString() != got.ToString() {
		t.Fatalf("value divergence: interp=%s jit=%s", want.ToString(), got.ToString())
	}
	// Every activation the run entered, mid-loop or at a call, gave its
	// register window and its frame-stack record back.
	if top, _ := e.pool.Top(); top != nil && *top != 0 {
		t.Fatalf("register stack at %d after the run", *top)
	}
	if e.mcEnv != nil && e.mcEnv.Frames() != 0 {
		t.Fatalf("%d frame-stack records in use after the run", e.mcEnv.Frames())
	}
	return e
}

// TestOSRMidLoopEntry: a single long-running call must tier up from inside
// the loop — back edges trigger the compile and the transfer happens at the
// loop header, without the call ever returning to a call boundary.
func TestOSRMidLoopEntry(t *testing.T) {
	src := `
function weight(a, b) { return (a * 3 + b) % 1000003; }
function hot(n) {
  var s = 0;
  var i = 0;
  while (i < n) {
    var c = weight(i, s);
    s = (s + c + i) % 1000003;
    i = i + 1;
  }
  return s;
}
print(hot(900));
`
	e := osrAgainstInterp(t, src, Config{IonThreshold: 30, OSR: true})
	st := e.Stats()
	if st.OSREntries == 0 {
		t.Fatalf("single long call never entered mid-loop: %+v", st)
	}
	if st.DeoptExits != 0 {
		t.Fatalf("monomorphic helper must not deopt: %+v", st)
	}
}

// TestOSRPerSiteCooldown: the array-stream shape — a short warm-up loop
// that fills the array, then the hot nested loop. The fill loop's back
// edges cross the OSR threshold while s, which the fill loop reads, is
// still undefined, so the transfer at its header (ordinal 0) is refused;
// that refusal must park only that ordinal, not the function, and the hot
// loop must still enter mid-loop. (With the old function-wide cooldown this
// recorded zero OSR entries.)
func TestOSRPerSiteCooldown(t *testing.T) {
	src := `
function hot(n, m) {
  var a = new Array(m);
  var s;
  for (var i = 0; i < m; i++) { if (s) { a[i] = s; } else { a[i] = i; } }
  s = 0;
  var it = 0;
  while (it < n) {
    var j = 0;
    while (j < m) {
      s = (s + a[j]) % 1000003;
      j = j + 1;
    }
    it = it + 1;
  }
  return s;
}
print(hot(200, 64));
`
	ring := obs.NewRing(0)
	e := osrAgainstInterp(t, src, Config{IonThreshold: 30, OSR: true, Tracer: obs.NewTracer(ring)})
	declined := false
	for _, ev := range ring.Events() {
		if ev.Name == obs.FactOSREnter && ev.Str("result") == "declined" {
			if ev.Int("ordinal") != 0 {
				t.Fatalf("declined entry at ordinal %d, want only the warm-up header's 0", ev.Int("ordinal"))
			}
			declined = true
		}
	}
	if !declined {
		t.Fatal("the warm-up header with undefined s was never declined: the test no longer tests a refusal")
	}
	st := e.Stats()
	if st.OSREntries == 0 {
		t.Fatalf("refused warm-up header parked the hot loop: %+v", st)
	}
	if st.DeoptExits != 0 {
		t.Fatalf("unspeculated array loop must not deopt: %+v", st)
	}
}

// TestDeoptKeepsWork: a helper whose return type flips to undefined
// mid-loop fails the speculation guard; the exit must reconstruct the
// interpreter frame (keeping the work done so far) and the final value must
// match the interpreter exactly.
func TestDeoptKeepsWork(t *testing.T) {
	src := `
function flip(p, q) {
  if (p < 400) { return (q * 2 + p) % 1000003; }
  return;
}
function hot(n) {
  var s = 0;
  var i = 0;
  while (i < n) {
    var c = flip(i, s);
    if (c) { s = (s + c + i) % 1000003; }
    i = i + 1;
  }
  return s;
}
print(hot(700));
`
	e := osrAgainstInterp(t, src, Config{IonThreshold: 30, OSR: true, Speculate: true})
	st := e.Stats()
	if st.OSREntries == 0 || st.DeoptExits == 0 {
		t.Fatalf("expected OSR entries and deopt exits, got %+v", st)
	}
}

// TestDeoptStormRequalifies: when one function's speculation guard keeps
// failing across activations, the engine must not blacklist it — it
// discards the artifact, disables TypeSpeculation for the function, records
// a requalify audit verdict, and the recompiled unspeculated code keeps
// running natively with interpreter semantics. The same holds when every
// compile falls back inline from a closed queue, and either way the ring
// holds the function's whole lifecycle: first call, install, OSR entry, the
// deopts, the requalification.
func TestDeoptStormRequalifies(t *testing.T) {
	src := `
function flip(p, q) {
  if (p < 300) { return (q + p * 2) % 1000003; }
  return;
}
function hot(n) {
  var s = 0;
  var i = 0;
  while (i < n) {
    var c = flip(i, s);
    if (c) { s = (s + c) % 1000003; }
    i = i + 1;
  }
  return s;
}
var result = 0;
for (var r = 0; r < 24; r++) { result = (result + hot(600)) % 1000003; }
print(result);
`
	closed := jitqueue.New(1, 1, nil)
	closed.Close()
	for _, tc := range []struct {
		name  string
		queue *jitqueue.Queue
	}{{"inline", nil}, {"closed-queue", closed}} {
		t.Run(tc.name, func(t *testing.T) {
			audit, ring := obs.NewAuditLog(nil), obs.NewRing(0)
			e := osrAgainstInterp(t, src, Config{
				IonThreshold: 10, OSR: true, Speculate: true, Queue: tc.queue,
				Tracer: obs.NewTracer(obs.MultiSink{audit, ring}),
			})
			st := e.Stats()
			if st.DeoptExits < maxDeoptsBeforeRequalify {
				t.Fatalf("storm never accumulated: %d deopts, want >= %d", st.DeoptExits, maxDeoptsBeforeRequalify)
			}
			if st.LoopsRequalified == 0 {
				t.Fatalf("deopt storm did not requalify the function: %+v", st)
			}
			requalified := false
			for _, ev := range audit.Events() {
				if ev.Verdict == "requalify" && ev.Stage == StageDeopt {
					requalified = true
				}
			}
			if !requalified {
				t.Fatal("no requalify verdict with the deopt stage in the audit log")
			}
			seen := map[string]bool{}
			for _, ev := range obs.Lifecycles(ring.Events())["hot"] {
				seen[ev.Name] = true
			}
			for _, want := range []string{obs.FactInterp, obs.FactInstall, obs.FactOSREnter, obs.FactDeopt, obs.FactRequalified} {
				if !seen[want] {
					t.Errorf("hot's lifecycle has no %s fact", want)
				}
			}
		})
	}
}

// hot0Program is progen's hot0 shape, one activation of an iters-long loop
// whose speculated call's result type flips three fifths of the way in: to
// undefined for good when permanent, for that one iteration otherwise. The
// call result c is assigned at the top of the loop body before any read.
func hot0Program(iters int, permanent bool) string {
	flip := iters * 3 / 5
	helper := fmt.Sprintf(`function hu(p, q) { if (p == %d) { return; } return (q * 3 + p) %% 1000003; }`, flip)
	if permanent {
		helper = fmt.Sprintf(`function hu(p, q) { if (p < %d) { return (q * 3 + p) %% 1000003; } return; }`, flip)
	}
	return helper + fmt.Sprintf(`
function hot0(z) {
  var a = new Array(16);
  var ii = 0;
  while (ii < 16) { a[ii] = ii * 3 + 1; ii = ii + 1; }
  var s = 0;
  var c = 0;
  var i0 = 0;
  while (i0 < %d) {
    c = hu(i0, z);
    if (c) { s = (s + c + i0) %% 1000003; }
    a[(i0 & 255) %% a.length] = (s + i0) %% 65536;
    s = (s + a[(s & 255) %% a.length] + a.length) %% 1000003;
    i0 = i0 + 1;
  }
  return s;
}
var result = hot0(5);
`, iters)
}

// runDeoptResume runs src like osrAgainstInterp, with hot0's lifecycle on a
// ring, and returns hot0's facts and the deepest nesting of OSR hook calls:
// a deopted frame that OSRs back in does so from inside the hook call whose
// entry deopted.
func runDeoptResume(t *testing.T, src string) (facts []obs.Event, maxDepth int) {
	t.Helper()
	_, want, err := RunScript(src, Config{DisableJIT: true})
	if err != nil {
		t.Fatalf("interp: %v", err)
	}
	ring := obs.NewRing(0)
	e, err := New(src, Config{IonThreshold: 30, OSR: true, Speculate: true, Tracer: obs.NewTracer(ring)})
	if err != nil {
		t.Fatal(err)
	}
	hook, depth := e.VM.OSR, 0
	e.VM.OSR = func(fn *bytecode.Function, targetPC int, locals []value.Value) (value.Value, bool, error) {
		depth++
		maxDepth = max(maxDepth, depth)
		defer func() { depth-- }()
		return hook(fn, targetPC, locals)
	}
	got, err := e.Run()
	if err != nil {
		t.Fatalf("jit: %v", err)
	}
	if want.ToString() != got.ToString() {
		t.Fatalf("value divergence: interp=%s jit=%s", want.ToString(), got.ToString())
	}
	return obs.Lifecycles(ring.Events())["hot0"], maxDepth
}

// TestDeoptResumeReentersAfterStorm: a permanent flip makes the resumed
// frame re-enter the same artifact and deopt again until the storm rule
// requalifies the function; the loop's next back edge then compiles it
// unspeculated and the frame OSRs in for the rest of the loop. (A resumed
// frame that could not OSR showed one deopt and no later entry.)
func TestDeoptResumeReentersAfterStorm(t *testing.T) {
	facts, depth := runDeoptResume(t, hot0Program(2000, true))
	deopts, requalified, reentered := 0, false, false
	for _, ev := range facts {
		switch {
		case ev.Name == obs.FactDeopt:
			if requalified {
				t.Fatal("deopt after the unspeculated recompile")
			}
			deopts++
		case ev.Name == obs.FactRequalified:
			if deopts != maxDeoptsBeforeRequalify {
				t.Fatalf("requalified after %d deopts, want %d", deopts, maxDeoptsBeforeRequalify)
			}
			requalified = true
		case ev.Name == obs.FactOSREnter && requalified && ev.Str("result") == "ok":
			reentered = true
		}
	}
	if deopts != maxDeoptsBeforeRequalify || !requalified || !reentered {
		t.Fatalf("deopts %d, requalified %v, entered the recompile %v; want %d, true, true",
			deopts, requalified, reentered, maxDeoptsBeforeRequalify)
	}
	if depth > maxDeoptsBeforeRequalify+1 {
		t.Fatalf("OSR hook calls nested %d deep, want at most %d", depth, maxDeoptsBeforeRequalify+1)
	}
}

// TestDeoptResumeReentersAfterTransientFlip: a flip for one value deopts
// once; the resumed frame re-enters the same artifact at the next back edge
// and finishes the loop in it, without requalifying anything.
func TestDeoptResumeReentersAfterTransientFlip(t *testing.T) {
	facts, depth := runDeoptResume(t, hot0Program(2000, false))
	deopts, reentered := 0, false
	for _, ev := range facts {
		switch {
		case ev.Name == obs.FactDeopt:
			deopts++
		case ev.Name == obs.FactRequalified:
			t.Fatal("a transient flip requalified the function")
		case ev.Name == obs.FactOSREnter && deopts > 0 && ev.Str("result") == "ok":
			reentered = true
		}
	}
	if deopts != 1 || !reentered {
		t.Fatalf("deopts %d, re-entered %v; want 1, true", deopts, reentered)
	}
	if depth != 2 {
		t.Fatalf("OSR hook calls nested %d deep, want 2 (the entry, the re-entry)", depth)
	}
}

// BenchmarkDeoptResume reports ns per run of a hot0-shaped loop of 20,000
// iterations whose call result flips to undefined for good at iteration
// 12,000: tier-up mid-loop, the deopt storm, the unspeculated recompile
// and the rest of the loop in it.
func BenchmarkDeoptResume(b *testing.B) {
	src := hot0Program(20000, true)
	cfg := Config{IonThreshold: 30, OSR: true, Speculate: true}
	for i := 0; i < b.N; i++ {
		if _, _, err := RunScript(src, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
