package engine

import (
	"testing"

	"github.com/jitbull/jitbull/internal/obs"
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
	e := osrAgainstInterp(t, src, Config{IonThreshold: 30, BaselineThreshold: 10, OSR: true})
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
// edges cross the OSR threshold while s/it/j are still undefined, so the
// transfer at its header is refused; that refusal must park only that
// ordinal, not the function, and the hot loop must still enter mid-loop.
// (With the old function-wide cooldown this recorded zero OSR entries.)
func TestOSRPerSiteCooldown(t *testing.T) {
	src := `
function hot(n, m) {
  var a = new Array(m);
  for (var i = 0; i < m; i++) { a[i] = i; }
  var s = 0;
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
	e := osrAgainstInterp(t, src, Config{IonThreshold: 30, BaselineThreshold: 10, OSR: true})
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
	e := osrAgainstInterp(t, src, Config{IonThreshold: 30, BaselineThreshold: 10, OSR: true, Speculate: true})
	st := e.Stats()
	if st.OSREntries == 0 || st.DeoptExits == 0 {
		t.Fatalf("expected OSR entries and deopt exits, got %+v", st)
	}
}

// TestDeoptStormRequalifies: when one function's speculation guard keeps
// failing across activations, the engine must not blacklist it — it
// discards the artifact, disables TypeSpeculation for the function, records
// a requalify audit verdict, and the recompiled unspeculated code keeps
// running natively with interpreter semantics.
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
	audit := obs.NewAuditLog(nil)
	e := osrAgainstInterp(t, src, Config{
		IonThreshold: 10, BaselineThreshold: 4, OSR: true, Speculate: true, Tracer: obs.NewTracer(audit),
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
}
