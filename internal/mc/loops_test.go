package mc_test

import (
	"io"
	"testing"

	"github.com/jitbull/jitbull/internal/engine"
	"github.com/jitbull/jitbull/internal/mc"
)

// pinsAcrossCalls is a loop whose five loop-carried values are pinned to
// XMMs, calling on every iteration into heavy, whose temporaries fill
// every XMM the cache has, and into spin, which loops (taken jumps, each
// a block check counted in its R11) and then leaves machine code for a
// runtime op, so its direct call unwinds through Go.
const pinsAcrossCalls = `
function heavy(x) {
  var a = x * 0.5 + 0.25;
  var b = a * 0.75 - 0.125;
  var c = b / (a + 2);
  var d = c * 0.5 + a;
  var e = d - c * 0.25;
  var f = e * 0.125 - b;
  var g = f + d * 0.0625;
  var h = g - e * 0.03125;
  var k = (h + g) * 0.5 - a;
  var m = k * 0.25 - c + d - e + f;
  var p = m * 0.25 + k * 0.125 + h * 0.0625;
  return (p - m + a + b + c + d + e + f + g + h + k) * 0.001;
}
function spin(x) {
  var t = 0;
  for (var j = 0; j < 8; j++) { t = t + j * x; }
  return Math.floor(t * 0.01);
}
function loop(n) {
  var s = 0.5; var u = 1.25; var v = 3; var w = 0.75; var q = 2;
  for (var i = 0; i < n; i++) {
    s = s * 0.5 + heavy(i + s);
    u = u * 0.5 + s + v * 0.25;
    v = v * 0.5 + w * q;
    w = w * 0.5 + 0.25;
    q = q * 0.5 + u * 0.125 + spin(i);
  }
  return s + u + v + w + q;
}
var result = 0;
for (var r = 0; r < 40; r++) { result = result + loop(30); }
`

// loopRun is what one run of a script leaves behind that the machine-code
// tier owes the fused tier: the result, the step counts and the block
// checks.
type loopRun struct {
	result, err           string
	steps, native, checks int64
	direct, unwinds       int64 // mc only, not compared
}

func runLoops(t *testing.T, src string, noMC bool) loopRun {
	t.Helper()
	e, err := engine.New(src, engine.Config{IonThreshold: 10, NoMC: noMC, Out: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	_, runErr := e.Run()
	r := loopRun{
		result: e.Global("result").ToString(),
		steps:  e.VM.Steps(),
		checks: e.MetricsSink().Counter("native.block_budget_checks").Value(),
		native: e.VM.NativeSteps(),
	}
	if runErr != nil {
		r.err = runErr.Error()
	}
	if env := e.MCEnv(); env != nil {
		r.direct, r.unwinds = env.Calls()
	}
	return r
}

// TestParityPinsAcrossDirectCalls holds a register-resident loop that
// makes direct calls to the fused tier: its pins reload after every call
// (the callee clobbered them), and the block checks of a callee that
// unwinds reach the count through its record.
func TestParityPinsAcrossDirectCalls(t *testing.T) {
	if !mc.Supported() {
		t.Skip("no machine-code tier on this platform")
	}
	with, without := runLoops(t, pinsAcrossCalls, false), runLoops(t, pinsAcrossCalls, true)
	if with.direct == 0 || with.unwinds == 0 || with.result != "1570.2351256199015" {
		t.Fatalf("direct calls %d, unwinds %d, result %s: want calls of both kinds and the interpreter's 1570.2351256199015",
			with.direct, with.unwinds, with.result)
	}
	w := with
	w.direct, w.unwinds = 0, 0
	if w != without {
		t.Errorf("mc and fused disagree:\n  mc:    %+v\n  fused: %+v", with, without)
	}
}
