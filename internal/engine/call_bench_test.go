package engine

import (
	"fmt"
	"testing"
	"time"

	"github.com/jitbull/jitbull/internal/mc"
	"github.com/jitbull/jitbull/internal/value"
)

// The deterministic perf handles on the call boundary: what a call out of
// a compiled loop costs over the same expression written inline, and that
// a steady state of direct calls allocates nothing. Neither reads a clock
// in `go test`; the benchmark is the `-bench` handle.

const (
	callLoopSrc = `
function IX(i, j) { return i + 130 * j; }
function sweep(n) { var s = 0; for (var j = 0; j < n; j++) { for (var i = 0; i < 128; i++) { s = s + IX(i, j); } } return s; }
`
	inlineLoopSrc = `
function sweep(n) { var s = 0; for (var j = 0; j < n; j++) { for (var i = 0; i < 128; i++) { s = s + (i + 130 * j); } } return s; }
`
	callLoopWarm = `
var result = 0;
for (var r = 0; r < 30; r++) { result = (result + sweep(2)) % 1000003; }
`
)

// warmSweep compiles sweep (and IX, when there is one) and returns a
// function that runs sweep(rows) in the warmed engine.
func warmSweep(tb testing.TB, src string, rows int) (*Engine, func()) {
	tb.Helper()
	e, err := New(src+callLoopWarm, Config{IonThreshold: 10})
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		tb.Fatal(err)
	}
	sweep := -1
	for i, st := range e.fns {
		if st.fn.Name == "sweep" {
			sweep = i
		}
		if st.fd != nil && st.code == nil {
			tb.Fatalf("%s was not compiled", st.fn.Name)
		}
	}
	args := []value.Value{value.Num(float64(rows))}
	return e, func() {
		e.VM.ResetSteps()
		if _, err := e.CallFunction(sweep, args); err != nil {
			tb.Fatal(err)
		}
	}
}

func timeOf(f func()) int64 {
	start := time.Now()
	f()
	return int64(time.Since(start))
}

// BenchmarkNativeCall reports ns per call of IX from a compiled loop: the
// loop with the call minus the same loop with the expression inline.
func BenchmarkNativeCall(b *testing.B) {
	const rows = 400
	_, withCall := warmSweep(b, callLoopSrc, rows)
	_, inline := warmSweep(b, inlineLoopSrc, rows)
	var call, base int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		call += timeOf(withCall)
		base += timeOf(inline)
	}
	b.ReportMetric(float64(call-base)/float64(b.N)/(rows*128), "ns/call")
	b.ReportMetric(float64(base)/float64(b.N)/(rows*128), "ns/inline-iter")
}

// topLevelLoop is the calling side of the interpreter→machine-code
// boundary: top-level code, which never compiles, calling IX (or computing
// its expression inline) rows×128 times.
func topLevelLoop(call bool, rows int) string {
	expr := "(i + 130 * j)"
	fn := ""
	if call {
		expr, fn = "IX(i, j)", "function IX(i, j) { return i + 130 * j; }\n"
	}
	return fmt.Sprintf("%svar s = 0;\nfor (var j = 0; j < %d; j++) { for (var i = 0; i < 128; i++) { s = (s + %s) %% 1000003; } }\nvar result = s;\n", fn, rows, expr)
}

// warmTopLevel runs the top-level loop once in an engine that compiles IX
// after ionThreshold calls, and returns a function that runs it again.
func warmTopLevel(tb testing.TB, call bool, rows, ionThreshold int) (*Engine, func()) {
	tb.Helper()
	e, err := New(topLevelLoop(call, rows), Config{IonThreshold: ionThreshold})
	if err != nil {
		tb.Fatal(err)
	}
	run := func() {
		e.VM.ResetSteps()
		if _, err := e.VM.Run(); err != nil {
			tb.Fatal(err)
		}
	}
	run()
	return e, run
}

// ixState is the state of the loop's callee.
func ixState(e *Engine) *fnState {
	for _, st := range e.fns {
		if st.fn.Name == "IX" {
			return st
		}
	}
	return nil
}

// BenchmarkInterpToNativeCall reports ns per call of IX from an
// interpreted loop, into machine code (interp→mc) and into the interpreter
// (interp→interp: IX never reaches its Ion threshold): each loop minus the
// same loop with the expression inline. Beside them, ns per call of the
// compiled IX issued from Go through Engine.CallFunction.
func BenchmarkInterpToNativeCall(b *testing.B) {
	const rows = 200
	e, compiled := warmTopLevel(b, true, rows, 10)
	st := ixState(e)
	if st.code == nil || (mc.Supported() && st.mcu == nil) {
		b.Fatalf("IX was not compiled to the top tier")
	}
	_, interpreted := warmTopLevel(b, true, rows, 1<<30)
	_, inline := warmTopLevel(b, false, rows, 10)
	args := []value.Value{value.Num(3), value.Num(4)}
	fromGo := func() {
		e.VM.ResetSteps()
		for i := 0; i < rows*128; i++ {
			if _, err := e.CallFunction(st.idx, args); err != nil {
				b.Fatal(err)
			}
		}
	}
	var toMC, toInterp, base, goToMC int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		toMC += timeOf(compiled)
		toInterp += timeOf(interpreted)
		base += timeOf(inline)
		goToMC += timeOf(fromGo)
	}
	calls := float64(b.N) * rows * 128
	b.ReportMetric(float64(toMC-base)/calls, "ns/call")
	b.ReportMetric(float64(toInterp-base)/calls, "ns/interp-call")
	b.ReportMetric(float64(base)/calls, "ns/inline-iter")
	b.ReportMetric(float64(goToMC)/calls, "ns/go-call")
}

// TestInterpToNativeCallDoesNotAllocate: in a steady state, a call the
// interpreter makes into machine code with number arguments leases, boxes
// and allocates nothing.
func TestInterpToNativeCallDoesNotAllocate(t *testing.T) {
	const rows = 20
	e, run := warmTopLevel(t, true, rows, 10)
	st := ixState(e)
	if st.code == nil || (mc.Supported() && st.mcu == nil) {
		t.Fatalf("IX was not compiled to the top tier")
	}
	calls := st.calls
	if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
		t.Errorf("an interpreted loop of calls into machine code allocates %v objects per run", allocs)
	}
	if got := st.calls - calls; got != 11*rows*128 {
		t.Errorf("IX called %d times in 11 runs, want %d", got, 11*rows*128)
	}
	if n := e.VM.NativeSteps(); n < rows*128 {
		t.Errorf("native code ran %d steps of the last run's %d calls", n, rows*128)
	}
}

// TestDirectCallLoopDoesNotAllocate: a compiled loop making direct calls
// leases, boxes and allocates nothing per call.
func TestDirectCallLoopDoesNotAllocate(t *testing.T) {
	e, run := warmSweep(t, callLoopSrc, 20)
	run()
	var before int64
	if e.mcEnv != nil {
		before, _ = e.mcEnv.Calls()
	}
	if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
		t.Errorf("a compiled loop of calls allocates %v objects per run", allocs)
	}
	if mc.Supported() {
		if after, unwinds := e.mcEnv.Calls(); after-before < 10*20*128 || unwinds != 0 {
			t.Errorf("direct calls %d → %d (%d unwinds): the loop's calls did not stay in generated code", before, after, unwinds)
		}
	}
}
