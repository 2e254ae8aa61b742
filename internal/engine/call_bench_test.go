package engine

import (
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
	e, err := New(src+callLoopWarm, Config{IonThreshold: 10, BaselineThreshold: 4})
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
