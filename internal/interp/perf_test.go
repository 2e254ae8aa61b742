package interp_test

import (
	"testing"

	"github.com/jitbull/jitbull/internal/bytecode"
	"github.com/jitbull/jitbull/internal/compiler"
	"github.com/jitbull/jitbull/internal/engine"
	"github.com/jitbull/jitbull/internal/heap"
	"github.com/jitbull/jitbull/internal/interp"
	"github.com/jitbull/jitbull/internal/octane"
	"github.com/jitbull/jitbull/internal/progen"
	"github.com/jitbull/jitbull/internal/value"
)

// steadyLoop is the shape of interpreted code the base tier spends its time
// in: a loop that calls a two-argument function and reads and writes an
// array element per iteration.
const steadyLoop = `
function add(a, b) { return a + b; }
function loop(arr, n) {
  var s = 0;
  for (var i = 0; i < n; i++) {
    s = add(s, arr[i % arr.length]) % 1000003;
    arr[i % arr.length] = s % 7;
  }
  return s;
}
var data = [1, 2, 3, 4, 5, 6, 7, 8];
var result = loop(data, 10);
`

// TestSteadyStateLoopDoesNotAllocate is the deterministic guard on the
// interpreter's per-call and per-step cost: once the value stack exists,
// calls, argument passing, arithmetic, comparisons and array accesses
// allocate nothing — through the VM's own dispatcher and through the
// engine's call boundary alike.
func TestSteadyStateLoopDoesNotAllocate(t *testing.T) {
	prog, err := compiler.Compile(steadyLoop)
	if err != nil {
		t.Fatal(err)
	}
	vm := interp.New(prog, heap.New(0), nil)
	if _, err := vm.Run(); err != nil {
		t.Fatal(err)
	}
	e, _, err := engine.RunScript(steadyLoop, engine.Config{DisableJIT: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		dispatch interp.Dispatcher
		data     value.Value
	}{
		{"vm", vm, vm.Globals[0]},
		{"engine-nojit", e, e.Global("data")},
	} {
		args := []value.Value{tc.data, value.Num(200)}
		idx := prog.FuncByName["loop"]
		allocs := testing.AllocsPerRun(20, func() {
			if v, err := tc.dispatch.CallFunction(idx, args); err != nil || !v.IsNumber() {
				t.Fatalf("loop = %v, %v", v, err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocations per 200-iteration run, want 0", tc.name, allocs)
		}
	}
}

// countingDispatcher counts the nanojs calls a VM routes.
type countingDispatcher struct {
	vm    *interp.VM
	calls int64
}

func (d *countingDispatcher) CallFunction(idx int, args []value.Value) (value.Value, error) {
	d.calls++
	return d.vm.CallFunction(idx, args)
}

// benchPrograms are the three analogues the interpreter benchmarks run:
// call-heavy, array-heavy and pure arithmetic.
var benchPrograms = []string{"Richards", "NavierStokes", "Microbench1"}

// benchInterp runs the named analogue at Source(1) b.N times on fresh VMs
// and returns the steps and calls of one run.
func benchInterp(b *testing.B, name string) (steps, calls int64) {
	bm, err := octane.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	return benchRuns(b, bm.Source(1))
}

// benchRuns compiles each source, then runs all of them b.N times on fresh
// VMs and returns the steps and calls of one pass.
func benchRuns(b *testing.B, srcs ...string) (steps, calls int64) {
	progs := make([]*bytecode.Program, len(srcs))
	for i, src := range srcs {
		var err error
		if progs[i], err = compiler.Compile(src); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		steps, calls = 0, 0
		for _, prog := range progs {
			vm := interp.New(prog, heap.New(0), nil)
			d := &countingDispatcher{vm: vm}
			vm.Dispatch = d
			if _, err := vm.Run(); err != nil {
				b.Fatal(err)
			}
			steps, calls = steps+vm.Steps(), calls+d.calls
		}
	}
	return steps, calls
}

// osrReferences are the programs whose interpreter runs are the osr_loops
// workload's references: 30 progen programs with hot while loops, 232.1 M
// steps in all.
func osrReferences() []string {
	srcs := make([]string, 30)
	for i := range srcs {
		srcs[i] = progen.Generate(int64(1000+i), progen.Options{HotLoops: true, HotIters: 20000, HotCalls: 3, Train: 10})
	}
	return srcs
}

// BenchmarkInterpStep reports the interpreter's cost per bytecode
// instruction (calls included) on each analogue, and on the OSR workload's
// references (osr_refs), where integer %, & and x % a.length are hot.
func BenchmarkInterpStep(b *testing.B) {
	perStep := func(b *testing.B, steps int64) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps*int64(b.N)), "ns/step")
	}
	for _, name := range benchPrograms {
		b.Run(name, func(b *testing.B) {
			steps, _ := benchInterp(b, name)
			perStep(b, steps)
		})
	}
	b.Run("osr_refs", func(b *testing.B) {
		steps, _ := benchRuns(b, osrReferences()...)
		perStep(b, steps)
	})
}

// BenchmarkInterpCall reports run time per nanojs call — the call's own
// cost plus the body it runs — on each analogue.
func BenchmarkInterpCall(b *testing.B) {
	for _, name := range benchPrograms {
		b.Run(name, func(b *testing.B) {
			_, calls := benchInterp(b, name)
			b.ReportMetric(float64(calls), "calls/op")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(calls*int64(b.N)), "ns/call")
		})
	}
}
