package engine_test

import (
	"runtime"
	"testing"

	"github.com/jitbull/jitbull/internal/engine"
	"github.com/jitbull/jitbull/internal/passes"
	"github.com/jitbull/jitbull/internal/vulndb"
)

// The deterministic perf handles on a script load: building an engine costs
// what the script costs, not what the arena's address space could hold.
// Neither test reads a clock; the benchmarks are the `-bench` handles.

const tenLineSrc = `
function add(a, b) { return a + b; }
var xs = [1, 2, 3, 4];
xs.push(5);
var s = 0;
for (var i = 0; i < xs.length; i++) {
  s = add(s, xs[i]);
}
var result = s;
print(result);
`

// newBytes returns the bytes engine.New allocates for tenLineSrc, averaged
// over a few constructions (TotalAlloc counts every allocation, collected or
// not).
func newBytes(tb testing.TB, heapCells int) uint64 {
	tb.Helper()
	const runs = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := engine.New(tenLineSrc, engine.Config{HeapCells: heapCells}); err != nil {
			tb.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / runs
}

func TestEngineNewCostFollowsTheProgram(t *testing.T) {
	small, large := newBytes(t, 1<<17), newBytes(t, 1<<20)
	t.Logf("engine.New: %d bytes", small)
	if small > 64<<10 {
		t.Errorf("engine.New allocates %d bytes for a ten-line script, want at most %d", small, 64<<10)
	}
	if small != large {
		t.Errorf("engine.New allocates %d bytes with HeapCells 1<<17 and %d with 1<<20: the cost must not follow the address space", small, large)
	}
}

func BenchmarkEngineNew(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := engine.New(tenLineSrc, engine.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScriptLoad is one script load inside a vulnerability window, as
// the benchmark's vuln_window workload makes them: a demonstrator on the
// engine that has its bug, under the detector that knows its fingerprint,
// from source text to verdict.
func BenchmarkScriptLoad(b *testing.B) {
	v, err := vulndb.ByID("CVE-2019-17026")
	if err != nil {
		b.Fatal(err)
	}
	db, err := vulndb.BuildDatabase([]vulndb.Vuln{v}, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := vulndb.Run(v.Demonstrator, passes.BugSet{v.CVE: true}, db, 0)
		if res.Err != nil || res.Hijacked || res.Crashed || len(res.Matches) == 0 {
			b.Fatalf("load was not neutralised: %+v", res)
		}
	}
}
