package engine_test

import (
	"math"
	"runtime"
	"runtime/debug"
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
//
// TotalAlloc is process-wide, so a window also counts what other goroutines
// allocate in it. The one that did is the runtime's: at the end of every GC
// cycle it wakes the unique package's map cleanup (net/netip keeps a unique
// map, linked in through the ops server's net/http), which allocates a few
// dozen bytes. A cycle ending inside a window added them to one side only.
// So each window starts after a collection, with the collector off until it
// ends, and the smallest of a few windows is taken: a stray allocation only
// ever adds bytes.
func newBytes(tb testing.TB, heapCells int) uint64 {
	tb.Helper()
	const runs, windows = 8, 3
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	least := uint64(math.MaxUint64)
	for w := 0; w < windows; w++ {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if _, err := engine.New(tenLineSrc, engine.Config{HeapCells: heapCells}); err != nil {
				tb.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		least = min(least, (after.TotalAlloc-before.TotalAlloc)/runs)
	}
	return least
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
