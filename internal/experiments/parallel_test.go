package experiments

import (
	"reflect"
	"strings"
	"testing"

	"github.com/jitbull/jitbull/internal/engine"
	"github.com/jitbull/jitbull/internal/obs"
	"github.com/jitbull/jitbull/internal/octane"
	"github.com/jitbull/jitbull/internal/vulndb"
)

func TestRunParallelMatchesSerial(t *testing.T) {
	db, bugs, err := vulndb.BuildDB(4, 40)
	if err != nil {
		t.Fatal(err)
	}
	var specs []RunSpec
	for _, b := range octane.Suite() {
		specs = append(specs, RunSpec{
			Name:   b.Name,
			Source: b.Source(1),
			Engine: engine.Config{IonThreshold: 40, Bugs: bugs},
			DB:     db,
		})
	}
	serial := RunParallel(specs, 1)
	parallel := RunParallel(specs, 4)
	if len(serial) != len(specs) || len(parallel) != len(specs) {
		t.Fatalf("outcome counts: %d serial, %d parallel, want %d", len(serial), len(parallel), len(specs))
	}
	for i := range specs {
		s, p := serial[i], parallel[i]
		if s.Err != nil || p.Err != nil {
			t.Fatalf("%s: errs %v / %v", specs[i].Name, s.Err, p.Err)
		}
		if s.Name != specs[i].Name || p.Name != specs[i].Name {
			t.Fatalf("outcome %d out of order: %q / %q", i, s.Name, p.Name)
		}
		// Engine behavior is deterministic, so stats and the matched set
		// must be identical regardless of scheduling.
		if s.Stats != p.Stats {
			t.Errorf("%s: stats diverged\nserial   %+v\nparallel %+v", s.Name, s.Stats, p.Stats)
		}
		if !reflect.DeepEqual(s.Matches, p.Matches) {
			t.Errorf("%s: matches diverged\nserial   %+v\nparallel %+v", s.Name, s.Matches, p.Matches)
		}
	}
}

// TestRunParallelSharedMetricsRegistry: engines across the fan-out may
// share one Config.Metrics registry; the engine counters mirror into it
// atomically, so the shared view must equal the sum of every cell's own
// Stats snapshot with no lost updates (the -race CI job runs this test
// through the parallel path).
func TestRunParallelSharedMetricsRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	var specs []RunSpec
	for _, b := range octane.Suite() {
		specs = append(specs, RunSpec{
			Name:   b.Name,
			Source: b.Source(1),
			Engine: engine.Config{IonThreshold: 40, Metrics: reg},
		})
	}
	out := RunParallel(specs, 4)
	var wantCompiles, wantJIT int64
	for _, oc := range out {
		if oc.Err != nil {
			t.Fatalf("%s: %v", oc.Name, oc.Err)
		}
		wantCompiles += int64(oc.Stats.Compiles)
		wantJIT += int64(oc.Stats.NrJIT)
	}
	if wantCompiles == 0 {
		t.Fatal("fixture compiled nothing; the aggregation check is vacuous")
	}
	if got := reg.Counter("engine.compiles").Value(); got != wantCompiles {
		t.Errorf("shared engine.compiles = %d, want the per-engine sum %d", got, wantCompiles)
	}
	if got := reg.Counter("engine.nr_jit").Value(); got != wantJIT {
		t.Errorf("shared engine.nr_jit = %d, want the per-engine sum %d", got, wantJIT)
	}
	// Pass-latency histograms also land in the shared registry.
	snap := reg.Snapshot()
	if h, ok := snap["compile.pass_ns"].(obs.HistSnapshot); !ok || h.Count == 0 {
		t.Errorf("compile.pass_ns missing from the shared registry: %+v", snap["compile.pass_ns"])
	}
}

func TestRunParallelPropagatesErrors(t *testing.T) {
	specs := []RunSpec{
		{Name: "bad", Source: "function f( {", Engine: engine.Config{}},
		{Name: "ok", Source: "function f(x) { return x + 1; } f(1);", Engine: engine.Config{}},
	}
	out := RunParallel(specs, 2)
	if out[0].Err == nil {
		t.Error("parse failure not propagated")
	}
	if out[1].Err != nil {
		t.Errorf("healthy spec failed: %v", out[1].Err)
	}
}

// panickyWriter panics on the first write, simulating a pathological
// user-supplied Out sink inside an experiment cell.
type panickyWriter struct{}

func (panickyWriter) Write([]byte) (int, error) { panic("writer exploded") }

func TestRunParallelContainsPanickingCell(t *testing.T) {
	specs := []RunSpec{
		{Name: "boom", Source: `print("hi");`, Engine: engine.Config{Out: panickyWriter{}}},
		{Name: "ok", Source: "function f(x) { return x + 1; } f(1);", Engine: engine.Config{}},
	}
	out := RunParallel(specs, 2)
	if out[0].Err == nil {
		t.Fatal("panicking cell reported no error")
	}
	if want := "experiment cell boom panicked"; !strings.Contains(out[0].Err.Error(), want) {
		t.Errorf("panic error = %v, want it to contain %q", out[0].Err, want)
	}
	if out[1].Err != nil {
		t.Errorf("healthy cell failed alongside the panicking one: %v", out[1].Err)
	}
}

func TestRunParallelEmpty(t *testing.T) {
	if out := RunParallel(nil, 8); len(out) != 0 {
		t.Fatalf("empty spec list gave %d outcomes", len(out))
	}
}
