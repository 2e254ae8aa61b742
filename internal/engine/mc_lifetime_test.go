//go:build amd64 && (linux || darwin)

package engine

// Soak test for machine-code unit lifetime: a requalify loop retires
// artifacts from inside their own activations, and every retired unit's
// W^X mapping must be returned once nothing can reach it — mc.pages_live
// (and, on Linux, the kernel's own count of anonymous r-x bytes) has to
// come back to what the live artifacts hold, however many were retired.

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/jitbull/jitbull/internal/obs"
	"github.com/jitbull/jitbull/internal/value"
)

// collectUntil forces collections until cond holds. Finalizers run on
// their own goroutine a cycle or two after a unit dies, so a single
// runtime.GC() is not a barrier.
func collectUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("after repeated GC: %s", what)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}

// anonRXBytes sums the process's anonymous r-x mappings (installed units;
// the binary's text and the vdso carry a name). Adjacent units merge into
// one line, so bytes — not lines — are the stable count.
func anonRXBytes(t *testing.T) int64 {
	t.Helper()
	data, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Fatalf("reading maps: %v", err)
	}
	var total int64
	for _, line := range strings.Split(string(data), "\n") {
		fields := strings.Fields(line)
		if len(fields) != 5 || fields[1] != "r-xp" {
			continue
		}
		lo, hi, _ := strings.Cut(fields[0], "-")
		start, err1 := strconv.ParseInt(lo, 16, 64)
		end, err2 := strconv.ParseInt(hi, 16, 64)
		if err1 == nil && err2 == nil {
			total += end - start
		}
	}
	return total
}

func TestMCUnitLifetimeSoak(t *testing.T) {
	// The deopt-storm script of TestDeoptStormRequalifies: hot's speculated
	// artifact is discarded by handleDeopt while its activation is still on
	// the stack, then recompiled without TypeSpeculation.
	const src = `
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
`
	linux := runtime.GOOS == "linux"
	var rxBase int64
	if linux {
		// Units earlier tests left behind are garbage by now; let them go
		// before taking the baseline.
		for i := 0; i < 3; i++ {
			runtime.GC()
			time.Sleep(5 * time.Millisecond)
		}
		rxBase = anonRXBytes(t)
	}

	reg := obs.NewRegistry()
	live := reg.Gauge("mc.pages_live")
	cfg := Config{IonThreshold: 10, BaselineThreshold: 4, OSR: true, Speculate: true, Metrics: reg}
	const rounds = 40
	var last *Engine
	var peak int64
	for i := 0; i < rounds; i++ {
		e, _, err := RunScript(src, cfg)
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		if e.Stats().LoopsRequalified == 0 {
			t.Fatalf("round %d: no requalify — the soak retires nothing from inside an activation", i)
		}
		if v := live.Value(); v > peak {
			peak = v
		}
		last = e
	}

	var held int64
	units := 0
	for _, st := range last.fns {
		if st.mcu != nil {
			held += int64(st.mcu.MappedLen())
			units++
		}
	}
	installs := reg.Counter("native.tier.mc").Value()
	if units == 0 || installs <= int64(units) {
		t.Fatalf("soak retired no unit: %d installs, %d still attached", installs, units)
	}
	if peak <= held {
		t.Fatalf("mc.pages_live peaked at %d, never above the %d bytes one engine holds", peak, held)
	}

	collectUntil(t, "mc.pages_live stays above what the live artifacts hold", func() bool {
		return live.Value() == held
	})
	if linux {
		if rx := anonRXBytes(t); rx != rxBase+held {
			t.Errorf("anonymous r-x mappings: %d bytes, want baseline %d + live %d", rx, rxBase, held)
		}
	}

	// The live engine's units were not touched: its machine code still runs.
	ref, _, err := RunScript(src, Config{DisableJIT: true})
	if err != nil {
		t.Fatalf("interp: %v", err)
	}
	for idx, st := range last.fns {
		if st.fn.Name != "hot" {
			continue
		}
		if st.mcu == nil {
			t.Fatal("hot lost its machine-code unit")
		}
		args := []value.Value{value.Num(600)}
		got, err := last.CallFunction(idx, args)
		want, werr := ref.CallFunction(idx, args)
		if err != nil || werr != nil || got.ToString() != want.ToString() {
			t.Fatalf("hot(600) after collection = %v (%v), interpreter %v (%v)", got, err, want, werr)
		}
	}
}
