package main

import (
	"os"
	"reflect"
	"regexp"
	"testing"
)

// smallSizes is every workload at scale 1: seconds for the whole file, and
// no assertion below reads a clock.
var smallSizes = sizes{OctaneScale: 1, NoJITScale: 1, StormPrograms: 8, VulnRounds: 1, OSRPrograms: 3, HotIters: 20000}

func setupSmall(t *testing.T, name string) *workload {
	t.Helper()
	oracle, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	w, err := setup(name, 1, smallSizes, oracle)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// Every workload passes its oracle, traced and untraced, and the timed
// pipeline and policy wrappers change no count and no verdict.
func TestOracleAndWrappers(t *testing.T) {
	for _, name := range workloadNames {
		w := setupSmall(t, name)
		s := newSamples(w)
		plain := runPass(w, nil, s)
		l := newLedger()
		traced := runPass(w, l, s)
		for _, r := range []passResult{plain, traced} {
			if r.failed != 0 || r.attempted != len(w.programs)*w.rounds {
				t.Errorf("%s: %d of %d runs failed: %v", name, r.failed, r.attempted, s.failures)
			}
		}
		// The dna.* sums are only collected on the traced path.
		traced.counts[tDeltaChains], traced.counts[tIndexProbes] = 0, 0
		for i := range plain.counts {
			if i != tCompileNs && i != tOSREntryNs && plain.counts[i] != traced.counts[i] {
				t.Errorf("%s: count %d is %d untraced but %d with the wrappers", name, i, plain.counts[i], traced.counts[i])
			}
		}
		_, c := l.takePass(0)
		if got, want := c[cVerdictDisablePass], plain.counts[tRecompiles]; name != "vuln_window" && got != want {
			t.Errorf("%s: wrapper saw %d disable-pass verdicts, engine recompiled %d times", name, got, want)
		}
		if name == "vuln_window" && (c[cVerdictDisablePass] == 0 || c[cVerdictNoJIT] == 0) {
			t.Errorf("vuln_window: want both disable-pass and nojit verdicts, got %d and %d", c[cVerdictDisablePass], c[cVerdictNoJIT])
		}
		if (name == "osr_loops") != (plain.counts[tOSREntries] > 0) {
			t.Errorf("%s: %d OSR entries", name, plain.counts[tOSREntries])
		}
	}
}

// A wrong reference is a failed run, counted, and the pass goes on.
func TestWrongReferenceIsCounted(t *testing.T) {
	w := setupSmall(t, "vuln_window")
	w.programs[0].want.Result = "deliberately wrong"
	w.programs[3].src = "function (" // does not parse
	s := newSamples(w)
	r := runPass(w, newLedger(), s)
	if r.failed != 2 || r.attempted != len(w.programs) {
		t.Fatalf("failed %d of %d attempted, want 2 of %d: %v", r.failed, r.attempted, len(w.programs), s.failures)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// BENCHMARK.json is exactly what the metric tables generate, every name is
// well-formed and used once, and a traced run measures every per-layer
// metric and nothing else.
func TestBenchmarkJSONAgrees(t *testing.T) {
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Error("BENCHMARK.json differs from `bench -benchmark-json`; regenerate it")
	}
	defs := perLayer()
	if len(defs) > 128 {
		t.Errorf("%d per-layer metrics, the limit is 128", len(defs))
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), defs...) {
		if !nameRE.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q is malformed or used twice", d.Name)
		}
		seen[d.Name] = true
	}

	for _, name := range []string{"vuln_window", "compile_storm"} {
		res, err := tracedRun(setupSmall(t, name), effort{pairs: 1, stageReps: 1, cellPasses: 1}, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := toMetrics(defs, res.metrics); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if res.total.failed != 0 {
			t.Errorf("%s: %d failures in the traced run: %v", name, res.total.failed, res.failures)
		}
		if name == "compile_storm" && res.metrics["jitqueue.cache.hit_ratio"] == 0 {
			t.Error("compile_storm: the warm fleet hit the shared cache zero times")
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 8, 16, 32, 64], n=4) == [2.0, 8.0, 32.0]
	// statistics.quantiles([3, 1, 2, 10], n=4) == [1.25, 2.5, 8.25]
	for _, c := range []struct{ in, want []float64 }{
		{[]float64{1, 2, 4, 8, 16, 32, 64}, []float64{2, 8, 32}},
		{[]float64{3, 1, 2, 10}, []float64{1.25, 2.5, 8.25}},
	} {
		d := summarise(c.in)
		if got := []float64{d.Q1, d.Median, d.Q3}; !reflect.DeepEqual(got, c.want) {
			t.Errorf("quartiles of %v = %v, want %v", c.in, got, c.want)
		}
	}
}
