package engine

import (
	"reflect"
	"sync"
	"testing"

	"github.com/jitbull/jitbull/internal/mir"
	"github.com/jitbull/jitbull/internal/obs"
	"github.com/jitbull/jitbull/internal/octane"
	"github.com/jitbull/jitbull/internal/passes"
)

// tracePolicy is a minimal always-on policy (the engine package cannot
// import core): it observes every pass and vetoes nothing, which is enough
// to light up the dna.extract and decide probes.
type tracePolicy struct{}

func (tracePolicy) Active() bool { return true }

func (tracePolicy) BeginCompile(string) (passes.Observer, func() CompileDecision) {
	return func(int, string, *mir.Snapshot, *mir.Snapshot) {},
		func() CompileDecision { return CompileDecision{} }
}

// TestTraceGoldenCompileSequence pins the event order of one successful
// traced compilation, lifecycle facts included: the function's first call,
// the trigger instant (at its second call: the first ran its loop 64 times,
// so its back edges trigger the compile), mirbuild
// span, one (pass span, dna.extract span) pair per pipeline pass, the
// policy decide span, lir, regalloc, native.fuse, then the compile span
// (spans are recorded at End, and the span is the pipeline attempt on
// every route — inline, queue — so it closes before the outcome is
// applied), the tier instant and the native.install instant.
func TestTraceGoldenCompileSequence(t *testing.T) {
	ring := obs.NewRing(0)
	cfg := jitCfg()
	cfg.Tracer = obs.NewTracer(ring)
	e, err := New(hotLoopSrc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.SetPolicy(tracePolicy{})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	events := ring.Events()
	if len(events) == 0 {
		t.Fatal("traced run recorded no events")
	}

	want := []string{"interp", "compile.trigger", "mirbuild"}
	for _, pn := range passes.PassNames() {
		want = append(want, pn, "dna.extract")
	}
	want = append(want, "decide", "lir", "regalloc", "native.fuse", "compile", "tier", "native.install")

	if len(events) < len(want) {
		t.Fatalf("recorded %d events, want at least %d", len(events), len(want))
	}
	got := make([]string, len(want))
	for i := range want {
		got[i] = events[i].Name
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("first compile's event sequence diverged:\ngot  %v\nwant %v", got, want)
	}

	// Span/instant kinds, categories, and key args of the golden prefix.
	argStr := func(ev obs.Event, key string) (string, bool) {
		for _, a := range ev.Args[:ev.NArgs] {
			if a.Key == key && a.IsStr {
				return a.Str, true
			}
		}
		return "", false
	}
	argInt := func(ev obs.Event, key string) (int64, bool) {
		for _, a := range ev.Args[:ev.NArgs] {
			if a.Key == key && !a.IsStr {
				return a.Val, true
			}
		}
		return 0, false
	}
	for i := range want {
		ev := events[i]
		switch ev.Name {
		case "interp", "compile.trigger", "tier", "native.install":
			if ev.Kind != obs.KindInstant {
				t.Errorf("%s: kind = %v, want instant", ev.Name, ev.Kind)
			}
		case "mirbuild", "lir", "regalloc", "native.fuse", "compile":
			if ev.Kind != obs.KindSpan || ev.Cat != obs.CatCompile {
				t.Errorf("%s: kind/cat = %v/%q, want span/%q", ev.Name, ev.Kind, ev.Cat, obs.CatCompile)
			}
		case "decide":
			if ev.Cat != obs.CatPolicy {
				t.Errorf("decide: cat = %q, want %q", ev.Cat, obs.CatPolicy)
			}
			if v, ok := argStr(ev, "verdict"); !ok || v != "go" {
				t.Errorf("decide: verdict = %q, want \"go\"", v)
			}
		case "dna.extract":
			if ev.Cat != obs.CatDNA {
				t.Errorf("dna.extract: cat = %q, want %q", ev.Cat, obs.CatDNA)
			}
		default: // an optimization pass
			if ev.Cat != obs.CatPass {
				t.Errorf("%s: cat = %q, want %q", ev.Name, ev.Cat, obs.CatPass)
			}
			if _, ok := argInt(ev, "instrs_in"); !ok {
				t.Errorf("%s: pass span lacks instrs_in", ev.Name)
			}
			if _, ok := argInt(ev, "instrs_out"); !ok {
				t.Errorf("%s: pass span lacks instrs_out", ev.Name)
			}
		}
	}
	trigger := events[1]
	if calls, _ := argInt(trigger, "calls"); calls != 2 {
		t.Errorf("compile.trigger: calls = %d, want 2", calls)
	}
	if n, _ := argInt(trigger, "back_edges"); n != 64 {
		t.Errorf("compile.trigger: back_edges = %d, want 64", n)
	}
	compile := events[len(want)-3]
	if res, ok := argStr(compile, "result"); !ok || res != "ok" {
		t.Errorf("compile span result = %q, want \"ok\"", res)
	}
	// Every event of the sequence is about the one function.
	for i := range want {
		if events[i].Func != "work" {
			t.Errorf("%s: func = %q, want \"work\"", events[i].Name, events[i].Func)
		}
	}

	// Spans must nest inside the enclosing compile span's interval.
	for i := 1; i < len(want)-3; i++ {
		ev := events[i]
		if ev.Kind != obs.KindSpan {
			continue
		}
		if ev.TS < compile.TS || ev.TS+ev.Dur > compile.TS+compile.Dur {
			t.Errorf("%s [%d,%d] escapes the compile span [%d,%d]",
				ev.Name, ev.TS, ev.TS+ev.Dur, compile.TS, compile.TS+compile.Dur)
		}
	}
}

// TestTraceDisabledIsSilent: without a tracer nothing records, and the
// nil-tracer engine accessors stay nil (the zero-overhead contract).
func TestTraceDisabledIsSilent(t *testing.T) {
	e, _, err := RunScript(hotLoopSrc, jitCfg())
	if err != nil {
		t.Fatal(err)
	}
	if e.Tracer() != nil {
		t.Fatal("untraced engine reports a tracer")
	}
	if e.Stats().Compiles == 0 {
		t.Fatal("fixture did not compile anything")
	}
}

// TestSharedMetricsRegistry holds the Config.Metrics contract: engines
// running on separate goroutines may share one registry, and its counters
// are then the sum of every engine's own Stats with no lost update (the
// -race CI job runs this test).
func TestSharedMetricsRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	suite := octane.Suite()
	stats := make([]Stats, len(suite))
	var wg sync.WaitGroup
	for i, b := range suite {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e, err := New(b.Source(1), Config{IonThreshold: 40, Metrics: reg})
			if err == nil {
				_, err = e.Run()
			}
			if err != nil {
				t.Errorf("%s: %v", b.Name, err)
				return
			}
			stats[i] = e.Stats()
		}()
	}
	wg.Wait()
	var compiles, jit int64
	for _, s := range stats {
		compiles += int64(s.Compiles)
		jit += int64(s.NrJIT)
	}
	if compiles == 0 {
		t.Fatal("the suite compiled nothing; the sum is vacuous")
	}
	if got := reg.Counter("engine.compiles").Value(); got != compiles {
		t.Errorf("shared engine.compiles = %d, want the per-engine sum %d", got, compiles)
	}
	if got := reg.Counter("engine.nr_jit").Value(); got != jit {
		t.Errorf("shared engine.nr_jit = %d, want the per-engine sum %d", got, jit)
	}
	if h, ok := reg.Snapshot()["compile.pass_ns"].(obs.HistSnapshot); !ok || h.Count == 0 {
		t.Errorf("compile.pass_ns missing from the shared registry: %+v", reg.Snapshot()["compile.pass_ns"])
	}
}
