package progen

import (
	"math"
	"regexp"
	"strings"
	"testing"

	"github.com/jitbull/jitbull/internal/engine"
	"github.com/jitbull/jitbull/internal/passes"
	"github.com/jitbull/jitbull/internal/value"
)

// runCfg executes src and returns the `result` checksum.
func runCfg(t *testing.T, src string, cfg engine.Config) value.Value {
	t.Helper()
	e, err := engine.New(src, cfg)
	if err != nil {
		t.Fatalf("setup: %v\n%s", err, src)
	}
	if _, err := e.Run(); err != nil {
		t.Fatalf("run: %v\n%s", err, src)
	}
	return e.Global("result")
}

func same(a, b value.Value) bool {
	if !a.IsNumber() || !b.IsNumber() {
		return value.StrictEquals(a, b)
	}
	x, y := a.AsNumber(), b.AsNumber()
	return x == y || (math.IsNaN(x) && math.IsNaN(y))
}

// TestGenerateDistribution checks the generator actually emits the
// constructs it advertises, at a usable rate across seeds: compound loop
// conditions (logical operators, <= bounds), element-read-indexed stores,
// and polymorphic helper call sites.
func TestGenerateDistribution(t *testing.T) {
	features := map[string]func(src string) bool{
		"loop-cond-and": func(src string) bool {
			return strings.Contains(src, "&& ")
		},
		"loop-cond-le": func(src string) bool {
			return regexp.MustCompile(`for \(var i\d+ = 0; i\d+ <= `).MatchString(src)
		},
		"nested-store": func(src string) bool {
			return regexp.MustCompile(`\[\(Math\.abs\([ab]\[`).MatchString(src)
		},
		"helper-call": func(src string) bool {
			return regexp.MustCompile(`h[01]\(`).MatchString(src)
		},
		"polymorphic-helper-arg": func(src string) bool {
			return regexp.MustCompile(`h[01]\([^,)]* (<|>|<=|>=|==|!=) `).MatchString(src)
		},
	}
	const seeds = 50
	counts := map[string]int{}
	for seed := int64(0); seed < seeds; seed++ {
		src := Generate(seed, Options{})
		for name, present := range features {
			if present(src) {
				counts[name]++
			}
		}
	}
	for name := range features {
		// Every feature must show up in at least a fifth of the programs;
		// a rarer one contributes nothing to differential coverage.
		if counts[name] < seeds/5 {
			t.Errorf("feature %s present in only %d/%d programs", name, counts[name], seeds)
		}
	}
}

// TestHotLoopsAppendOnly pins the HotLoops contract: for any seed, the
// base program must be byte-identical with the option on or off — hot-loop
// material is strictly appended. Corpus tests that mix the two option sets
// rely on this to share seeds.
func TestHotLoopsAppendOnly(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		base := Generate(seed, Options{})
		hot := Generate(seed, Options{HotLoops: true})
		if !strings.HasPrefix(hot, base) {
			t.Fatalf("seed %d: HotLoops program does not extend the base program", seed)
		}
		if len(hot) == len(base) {
			t.Fatalf("seed %d: HotLoops appended nothing", seed)
		}
	}
}

// TestHotLoopsDistribution checks every HotLoops program carries the
// OSR/deopt exercise shapes: an undefined-flip helper (bare return), a
// boolean-flip helper consumed only for truthiness, long while loops with
// direct call-assignments, and a mid-loop array-length shrink.
func TestHotLoopsDistribution(t *testing.T) {
	features := map[string]*regexp.Regexp{
		"undefined-flip":    regexp.MustCompile(`function hu\(p, q\) \{ if \(p < \d+\) \{ return [^;]+; \} return; \}`),
		"boolean-flip":      regexp.MustCompile(`function hb\(p, q\) \{ if \(p < \d+\) \{ return [^;]+; \} return p % 2 == 0; \}`),
		"call-assign":       regexp.MustCompile(`c = h[ub]\(i0, z\);`),
		"truthiness-only":   regexp.MustCompile(`if \(c\) \{ s = \(s \+ i0\) % 1000003; \}`),
		"length-shrink":     regexp.MustCompile(`if \(i0 == \d+\) \{ a\.length = \d+; \}`),
		"hot-while":         regexp.MustCompile(`while \(i0 < 600\) \{`),
		"local-array-alloc": regexp.MustCompile(`var a = new Array\(16\);`),
	}
	for seed := int64(0); seed < 30; seed++ {
		src := Generate(seed, Options{HotLoops: true})
		for name, re := range features {
			if !re.MatchString(src) {
				t.Fatalf("seed %d: HotLoops program lacks %s\n%s", seed, name, src)
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	if Generate(42, Options{}) != Generate(42, Options{}) {
		t.Fatal("same seed must generate the same program")
	}
	if Generate(1, Options{}) == Generate(2, Options{}) {
		t.Fatal("different seeds should generate different programs")
	}
}

// TestDifferentialInterpVsJIT fuzzes the whole compilation pipeline: for
// many random programs, the interpreter and the optimizing JIT must agree.
func TestDifferentialInterpVsJIT(t *testing.T) {
	seeds := 60
	if testing.Short() {
		seeds = 12
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		src := Generate(seed, Options{Train: 50})
		want := runCfg(t, src, engine.Config{DisableJIT: true})
		got := runCfg(t, src, engine.Config{IonThreshold: 15})
		if !same(want, got) {
			t.Fatalf("seed %d: interp=%v jit=%v\n%s", seed, want, got, src)
		}
	}
}

// TestDifferentialHotLoops runs the hot-loop corpus under the OSR/deopt
// engine against the interpreter, and pins the transition-hit frequency:
// mid-loop tier-up (OSR entries) and guard failures (deopt exits) must
// actually fire across the corpus, or the generated programs exercise
// nothing. This is the distribution test the OSR difftest cells rely on.
func TestDifferentialHotLoops(t *testing.T) {
	seeds := 20
	if testing.Short() {
		seeds = 5
	}
	osrRuns, deoptRuns := 0, 0
	for seed := int64(0); seed < int64(seeds); seed++ {
		src := Generate(seed, Options{HotLoops: true})
		want := runCfg(t, src, engine.Config{DisableJIT: true})
		e, err := engine.New(src, engine.Config{
			IonThreshold: 15, OSR: true, Speculate: true,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if _, err := e.Run(); err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, src)
		}
		if got := e.Global("result"); !same(want, got) {
			t.Fatalf("seed %d: interp=%v osr=%v\n%s", seed, want, got, src)
		}
		st := e.Stats()
		if st.OSREntries > 0 {
			osrRuns++
		}
		if st.DeoptExits > 0 {
			deoptRuns++
		}
	}
	// Every hot-loop program runs two ~600-iteration loops from a single
	// warm call, so mid-loop entry should be the norm, and the undefined
	// flip guarantees at least one guard failure per speculated program.
	if osrRuns < seeds*3/4 {
		t.Errorf("OSR entries fired in only %d/%d hot-loop runs", osrRuns, seeds)
	}
	if deoptRuns < seeds/2 {
		t.Errorf("deopt exits fired in only %d/%d hot-loop runs", deoptRuns, seeds)
	}
}

// TestDifferentialEachPassDisabled re-runs random programs with every
// disableable optimization pass switched off, one at a time — the
// correctness property the go/no-go policy depends on: disabling any pass
// must never change results.
func TestDifferentialEachPassDisabled(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 4
	}
	var disableable []string
	for _, name := range passes.PassNames() {
		if passes.Disableable(name) {
			disableable = append(disableable, name)
		}
	}
	for seed := int64(100); seed < int64(100+seeds); seed++ {
		src := Generate(seed, Options{Train: 40})
		want := runCfg(t, src, engine.Config{DisableJIT: true})
		for _, pass := range disableable {
			e, err := engine.New(src, engine.Config{IonThreshold: 15})
			if err != nil {
				t.Fatal(err)
			}
			e.SetPolicy(forcedPolicy{passes: []string{pass}})
			if _, err := e.Run(); err != nil {
				t.Fatalf("seed %d, %s disabled: %v\n%s", seed, pass, err, src)
			}
			if got := e.Global("result"); !same(want, got) {
				t.Fatalf("seed %d, %s disabled: interp=%v got=%v\n%s", seed, pass, want, got, src)
			}
		}
	}
}

// TestDifferentialAllOptionalPassesDisabled runs with every optional pass
// off at once (the most de-optimized JIT configuration).
func TestDifferentialAllOptionalPassesDisabled(t *testing.T) {
	var disableable []string
	for _, name := range passes.PassNames() {
		if passes.Disableable(name) {
			disableable = append(disableable, name)
		}
	}
	for seed := int64(300); seed < 312; seed++ {
		src := Generate(seed, Options{Train: 40})
		want := runCfg(t, src, engine.Config{DisableJIT: true})
		e, err := engine.New(src, engine.Config{IonThreshold: 15})
		if err != nil {
			t.Fatal(err)
		}
		e.SetPolicy(forcedPolicy{passes: disableable})
		if _, err := e.Run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got := e.Global("result"); !same(want, got) {
			t.Fatalf("seed %d: interp=%v got=%v\n%s", seed, want, got, src)
		}
	}
}

// forcedPolicy is an engine.Policy that disables a fixed pass list for
// every compilation (a test harness, not a detector).
type forcedPolicy struct {
	passes []string
}

func (forcedPolicy) Active() bool { return true }

func (p forcedPolicy) BeginCompile(string) (passes.Observer, func() engine.CompileDecision) {
	return nil, func() engine.CompileDecision {
		return engine.CompileDecision{DisabledPasses: p.passes}
	}
}
