package engine

import (
	"math"
	"strings"
	"testing"

	"github.com/jitbull/jitbull/internal/passes"
	"github.com/jitbull/jitbull/internal/value"
)

// jitCfg returns a config with tiny thresholds so tests exercise the Ion
// tier quickly.
func jitCfg() Config {
	return Config{IonThreshold: 8}
}

// runBoth executes src under NoJIT and under JIT and asserts the `result`
// global and printed output agree, returning the JIT engine.
func runBoth(t *testing.T, src string, bugs passes.BugSet) *Engine {
	t.Helper()
	var outInterp, outJIT strings.Builder

	cfgI := Config{DisableJIT: true, Out: &outInterp}
	eI, _, errI := RunScript(src, cfgI)
	if errI != nil {
		t.Fatalf("interp run: %v", errI)
	}
	cfgJ := jitCfg()
	cfgJ.Out = &outJIT
	cfgJ.Bugs = bugs
	eJ, _, errJ := RunScript(src, cfgJ)
	if errJ != nil {
		t.Fatalf("jit run: %v", errJ)
	}
	ri, rj := eI.Global("result"), eJ.Global("result")
	if !looselySame(ri, rj) {
		t.Fatalf("result mismatch: interp=%v jit=%v", ri, rj)
	}
	if outInterp.String() != outJIT.String() {
		t.Fatalf("output mismatch:\ninterp: %q\njit:    %q", outInterp.String(), outJIT.String())
	}
	return eJ
}

func looselySame(a, b value.Value) bool {
	if a.Type() != b.Type() {
		return false
	}
	if a.IsNumber() {
		x, y := a.AsNumber(), b.AsNumber()
		return x == y || (math.IsNaN(x) && math.IsNaN(y))
	}
	return value.StrictEquals(a, b)
}

const hotLoopSrc = `
function work(a, n) {
  var s = 0;
  for (var i = 0; i < n; i++) {
    s = s + a[i % a.length] * 2 - 1;
  }
  return s;
}
var arr = new Array(16);
for (var i = 0; i < 16; i++) { arr[i] = i * 1.5; }
var result = 0;
for (var r = 0; r < 50; r++) { result = work(arr, 64); }
`

func TestDifferentialHotLoop(t *testing.T) {
	e := runBoth(t, hotLoopSrc, nil)
	if e.Stats().NrJIT < 1 {
		t.Fatalf("hot function was not JITed: %+v", e.Stats())
	}
	if e.Stats().Bailouts != 0 {
		t.Fatalf("unexpected bailouts: %+v", e.Stats())
	}
}

func TestDifferentialCorpus(t *testing.T) {
	corpus := map[string]string{
		"fib": `
function fib(n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }
var result = 0;
for (var i = 0; i < 40; i++) { result = fib(12); }`,
		"mathops": `
function m(x) { return Math.sqrt(x) + Math.abs(-x) + Math.floor(x / 3) + Math.pow(x, 0.5) + Math.min(x, 2) + Math.max(x, 3); }
var result = 0;
for (var i = 0; i < 60; i++) { result += m(i); }`,
		"bitops": `
function b(x) { return ((x & 255) | 16) ^ (x << 2) ^ (x >> 1) ^ (x >>> 3); }
var result = 0;
for (var i = 0; i < 60; i++) { result += b(i * 7); }`,
		"globals": `
var acc = 0;
function bump(x) { acc = acc + x; return acc; }
var result = 0;
for (var i = 0; i < 60; i++) { result = bump(i); }`,
		"arrays": `
function sum(a) { var s = 0; for (var i = 0; i < a.length; i++) { s += a[i]; } return s; }
function fill(a, v) { for (var i = 0; i < a.length; i++) { a[i] = v + i; } }
var a = new Array(32);
var result = 0;
for (var r = 0; r < 40; r++) { fill(a, r); result = sum(a); }`,
		"pushpop": `
function churn(a, n) {
  for (var i = 0; i < n; i++) { a.push(i * 0.5); }
  var s = 0;
  for (var j = 0; j < n; j++) { s += a.pop(); }
  return s;
}
var a = new Array(0);
var result = 0;
for (var r = 0; r < 40; r++) { result += churn(a, 8); }`,
		"branches": `
function cls(x) {
  if (x < 10) { return 1; }
  else if (x < 100) { return 2; }
  return 3;
}
var result = 0;
for (var i = 0; i < 120; i++) { result += cls(i * 3); }`,
		"conditionals": `
function pick(a, b) { return a < b ? a * 2 : b * 3; }
var result = 0;
for (var i = 0; i < 60; i++) { result += pick(i, 30); }`,
		"logical": `
function l(a, b) { return (a && b) + (a || b); }
var result = 0;
for (var i = 0; i < 60; i++) { result += l(i % 3, i % 5); }`,
		"nestedloops": `
function mat(n) {
  var s = 0;
  for (var i = 0; i < n; i++) {
    for (var j = 0; j < n; j++) { s += i * j; }
  }
  return s;
}
var result = 0;
for (var r = 0; r < 40; r++) { result = mat(6); }`,
		"allocation": `
function makeVec(n) { var v = new Array(n); for (var i = 0; i < n; i++) { v[i] = i; } return v; }
function use(n) { var v = makeVec(n); return v[n - 1] + v.length; }
var result = 0;
for (var r = 0; r < 40; r++) { result += use(8); }`,
		"dowhile": `
function dw(n) { var s = 0; do { s += n; n--; } while (n > 0); return s; }
var result = 0;
for (var r = 0; r < 40; r++) { result = dw(20); }`,
		"updateexprs": `
function u(a) { var t = 0; for (var i = 0; i < a.length; i++) { a[i]++; t += a[i]; } return t; }
var a = [1, 2, 3, 4, 5, 6, 7, 8];
var result = 0;
for (var r = 0; r < 40; r++) { result = u(a); }`,
		"negzero_nan": `
function nz(x) { var q = 0 / x; return (q == q) ? 1 : -1; }
var result = 0;
for (var r = 1; r < 60; r++) { result += nz(r - 30); }`,
		"random": `
function rnd() { return Math.floor(Math.random() * 100); }
var result = 0;
for (var r = 0; r < 60; r++) { result += rnd(); }`,
	}
	for name, src := range corpus {
		src := src
		t.Run(name, func(t *testing.T) {
			runBoth(t, src, nil)
		})
	}
}

func TestDifferentialCorpusWithAllBugsActive(t *testing.T) {
	// The benign corpus must behave identically even on a vulnerable
	// engine: the injected bugs only fire on the exploit idioms.
	bugs := passes.BugSet{}
	for _, cve := range passes.AllCVEs {
		bugs[cve] = true
	}
	src := hotLoopSrc + `
function copyInto(dst, src2, n) {
  for (var i = 0; i < n; i++) { dst[i] = src2[i]; }
  return dst[0];
}
var d = new Array(16);
var s2 = new Array(16);
for (var i = 0; i < 16; i++) { s2[i] = i; }
for (var r = 0; r < 40; r++) { result += copyInto(d, s2, 16); }`
	runBoth(t, src, bugs)
}

func TestPolymorphicFunctionStaysInterpreted(t *testing.T) {
	src := `
function id(x) { return x; }
var a = [1];
var result = 0;
for (var i = 0; i < 30; i++) { result += id(2); }
for (var i = 0; i < 30; i++) { id(a); }
`
	cfg := jitCfg()
	e, _, err := RunScript(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// id was compiled as number->number; the array calls must bail, and
	// results must stay correct.
	if e.Global("result").AsNumber() != 60 {
		t.Fatalf("result = %v", e.Global("result"))
	}
	if e.Stats().Bailouts == 0 {
		t.Fatalf("expected bailouts from polymorphic calls: %+v", e.Stats())
	}
}

func TestUnsupportedFunctionStaysInterpreted(t *testing.T) {
	src := `
function s(x) { return "v" + x; }
var result = "";
for (var i = 0; i < 40; i++) { result = s(i); }
`
	e, _, err := RunScript(src, jitCfg())
	if err != nil {
		t.Fatal(err)
	}
	if e.Stats().NrJIT != 0 || e.Stats().InterpOnly != 1 {
		t.Fatalf("string function must stay interpreted: %+v", e.Stats())
	}
	if e.Global("result").AsString() != "v39" {
		t.Fatalf("result = %v", e.Global("result"))
	}
}

func TestBailoutFallbackKeepsSemantics(t *testing.T) {
	// Reads beyond length bail out of native code (hole semantics need the
	// interpreter); the result must match pure interpretation.
	src := `
function probe(a, i) { return a[i] + 1; }
var a = [5, 6, 7];
var result = 0;
for (var r = 0; r < 30; r++) { result += probe(a, 1); }
result += probe(a, 99);
`
	e := runBoth(t, src, nil)
	if e.Stats().Bailouts == 0 {
		t.Fatalf("OOB probe should bail: %+v", e.Stats())
	}
}

func TestNoJITModeNeverCompiles(t *testing.T) {
	cfg := Config{DisableJIT: true}
	e, _, err := RunScript(hotLoopSrc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if e.Stats().Compiles != 0 || e.Stats().NrJIT != 0 {
		t.Fatalf("NoJIT mode compiled something: %+v", e.Stats())
	}
}

func TestThresholdRespected(t *testing.T) {
	src := `
function f(x) { return x * 2; }
var result = 0;
for (var i = 0; i < 7; i++) { result += f(i); }
`
	cfg := Config{IonThreshold: 100}
	e, _, err := RunScript(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if e.Stats().Compiles != 0 {
		t.Fatalf("cold function compiled: %+v", e.Stats())
	}
}

func TestFunctionReturningArrayIsJITed(t *testing.T) {
	src := `
function mk(n) { var a = new Array(n); for (var i = 0; i < n; i++) { a[i] = i; } return a; }
function total(n) { var a = mk(n); return a[n - 1]; }
var result = 0;
for (var r = 0; r < 40; r++) { result += total(6); }
`
	e := runBoth(t, src, nil)
	if e.Stats().NrJIT < 2 {
		t.Fatalf("array-returning chain not JITed: %+v", e.Stats())
	}
}

func TestEngineStatsCountJITedFunctionsOnce(t *testing.T) {
	e, _, err := RunScript(hotLoopSrc, jitCfg())
	if err != nil {
		t.Fatal(err)
	}
	if e.Stats().NrJIT != 1 || e.Stats().Compiles != 1 {
		t.Fatalf("stats: %+v", e.Stats())
	}
}

func TestRecursionThroughJIT(t *testing.T) {
	src := `
function fact(n) { if (n <= 1) { return 1; } return n * fact(n - 1); }
var result = 0;
for (var r = 0; r < 40; r++) { result = fact(12); }
`
	runBoth(t, src, nil)
}

func TestVulnerableEngineStillRunsBenignCode(t *testing.T) {
	for _, cve := range passes.AllCVEs {
		cve := cve
		t.Run(cve, func(t *testing.T) {
			runBoth(t, hotLoopSrc, passes.BugSet{cve: true})
		})
	}
}
