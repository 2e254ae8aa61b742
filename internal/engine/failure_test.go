package engine

// Failure-injection tests: resource exhaustion, hostile configurations and
// recovery behavior.

import (
	"errors"
	"strings"
	"testing"

	"github.com/jitbull/jitbull/internal/interp"
)

func TestHeapExhaustionIsAScriptError(t *testing.T) {
	src := `
var keep = new Array(0);
for (var i = 0; i < 100000; i++) {
  keep.push(i);
  var waste = new Array(64);
  waste[0] = i;
}`
	e, err := New(src, Config{HeapCells: 2048, DisableJIT: true})
	if err != nil {
		t.Fatal(err)
	}
	_, runErr := e.Run()
	if runErr == nil {
		t.Fatal("expected out-of-memory error")
	}
	var re *interp.RuntimeError
	if !errors.As(runErr, &re) && !IsCrash(runErr) {
		t.Fatalf("OOM should surface as a runtime error or fault, got %T %v", runErr, runErr)
	}
}

func TestStepBudgetCoversNativeCode(t *testing.T) {
	// The hot loop runs in native code; the shared budget must still
	// stop it.
	src := `
function spin(n) {
  var s = 0;
  for (var i = 0; i < n; i++) {
    for (var j = 0; j < n; j++) { s += i ^ j; }
  }
  return s;
}
var result = 0;
for (var r = 0; r < 100000; r++) { result += spin(1000); }
`
	e, err := New(src, Config{IonThreshold: 5, MaxSteps: 2_000_000})
	if err != nil {
		t.Fatal(err)
	}
	_, runErr := e.Run()
	if runErr == nil {
		t.Fatal("expected budget exhaustion")
	}
	msg := runErr.Error()
	if !strings.Contains(msg, "budget") {
		t.Fatalf("unexpected error: %v", runErr)
	}
}

func TestDeepNativeRecursion(t *testing.T) {
	src := `
function down(n) {
  if (n <= 0) { return 0; }
  return down(n - 1) + 1;
}
var warm = 0;
for (var i = 0; i < 50; i++) { warm += down(5); }
var result = down(3000);
`
	e, err := New(src, Config{IonThreshold: 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := e.Global("result").AsNumber(); got != 3000 {
		t.Fatalf("result = %v", got)
	}
	if e.Stats().NrJIT != 1 {
		t.Fatalf("down not JITed: %+v", e.Stats())
	}
}

func TestBailoutBlacklistEventuallyStopsRecompiling(t *testing.T) {
	// A function whose guard fails on every call after compilation: it
	// must be blacklisted, not bail forever.
	src := `
function probe(a, i) { return a[i] + 1; }
var a = [1, 2, 3];
var result = 0;
for (var r = 0; r < 200; r++) { result += probe(a, 0); }
for (var r = 0; r < 200; r++) { result += probe(a, 99); }
`
	e, err := New(src, Config{IonThreshold: 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Stats().Bailouts == 0 {
		t.Fatalf("expected bailouts: %+v", e.Stats())
	}
	if e.Stats().Bailouts > maxBailoutsBeforeBlacklist {
		t.Fatalf("blacklist did not engage: %d bailouts", e.Stats().Bailouts)
	}
}

func TestZeroParamAndManyParamFunctions(t *testing.T) {
	src := `
function zero() { return 7; }
function many(a, b, c, d, e, f, g, h) { return a + b + c + d + e + f + g + h; }
var result = 0;
for (var i = 0; i < 60; i++) {
  result += zero() + many(1, 2, 3, 4, 5, 6, 7, 8);
}
`
	e, err := New(src, Config{IonThreshold: 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := e.Global("result").AsNumber(); got != 60*(7+36) {
		t.Fatalf("result = %v", got)
	}
	if e.Stats().NrJIT != 2 {
		t.Fatalf("stats: %+v", e.Stats())
	}
}

func TestMissingArgsAtCompiledCallSite(t *testing.T) {
	// Calls with fewer args than params observe Undefined for the missing
	// ones and must not be miscompiled.
	src := `
function f(a, b) { return a + (b === undefined ? 0 : b); }
var result = 0;
for (var i = 0; i < 100; i++) { result += f(1, 2); }
result += f(5);
`
	// f uses ===undefined -> not JIT-able; semantic check only.
	e, err := New(src, Config{IonThreshold: 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := e.Global("result").AsNumber(); got != 305 {
		t.Fatalf("result = %v", got)
	}
}

func TestEngineRejectsBadSource(t *testing.T) {
	if _, err := New("var = ;", Config{}); err == nil {
		t.Fatal("syntax error must surface from New")
	}
	if _, err := New("undeclared();", Config{}); err == nil {
		t.Fatal("compile error must surface from New")
	}
}

func TestConfigDefaults(t *testing.T) {
	e, err := New("var result = 1;", Config{})
	if err != nil {
		t.Fatal(err)
	}
	if e.cfg.IonThreshold != DefaultIonThreshold {
		t.Fatalf("defaults not applied: %+v", e.cfg)
	}
}
