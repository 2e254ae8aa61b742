package engine

// Regression tests for the per-ordinal OSR cooldown map's lifecycle: the
// map judges ONE artifact, so every path that discards the artifact —
// successful reinstall, bailout-storm blacklist, deopt-storm requalify —
// must drop the map with it. Before the discardArtifact fix, only a
// successful install cleared it, so a function cycling through
// requalification accumulated cooldown entries about code that no longer
// existed, and the stale ordinals pre-parked the NEXT artifact's loop
// headers.

import (
	"testing"

	"github.com/jitbull/jitbull/internal/lir"
	"github.com/jitbull/jitbull/internal/native"
)

// stormEngine builds an engine whose first user function is set up for a
// hand-driven deopt storm.
func stormEngine(t *testing.T) (*Engine, *fnState) {
	t.Helper()
	e, err := New(`function f(x) { return x + 1; } print(f(1));`, Config{OSR: true, Speculate: true})
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	for _, st := range e.fns {
		if st.fn.Name == "f" {
			return e, st
		}
	}
	t.Fatal("function f not found")
	return nil, nil
}

// TestOSRCooldownClearedOnDeoptStormRequalify drives handleDeopt to the
// requalify threshold with cooldown entries parked and asserts the whole
// OSR/deopt history leaves with the artifact.
func TestOSRCooldownClearedOnDeoptStormRequalify(t *testing.T) {
	e, st := stormEngine(t)
	st.code = &lir.Code{DeoptExits: []lir.DeoptExit{{Ordinal: 0}}}
	st.deopts = maxDeoptsBeforeRequalify - 1
	e.coolDown(st, 1)
	e.coolDown(st, 2)

	_, done, err := e.handleDeopt(st, &native.DeoptState{Exit: 0})
	if err != nil || done {
		t.Fatalf("handleDeopt = done %v, err %v; want the bailout fallback", done, err)
	}
	if st.code != nil {
		t.Fatal("deopt storm did not discard the artifact")
	}
	if !st.disabledPasses["TypeSpeculation"] {
		t.Fatal("deopt storm did not disable TypeSpeculation")
	}
	if len(st.osrCooldown) != 0 {
		t.Errorf("cooldown map survived the requalify discard: %v", st.osrCooldown)
	}
	if st.deopts != 0 {
		t.Errorf("deopt count %d survived the requalify discard", st.deopts)
	}
}

// TestOSRCooldownDoesNotGrowAcrossRecompiles cycles one function through
// repeated cooldown + requalify rounds with a fresh ordinal per round and
// asserts the map never accumulates across cycles — the monotonic-growth
// regression the old install-only clearing allowed.
func TestOSRCooldownDoesNotGrowAcrossRecompiles(t *testing.T) {
	e, st := stormEngine(t)
	for cycle := 0; cycle < 8; cycle++ {
		st.code = &lir.Code{DeoptExits: []lir.DeoptExit{{Ordinal: 0}}}
		st.deopts = maxDeoptsBeforeRequalify - 1
		e.coolDown(st, cycle) // a distinct ordinal every cycle
		if len(st.osrCooldown) != 1 {
			t.Fatalf("cycle %d: cooldown = %d entries before discard, want 1 (stale entries leaked in)",
				cycle, len(st.osrCooldown))
		}
		if _, done, err := e.handleDeopt(st, &native.DeoptState{Exit: 0}); err != nil || done {
			t.Fatalf("cycle %d: handleDeopt = done %v, err %v", cycle, done, err)
		}
		if len(st.osrCooldown) != 0 {
			t.Fatalf("cycle %d: cooldown map grew across recompiles: %v", cycle, st.osrCooldown)
		}
	}
}

// TestOSRCooldownClearedOnBailoutBlacklist pins the same clearing on the
// bailout-storm blacklist path in CallFunction.
func TestOSRCooldownClearedOnBailoutBlacklist(t *testing.T) {
	e, st := stormEngine(t)
	st.code = &lir.Code{}
	e.coolDown(st, 5)
	st.bailouts = maxBailoutsBeforeBlacklist
	e.discardArtifact(st)
	e.quarantine(st, "test: bailout storm")
	if st.code != nil || len(st.osrCooldown) != 0 || st.deopts != 0 {
		t.Errorf("blacklist discard left OSR history behind: code=%v cooldown=%v deopts=%d",
			st.code, st.osrCooldown, st.deopts)
	}
}
