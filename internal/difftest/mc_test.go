package difftest

import (
	"fmt"
	"testing"

	"github.com/jitbull/jitbull/internal/faults"
	"github.com/jitbull/jitbull/internal/mc"
	"github.com/jitbull/jitbull/internal/octane"
	"github.com/jitbull/jitbull/internal/progen"
)

// mcOptions is the machine-code-tier contrast matrix: the default (mc)
// jit/jitbull/cached cells against their NoMC twins — fused threaded and
// unfused switch — sharing one code cache so the mc/arch key byte is
// load-bearing, plus the OSR/deopt transitions on both sides.
func mcOptions() Options {
	return Options{JITBULL: true, Async: true, OSR: true, MC: true}
}

// TestMatrixMC is the machine-code-tier acceptance oracle: 80 generated
// programs across mc and threaded cells — plain, under the JITBULL
// policy, with OSR/deopt transitions, and through the shared code cache —
// with zero divergences. Every cell is compared with interp on result
// value, `result` global, output, error kind and message, hijack and
// crash. The cells that differ from a default-executor cell only in NoMC/
// NoFuse are also compared with that twin on VM step count and policy
// verdicts: jit+nomc and jit+nomc+nofuse with jit, jit+nomc+jitbull with
// jit+jitbull, jit+nomc+osr+deopt with jit+osr+deopt. The cached cell has
// no twin: a warm hit installs earlier than a compile does.
func TestMatrixMC(t *testing.T) {
	configs := Matrix(mcOptions())
	var names []string
	for _, c := range configs {
		names = append(names, c.Name)
	}
	want := map[string]bool{
		"jit+nomc":           false,
		"jit+nomc+nofuse":    false,
		"jit+nomc+jitbull":   false,
		"jit+nomc+osr+deopt": false,
		"jit+nomc+cached":    false,
	}
	for _, n := range names {
		if _, ok := want[n]; ok {
			want[n] = true
		}
	}
	for n, seen := range want {
		if !seen {
			t.Fatalf("matrix %v lacks the %s cell", names, n)
		}
	}
	const programs = 80
	for seed := int64(0); seed < programs; seed++ {
		src := progen.Generate(seed, progen.Options{})
		_, divs := Diff(src, configs)
		if len(divs) > 0 {
			t.Fatalf("%s\nprogram:\n%s", Report(fmt.Sprintf("seed %d", seed), divs), src)
		}
	}
}

// TestMatrixMCHotLoops drives the OSR/deopt exercise corpus through the
// mc-vs-threaded cells: mid-loop entries and guard exits on the
// machine-code tier must land at the same interpreter states as on the
// threaded tiers.
func TestMatrixMCHotLoops(t *testing.T) {
	if testing.Short() {
		t.Skip("hot-loop corpus is slow")
	}
	configs := Matrix(mcOptions())
	const programs = 25
	for seed := int64(0); seed < programs; seed++ {
		src := progen.Generate(seed, progen.Options{HotLoops: true})
		_, divs := Diff(src, configs)
		if len(divs) > 0 {
			t.Fatalf("%s\nprogram:\n%s", Report(fmt.Sprintf("hot seed %d", seed), divs), src)
		}
	}
}

// TestMatrixMCOctane cross-checks the Octane-analogue corpus — the
// loop-heavy programs where the machine-code tier carries nearly every
// step — across the same mc/threaded cells.
func TestMatrixMCOctane(t *testing.T) {
	configs := Matrix(mcOptions())
	for _, b := range octane.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			_, divs := Diff(b.Source(1), configs)
			if len(divs) > 0 {
				t.Errorf("%s", Report(b.Name, divs))
			}
		})
	}
}

// TestChaosMCPointCampaign concentrates a randomized chaos campaign on
// the two machine-code attach points: every fault fired at mc.emit or
// mc.install must be contained — the function keeps its threaded artifact
// and degrades, semantics identical to the clean interpreter — and
// accounted 1:1 like any other pipeline stage.
func TestChaosMCPointCampaign(t *testing.T) {
	if !mc.Supported() {
		t.Skip("machine-code tier not supported on this platform: attach points never fire")
	}
	for _, p := range []faults.Point{faults.PointMCEmit, faults.PointMCInstall} {
		p := p
		t.Run(string(p), func(t *testing.T) {
			res := Chaos(ChaosOptions{Seed: 11, Runs: 60, Points: []faults.Point{p}})
			for i, f := range res.Failures {
				if i >= 5 {
					t.Errorf("... and %d more failures", len(res.Failures)-i)
					break
				}
				t.Errorf("%s\nprogram:\n%s", f, f.Program)
			}
			t.Logf("%s chaos: %s", p, res.Summary())
			if res.FaultsFired == 0 {
				t.Fatalf("no fault fired at %s across the whole campaign", p)
			}
		})
	}
}
