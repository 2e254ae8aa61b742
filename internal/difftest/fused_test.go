package difftest

import (
	"fmt"
	"testing"

	"github.com/jitbull/jitbull/internal/faults"
	"github.com/jitbull/jitbull/internal/octane"
	"github.com/jitbull/jitbull/internal/progen"
)

// fusedOptions is the superinstruction-tier contrast matrix: the default
// (fused) jit/jitbull/cached cells against their NoFuse twins, sharing one
// code cache so the NoFuse key byte is load-bearing.
func fusedOptions() Options {
	return Options{JITBULL: true, Async: true, Fusion: true}
}

// TestMatrixFused is the fusion acceptance oracle: 80 generated programs
// across fused and unfused cells — plain, under the JITBULL policy, and
// through the shared code cache — with zero divergences. Every cell is
// compared with interp on result value, `result` global, output, error
// kind and message, hijack and crash; jit+nofuse is also compared with
// its twin jit, and jit+nofuse+jitbull with jit+jitbull, on VM step count
// and policy verdicts. jit+nofuse+cached has no twin.
func TestMatrixFused(t *testing.T) {
	configs := Matrix(fusedOptions())
	var names []string
	for _, c := range configs {
		names = append(names, c.Name)
	}
	want := map[string]bool{"jit+nofuse": false, "jit+nofuse+jitbull": false, "jit+nofuse+cached": false}
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

// TestMatrixFusedOctane cross-checks the Octane-analogue corpus — the
// loop-heavy programs where fusion actually rewrites most of the stream —
// across the same fused/unfused cells.
func TestMatrixFusedOctane(t *testing.T) {
	configs := Matrix(fusedOptions())
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

// TestChaosFusePointCampaign concentrates a randomized chaos campaign
// entirely on the new fuse injection point: every fault fired during
// fusion must be contained (quarantine, interpreter semantics) and
// accounted 1:1, like any other pipeline stage.
func TestChaosFusePointCampaign(t *testing.T) {
	res := Chaos(ChaosOptions{Seed: 5, Runs: 60, Points: []faults.Point{faults.PointFuse}})
	for i, f := range res.Failures {
		if i >= 5 {
			t.Errorf("... and %d more failures", len(res.Failures)-i)
			break
		}
		t.Errorf("%s\nprogram:\n%s", f, f.Program)
	}
	t.Logf("fuse-point chaos: %s", res.Summary())
	if res.FaultsFired == 0 {
		t.Fatal("no fault fired at the fuse point across the whole campaign")
	}
}
