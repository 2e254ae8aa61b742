package difftest

// Disk-fault chaos for the persistent store: every (store point × fault
// kind) combination, swept deterministically over generated programs.
// Unlike the compile-path campaign, the injector is armed ONLY on the
// store — an injector on the engine would veto cache keys and the disk
// boundary would never be exercised. The invariants are the store's
// fail-safe contract:
//
//  1. no panic escapes, whatever the schedule does to the disk;
//  2. semantics are interpreter-identical in BOTH simulated processes
//     (the populating cold one and the warm one over the damaged store);
//  3. verdicts are never wrong: each process's go/no-go counters equal
//     the same process's counters in a fault-free control run — a
//     corrupted record may cost a recompile, never change a decision;
//  4. fault accounting is 1:1 — every fault the injector fired is
//     accounted by exactly one store.faults_injected tick;
//  5. no corrupt record survives: after the campaign run, an offline
//     Verify pass over the store must find every remaining record
//     trustworthy once the quarantine sweep has run.

import (
	"fmt"
	"time"

	"github.com/jitbull/jitbull/internal/engine"
	"github.com/jitbull/jitbull/internal/faults"
	"github.com/jitbull/jitbull/internal/obs"
	"github.com/jitbull/jitbull/internal/progen"
	"github.com/jitbull/jitbull/internal/store"
)

// StoreChaosOptions bounds a store chaos campaign.
type StoreChaosOptions struct {
	// Seed is the base seed; run i uses Seed+i for its program and plan.
	Seed int64
	// Runs is the number of runs (default 208 = 13 sweeps of the full
	// 2-point × 8-kind grid).
	Runs int
	// Dir is the scratch root for the per-run store directories. Each run
	// uses Dir/run-<i>; the caller owns creation and cleanup of Dir.
	Dir string
	// JITBULL (default true via withDefaults' doc; set NoJITBULL to drop
	// the policy) arms verdict replay so "zero wrong verdicts" means
	// JITBULL verdicts, not just artifacts.
	NoJITBULL bool
}

func (o StoreChaosOptions) withDefaults() StoreChaosOptions {
	if o.Runs <= 0 {
		o.Runs = 208
	}
	return o
}

// storeChaosKinds is the full kind set the campaign sweeps: the five
// disk kinds plus the three generic ones (error, panic, stall — a store
// must contain those too).
func storeChaosKinds() []faults.Kind {
	return append(faults.DiskKinds(), faults.Kinds()...)
}

// storeChaosPlan derives run i's single-rule schedule: the point×kind
// grid is swept in row-major order so every combination is exercised
// every len(points)×len(kinds) runs, with probability/caps varied
// deterministically on top.
func storeChaosPlan(i int, seed int64) faults.Plan {
	points := faults.StorePoints()
	kinds := storeChaosKinds()
	cell := i % (len(points) * len(kinds))
	probs := []float64{1, 1, 0.5}
	return faults.Plan{Seed: seed, Rules: []faults.Rule{{
		Point:       points[cell%len(points)],
		Kind:        kinds[cell/len(points)],
		Probability: probs[i%len(probs)],
		AfterHits:   i % 2,
		Times:       i % 3, // 0 = unlimited
	}}}
}

// StoreChaos executes the campaign. Failures carry full (seed, plan,
// program) reproducers like the compile-path campaign's.
func StoreChaos(o StoreChaosOptions) ChaosResult {
	o = o.withDefaults()
	var res ChaosResult
	for i := 0; i < o.Runs; i++ {
		seed := o.Seed + int64(i)
		src := progen.Generate(seed, progen.Options{})
		plan := storeChaosPlan(i, seed)
		dir := fmt.Sprintf("%s/run-%d", o.Dir, i)
		fired, fail := storeChaosOne(seed, src, plan, dir, o)
		res.Runs++
		res.FaultsFired += fired
		if fired > 0 {
			res.FaultedRuns++
		}
		if fail != nil {
			res.Failures = append(res.Failures, *fail)
		}
	}
	return res
}

// StoreChaosReplay re-executes one recorded failure deterministically.
func StoreChaosReplay(f ChaosFailure, dir string, o StoreChaosOptions) (int, *ChaosFailure) {
	o = o.withDefaults()
	return storeChaosOne(f.RunSeed, f.Program, f.Plan, dir, o)
}

// storeChaosOne executes a single (program, plan) pair: an interpreter
// reference, a fault-free control pass (cold + warm), then the faulted
// pass over its own store directory, holding all five invariants.
func storeChaosOne(seed int64, src string, plan faults.Plan, dir string, o StoreChaosOptions) (fired int, fail *ChaosFailure) {
	jitbull := !o.NoJITBULL
	base := chaosEngine(ChaosOptions{})
	refCfg := Config{Name: "interp", Engine: base}
	refCfg.Engine.DisableJIT = true
	ref := Observe(src, refCfg)

	mk := func() *ChaosFailure {
		if fail == nil {
			fail = &ChaosFailure{RunSeed: seed, Plan: plan, Program: src}
		}
		return fail
	}
	diverge := func(format string, args ...any) {
		mk().Divergences = append(mk().Divergences, fmt.Sprintf(format, args...))
	}

	// Fault-free control: the verdict-counter reference for both phases.
	ctlStore, err := store.Open(dir+"/control", store.Options{})
	if err != nil {
		diverge("control store: %v", err)
		return 0, fail
	}
	ctlCold := storeProcess(src, base, ctlStore, jitbull).Obs
	ctlWarm := storeProcess(src, base, ctlStore, jitbull).Obs
	if ctlCold.SetupErr != "" || ctlWarm.SetupErr != "" {
		diverge("control run: %s / %s", ctlCold.SetupErr, ctlWarm.SetupErr)
		return 0, fail
	}

	// Faulted pass: one injector, one metrics registry, shared by the
	// store across both simulated processes (reopened in between, like a
	// real restart — only the injector and registry survive, standing in
	// for the disk itself).
	inj := plan.Injector()
	reg := obs.NewRegistry()
	sopts := store.Options{Metrics: reg, Faults: inj, Sleep: func(time.Duration) {}}
	panicked := ""
	var cold, warm Observation
	func() {
		defer func() {
			if r := recover(); r != nil {
				panicked = fmt.Sprint(r)
			}
		}()
		st1, serr := store.Open(dir+"/store", sopts)
		if serr != nil {
			panic(serr)
		}
		cold = storeProcess(src, base, st1, jitbull).Obs
		st2, serr := store.Open(dir+"/store", sopts)
		if serr != nil {
			panic(serr)
		}
		warm = storeProcess(src, base, st2, jitbull).Obs
	}()
	fired = inj.FiredCount()

	if panicked != "" {
		mk().Panic = panicked
		return fired, fail
	}
	// Invariant 2: interpreter-identical semantics, both processes.
	for _, d := range compare(Config{Name: "store+chaos+cold"}, cold, ref, "interp") {
		diverge("%s", d)
	}
	for _, d := range compare(Config{Name: "store+chaos+warm"}, warm, ref, "interp") {
		diverge("%s", d)
	}
	// Invariant 3: verdicts never wrong — counters match the fault-free
	// control process-for-process.
	checkVerdicts := func(name string, got, want engine.Stats) {
		if got.NrJIT != want.NrJIT || got.NrDisJIT != want.NrDisJIT || got.NrNoJIT != want.NrNoJIT {
			diverge("%s: verdict counters (%d,%d,%d), control (%d,%d,%d)",
				name, got.NrJIT, got.NrDisJIT, got.NrNoJIT, want.NrJIT, want.NrDisJIT, want.NrNoJIT)
		}
	}
	checkVerdicts("store+chaos+cold", cold.Stats, ctlCold.Stats)
	checkVerdicts("store+chaos+warm", warm.Stats, ctlWarm.Stats)
	// Invariant 4: 1:1 fault accounting.
	if got := reg.Counter("store.faults_injected").Value(); got != int64(fired) {
		mk().Accounting = fmt.Sprintf("injector fired %d fault(s) but the store accounted %d", fired, got)
	}
	// Invariant 5: no corrupt record survives. A fresh fault-free handle
	// sweeps the store; after quarantining, everything left must verify.
	sweep, err := store.Open(dir+"/store", store.Options{})
	if err != nil {
		diverge("verify reopen: %v", err)
		return fired, fail
	}
	if rep, err := sweep.Verify(true); err != nil {
		diverge("verify sweep: %v", err)
	} else if rep2, err := sweep.Verify(false); err != nil || len(rep2.Problems) != 0 {
		diverge("corrupt records survived the quarantine sweep: %+v (first pass %+v, err %v)", rep2, rep, err)
	}
	return fired, fail
}
