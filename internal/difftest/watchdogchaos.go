package difftest

import (
	"fmt"

	"github.com/jitbull/jitbull/internal/engine"
	"github.com/jitbull/jitbull/internal/faults"
	"github.com/jitbull/jitbull/internal/obs"
	"github.com/jitbull/jitbull/internal/progen"
)

// Watchdog chaos: the anomaly watchdog's accounting arm of the chaos
// suite. Each run draws a generated program and a randomized fault
// schedule restricted to the "watchdog" point, arms the schedule as the
// watchdog's seed probe, and holds two invariants:
//
//  1. seeded accounting is 1:1 — every fault the injector fired surfaces
//     as exactly one "seeded" anomaly (a swallowed injected error, or an
//     escaped injected panic, is a watchdog containment bug);
//  2. zero false positives — the same program re-run with the full
//     default detector set and no fault schedule declares no anomaly and
//     stays ready (a benign program must never degrade /healthz).

// WatchdogChaosOptions bounds a watchdog chaos campaign.
type WatchdogChaosOptions struct {
	// Seed is the base seed; run i uses Seed+i.
	Seed int64
	// Runs is the number of randomized runs (default 50).
	Runs int
	// MaxRules caps the rules per fault schedule (default 3).
	MaxRules int
	// IonThreshold for the chaos cell (default 30).
	IonThreshold int
	// BaselineThreshold (default 10).
	BaselineThreshold int
	// MaxSteps per run (default 200M).
	MaxSteps int64
}

func (o WatchdogChaosOptions) withDefaults() WatchdogChaosOptions {
	if o.Runs <= 0 {
		o.Runs = 50
	}
	if o.MaxRules <= 0 {
		o.MaxRules = 3
	}
	if o.IonThreshold <= 0 {
		o.IonThreshold = 30
	}
	if o.BaselineThreshold <= 0 {
		o.BaselineThreshold = 10
	}
	if o.MaxSteps <= 0 {
		o.MaxSteps = 200_000_000
	}
	return o
}

// WatchdogChaosResult summarizes a campaign.
type WatchdogChaosResult struct {
	Runs            int      // runs executed
	FaultsFired     int      // total seeded faults across all runs
	SeededAnomalies int      // total "seeded" anomalies declared
	Failures        []string // invariant violations, with their reproducer seed
}

// OK reports whether every run held both invariants.
func (r WatchdogChaosResult) OK() bool { return len(r.Failures) == 0 }

// Summary renders the campaign for reports.
func (r WatchdogChaosResult) Summary() string {
	return fmt.Sprintf("%d runs, %d seeded faults → %d seeded anomalies, %d failure(s)",
		r.Runs, r.FaultsFired, r.SeededAnomalies, len(r.Failures))
}

// WatchdogChaos executes a campaign of o.Runs randomized runs.
func WatchdogChaos(o WatchdogChaosOptions) WatchdogChaosResult {
	o = o.withDefaults()
	var res WatchdogChaosResult
	for i := 0; i < o.Runs; i++ {
		seed := o.Seed + int64(i)
		src := progen.Generate(seed, progen.Options{})
		res.Runs++

		base := engine.Config{
			BaselineThreshold: o.BaselineThreshold,
			IonThreshold:      o.IonThreshold,
			MaxSteps:          o.MaxSteps,
		}
		fail := func(format string, args ...any) {
			res.Failures = append(res.Failures,
				fmt.Sprintf("watchdog chaos seed=%d: %s", seed, fmt.Sprintf(format, args...)))
		}

		// Seeded run: the fault schedule is the ONLY anomaly source (no
		// detectors), so anomalies must mirror the injector exactly.
		plan := faults.RandomPlan(seed, o.MaxRules, []faults.Point{faults.PointWatchdog})
		inj := plan.Injector()
		seededWdog := obs.NewWatchdog(obs.WatchdogOptions{Detectors: []obs.Detector{}})
		seededWdog.SetSeedProbe(faults.WatchdogProbe(inj))
		seededCfg := Config{Name: "jit+watchdog-seeded", Engine: base}
		seededCfg.Engine.Tracer = obs.NewTracer(seededWdog)
		panicked := ""
		func() {
			defer func() {
				if r := recover(); r != nil {
					panicked = fmt.Sprint(r)
				}
			}()
			Observe(src, seededCfg)
		}()
		if panicked != "" {
			fail("panic escaped the watchdog containment: %s (plan %s)", panicked, plan)
			continue
		}
		fired := inj.FiredCount()
		seeded := 0
		for _, a := range seededWdog.Anomalies() {
			if a.Detector != "seeded" {
				fail("non-seeded anomaly %q on a benign program (plan %s)", a.Detector, plan)
				continue
			}
			seeded++
		}
		res.FaultsFired += fired
		res.SeededAnomalies += seeded
		if seeded != fired {
			fail("injector fired %d fault(s) but the watchdog declared %d seeded anomaly(ies) (plan %s)",
				fired, seeded, plan)
		}

		// Clean control: full default detector set, no schedule. A benign
		// program must produce zero anomalies and stay ready.
		cleanWdog := obs.NewWatchdog(obs.WatchdogOptions{})
		cleanCfg := Config{Name: "jit+watchdog-clean", Engine: base}
		cleanCfg.Engine.Tracer = obs.NewTracer(cleanWdog)
		Observe(src, cleanCfg)
		if an := cleanWdog.Anomalies(); len(an) != 0 {
			fail("false positive on a clean run: %+v", an)
		}
		if state, why := cleanWdog.Health(); state != obs.HealthReady {
			fail("clean run degraded health: %s (%s)", state, why)
		}
	}
	return res
}
