package difftest

// Cross-process warm start: the persistent store's correctness cell. A
// "process" here is (engine + in-memory cache); killing it and starting
// the next one means dropping both and keeping only the store directory,
// exactly what survives a real restart. The cell asserts the ISSUE's
// acceptance bar: the second process replays every pipeline verdict from
// disk — zero compilations — and observes behavior bit-identical to the
// first: Result, the result global, printed output, interpreter step
// count, and the full audit verdict sequence (modulo the replay-sourced
// Reason text).

import (
	"errors"
	"fmt"
	"reflect"

	"github.com/jitbull/jitbull/internal/core"
	"github.com/jitbull/jitbull/internal/engine"
	"github.com/jitbull/jitbull/internal/jitqueue"
	"github.com/jitbull/jitbull/internal/obs"
	"github.com/jitbull/jitbull/internal/store"
)

// WarmStartOptions bounds a StoreWarmStart cell.
type WarmStartOptions struct {
	// IonThreshold (default ionThreshold).
	IonThreshold int
	// JITBULL runs both processes under the 4-VDC detector, so verdict
	// replay (not just artifact reuse) is what the cell proves.
	JITBULL bool
	// OSR/Speculate arm the tier-transition machinery, putting OSR entry
	// and deopt-exit side tables into the persisted artifacts.
	OSR       bool
	Speculate bool
}

func (o WarmStartOptions) withDefaults() WarmStartOptions {
	if o.IonThreshold <= 0 {
		o.IonThreshold = ionThreshold
	}
	return o
}

// WarmStartRun is one process's full observation.
type WarmStartRun struct {
	Obs   Observation
	Audit []obs.AuditEvent
}

// WarmStartResult is the cell's outcome: divergences is empty iff the
// warm process eliminated the pipeline AND behaved bit-identically.
type WarmStartResult struct {
	Cold, Warm  WarmStartRun
	Divergences []string
}

// OK reports whether the cell held every invariant.
func (r WarmStartResult) OK() bool { return len(r.Divergences) == 0 }

// storeDetector builds a detector over the shared difftest database.
func storeDetector() *core.Detector {
	db, err := jitbullDB()
	if err != nil {
		panic(fmt.Sprintf("difftest: building JITBULL DB: %v", err))
	}
	return core.NewDetector(db)
}

// storeProcess is one simulated process of a store cell: a fresh engine
// and a fresh in-memory cache over the given persistent tier — with
// jitbull, a fresh detector too — observed like any other cell. The audit
// events are the engine's go/no-go verdicts, in order.
func storeProcess(src string, base engine.Config, tier *store.Store, jitbull bool) WarmStartRun {
	c := Config{Name: "store", Engine: base}
	c.Engine.Cache = jitqueue.NewCache(nil)
	c.Engine.Cache.AttachTier(tier, engine.NewCacheCodec())
	audit := obs.NewAuditLog(nil)
	c.Engine.Tracer = obs.NewTracer(audit)
	if jitbull {
		c.Policy = func() engine.Policy { return storeDetector() }
	}
	run := WarmStartRun{Obs: Observe(src, c)}
	run.Audit = decisions(audit.Events())
	return run
}

// decisions keeps the go/no-go verdicts of an audit trail, dropping the
// supervisor transitions logged between them.
func decisions(evs []obs.AuditEvent) []obs.AuditEvent {
	var out []obs.AuditEvent
	for _, ev := range evs {
		switch ev.Verdict {
		case obs.VerdictGo, obs.VerdictDisablePass, obs.VerdictNoJIT:
			out = append(out, ev)
		}
	}
	return out
}

// auditIdentity projects one audit event to the fields that must replay
// bit-identically across processes: the function, the verdict, the
// disabled-pass set, and the full match attribution. Reason is excluded
// on purpose — the replay path legitimately stamps its own reason text —
// as are Seq/Time (process-local bookkeeping).
func auditIdentity(ev obs.AuditEvent) obs.AuditEvent {
	return obs.AuditEvent{
		Func:           ev.Func,
		Verdict:        ev.Verdict,
		DisabledPasses: ev.DisabledPasses,
		Matches:        ev.Matches,
	}
}

// StoreWarmStart runs one program through a cold process and then a warm
// process over the surviving store directory (dir must be empty and
// writable; the caller owns cleanup) and checks every warm-start
// invariant. Engine configurations are synchronous — a background queue
// only moves when outcomes land, which is noise this cell does not need.
func StoreWarmStart(src, dir string, o WarmStartOptions) (WarmStartResult, error) {
	o = o.withDefaults()
	var res WarmStartResult

	base := engine.Config{
		BaselineThreshold: baselineThreshold,
		IonThreshold:      o.IonThreshold,
		MaxSteps:          maxSteps,
		OSR:               o.OSR,
		Speculate:         o.Speculate,
	}

	coldStore, err := store.Open(dir, store.Options{})
	if err != nil {
		return res, err
	}
	if res.Cold = storeProcess(src, base, coldStore, o.JITBULL); res.Cold.Obs.SetupErr != "" {
		return res, errors.New(res.Cold.Obs.SetupErr)
	}

	// Kill the process: the cold engine, cache and store handle are
	// dropped here. Only the directory survives.
	warmStore, err := store.Open(dir, store.Options{})
	if err != nil {
		return res, err
	}
	res.Warm = storeProcess(src, base, warmStore, o.JITBULL)

	// Bit-identity: semantics, then — the warm process is the cold one's
	// twin, it differs only in where its artifacts came from — step count,
	// verdict counters and block checks, then the audit verdict sequence.
	cellName := "store+warm"
	warm, cold := Config{Name: cellName, Twin: "store+cold"}, Config{Name: "store+cold"}
	for _, d := range append(compare(warm, res.Warm.Obs, res.Cold.Obs, warm.Twin),
		compareTwin(warm, res.Warm.Obs, cold, res.Cold.Obs)...) {
		res.Divergences = append(res.Divergences, d.String())
	}
	if len(res.Warm.Audit) != len(res.Cold.Audit) {
		res.Divergences = append(res.Divergences,
			fmt.Sprintf("%s: %d audit events, want %d", cellName, len(res.Warm.Audit), len(res.Cold.Audit)))
	} else {
		for i := range res.Cold.Audit {
			w, c := auditIdentity(res.Warm.Audit[i]), auditIdentity(res.Cold.Audit[i])
			if !reflect.DeepEqual(w, c) {
				res.Divergences = append(res.Divergences,
					fmt.Sprintf("%s: audit event %d = %s, want %s", cellName, i, w, c))
			}
		}
	}
	ws, cs := res.Warm.Obs.Stats, res.Cold.Obs.Stats
	// 100% pipeline elimination: the warm process never compiles, and
	// everything the cold process compiled arrives through the tier.
	if cs.Compiles == 0 {
		res.Divergences = append(res.Divergences,
			fmt.Sprintf("%s: cold process never compiled — the cell proves nothing", cellName))
	}
	if ws.Compiles != 0 {
		res.Divergences = append(res.Divergences,
			fmt.Sprintf("%s: warm process ran the pipeline %d time(s), want 0", cellName, ws.Compiles))
	}
	if ws.CacheHits == 0 && cs.Compiles > 0 {
		res.Divergences = append(res.Divergences,
			fmt.Sprintf("%s: warm process had no cache hits", cellName))
	}
	return res, nil
}
