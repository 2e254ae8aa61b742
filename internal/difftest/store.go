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
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"

	"github.com/jitbull/jitbull/internal/core"
	"github.com/jitbull/jitbull/internal/engine"
	"github.com/jitbull/jitbull/internal/interp"
	"github.com/jitbull/jitbull/internal/jitqueue"
	"github.com/jitbull/jitbull/internal/obs"
	"github.com/jitbull/jitbull/internal/store"
)

// WarmStartOptions bounds a StoreWarmStart cell.
type WarmStartOptions struct {
	IonThreshold      int
	BaselineThreshold int
	MaxSteps          int64
	// JITBULL runs both processes under the 4-VDC detector, so verdict
	// replay (not just artifact reuse) is what the cell proves.
	JITBULL bool
	// Snapshot routes the warm process through a Snapshot/Restore bundle
	// into a second directory instead of reopening the store in place —
	// the fleet-priming path.
	Snapshot bool
	// OSR/Speculate arm the tier-transition machinery, putting OSR entry
	// and deopt-exit side tables into the persisted artifacts.
	OSR       bool
	Speculate bool
}

func (o WarmStartOptions) withDefaults() WarmStartOptions {
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

// WarmStartRun is one process's full observation.
type WarmStartRun struct {
	Obs   Observation
	Audit []obs.AuditEvent
	Stats engine.Stats
}

// WarmStartResult is the cell's outcome: divergences is empty iff the
// warm process eliminated the pipeline AND behaved bit-identically.
type WarmStartResult struct {
	Cold, Warm  WarmStartRun
	Divergences []string
}

// OK reports whether the cell held every invariant.
func (r WarmStartResult) OK() bool { return len(r.Divergences) == 0 }

// storeDetector builds a detector over the shared difftest database with
// a per-run audit log attached.
func storeDetector(audit *obs.AuditLog) *core.Detector {
	db, err := jitbullDB()
	if err != nil {
		panic(fmt.Sprintf("difftest: building JITBULL DB: %v", err))
	}
	d := core.NewDetector(db)
	d.Audit = audit
	return d
}

// storeCodec builds the cache codec for the cell. With JITBULL on, any
// fresh detector over the shared database carries the verdict codec; the
// database pointer is what makes encode/decode sides agree.
func storeCodec(jitbull bool) *engine.CacheCodec {
	if !jitbull {
		return engine.NewCacheCodec(nil)
	}
	return engine.NewCacheCodec(storeDetector(nil))
}

// runStoreProcess is one simulated process: a fresh engine and a fresh
// in-memory cache over the given persistent tier. It mirrors Observe but
// additionally captures the step count, audit stream and engine stats
// the warm-start bit-identity checks need.
func runStoreProcess(src string, base engine.Config, tier *store.Store, o WarmStartOptions) (WarmStartRun, error) {
	var run WarmStartRun
	cache := jitqueue.NewCache(nil)
	cache.AttachTier(tier, storeCodec(o.JITBULL))

	var out bytes.Buffer
	cfg := base
	cfg.Cache = cache
	cfg.Out = &out
	e, err := engine.New(src, cfg)
	if err != nil {
		return run, err
	}
	audit := obs.NewAuditLog(nil)
	if o.JITBULL {
		e.SetPolicy(storeDetector(audit))
	}
	v, runErr := e.Run()
	run.Obs.Result = v.ToString()
	run.Obs.ResultG = e.Global("result").ToString()
	run.Obs.Output = out.String()
	run.Obs.Hijacked = e.Hijacked() != nil
	run.Obs.Crashed = e.Arena().Crashed() != nil
	run.Obs.Stats = e.Stats()
	if runErr != nil {
		run.Obs.ErrMsg = runErr.Error()
		switch {
		case engine.IsHijack(runErr):
			run.Obs.ErrKind = "hijack"
		case engine.IsCrash(runErr):
			run.Obs.ErrKind = "crash"
		case errors.Is(runErr, interp.ErrBudget):
			run.Obs.ErrKind = "budget"
		default:
			run.Obs.ErrKind = "runtime"
		}
	}
	run.Obs.Steps = e.VM.Steps()
	run.Audit = audit.Events()
	run.Stats = e.Stats()
	return run, nil
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
		BaselineThreshold: o.BaselineThreshold,
		IonThreshold:      o.IonThreshold,
		MaxSteps:          o.MaxSteps,
		OSR:               o.OSR,
		Speculate:         o.Speculate,
	}

	coldDir := filepath.Join(dir, "cold")
	coldStore, err := store.Open(coldDir, store.Options{})
	if err != nil {
		return res, err
	}
	res.Cold, err = runStoreProcess(src, base, coldStore, o)
	if err != nil {
		return res, err
	}

	// Kill the process: the cold engine, cache and store handle are
	// dropped here. Only the directory survives.
	warmDir := coldDir
	if o.Snapshot {
		// Fleet priming: bundle the store and restore it into a different
		// directory; the warm process runs over the restored copy.
		bundle := filepath.Join(dir, "snapshot.json")
		if err := coldStore.Snapshot(bundle); err != nil {
			return res, err
		}
		warmDir = filepath.Join(dir, "restored")
		restored, err := store.Open(warmDir, store.Options{})
		if err != nil {
			return res, err
		}
		if n, err := restored.Restore(bundle); err != nil {
			return res, err
		} else if n == 0 {
			res.Divergences = append(res.Divergences, "snapshot/restore installed 0 records")
		}
	}
	warmStore, err := store.Open(warmDir, store.Options{})
	if err != nil {
		return res, err
	}
	res.Warm, err = runStoreProcess(src, base, warmStore, o)
	if err != nil {
		return res, err
	}

	// Bit-identity: semantics, then — the warm process is the cold one's
	// twin, it differs only in where its artifacts came from — step count
	// and verdict counters, then the audit verdict sequence.
	cellName := "store+warm"
	warm := Config{Name: cellName, Twin: "store+cold"}
	for _, d := range append(compare(warm, res.Warm.Obs, res.Cold.Obs, warm.Twin),
		compareTwin(warm, res.Warm.Obs, res.Cold.Obs)...) {
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
	ws, cs := res.Warm.Stats, res.Cold.Stats
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
