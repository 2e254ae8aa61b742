package difftest

// The warm-start cell: a second engine over the same shared compilation
// cache replays every verdict the first one decided. It runs zero
// pipelines and behaves bit-identically to the first: Result, the result
// global, printed output, interpreter steps, verdict counters, block checks
// and the audit verdict sequence (modulo the replay-sourced Reason text).

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/jitbull/jitbull/internal/engine"
	"github.com/jitbull/jitbull/internal/jitqueue"
	"github.com/jitbull/jitbull/internal/obs"
	"github.com/jitbull/jitbull/internal/passes"
	"github.com/jitbull/jitbull/internal/progen"
	"github.com/jitbull/jitbull/internal/vulndb"
)

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

// auditIdentity projects one audit event to the fields a replay must
// reproduce: the function, the verdict, the disabled-pass set, and the full
// match attribution. Reason is excluded on purpose — the replay path
// stamps its own reason text — as are Seq/Time.
func auditIdentity(ev obs.AuditEvent) obs.AuditEvent {
	return obs.AuditEvent{
		Func:           ev.Func,
		Verdict:        ev.Verdict,
		DisabledPasses: ev.DisabledPasses,
		Matches:        ev.Matches,
	}
}

// warmStartRun is one engine's full observation.
type warmStartRun struct {
	Obs   Observation
	Audit []obs.AuditEvent
}

// warmStartProcess runs src on a fresh engine over cache — with jitbull, a
// fresh detector over the shared 4-VDC database too — and keeps the
// engine's go/no-go verdicts in order.
func warmStartProcess(src string, base engine.Config, cache *jitqueue.Cache, jitbull bool) warmStartRun {
	c := Config{Name: "cache", Engine: base}
	c.Engine.Cache = cache
	audit := obs.NewAuditLog(nil)
	c.Engine.Tracer = obs.NewTracer(audit)
	if jitbull {
		c.Policy = jitbullPolicy
	}
	run := warmStartRun{Obs: Observe(src, c)}
	run.Audit = decisions(audit.Events())
	return run
}

// warmStartConfig is the engine configuration of both runs. Both compile
// synchronously: a background queue only moves install timing, which this
// cell does not need.
func warmStartConfig(osr bool, bugs passes.BugSet) engine.Config {
	return engine.Config{
		IonThreshold: ionThreshold,
		MaxSteps:     maxSteps,
		OSR:          osr,
		Speculate:    osr,
		Bugs:         bugs,
	}
}

// cacheWarmStart runs src through a cold engine over a fresh cache and then
// a warm one over warmCache (nil: the cold engine's cache), and returns
// every way the warm run differs from the cold one.
func cacheWarmStart(t *testing.T, src string, base engine.Config, jitbull bool, warmCache *jitqueue.Cache) []string {
	t.Helper()
	coldCache := jitqueue.NewCache(nil)
	cold := warmStartProcess(src, base, coldCache, jitbull)
	if cold.Obs.SetupErr != "" {
		t.Fatalf("setup: %s", cold.Obs.SetupErr)
	}
	if warmCache == nil {
		warmCache = coldCache
	}
	warm := warmStartProcess(src, base, warmCache, jitbull)

	// Semantics, then — the warm run is the cold one's twin, it differs only
	// in where its artifacts came from — steps, verdict counters and block
	// checks, then the audit verdict sequence.
	wc, cc := Config{Name: "cache+warm", Twin: "cache+cold"}, Config{Name: "cache+cold"}
	var divs []string
	for _, d := range append(compare(wc, warm.Obs, cold.Obs, wc.Twin), compareTwin(wc, warm.Obs, cc, cold.Obs)...) {
		divs = append(divs, d.String())
	}
	if len(warm.Audit) != len(cold.Audit) {
		divs = append(divs, fmt.Sprintf("%d audit events, want %d", len(warm.Audit), len(cold.Audit)))
	} else {
		for i := range cold.Audit {
			if w, c := auditIdentity(warm.Audit[i]), auditIdentity(cold.Audit[i]); !reflect.DeepEqual(w, c) {
				divs = append(divs, fmt.Sprintf("audit event %d = %s, want %s", i, w, c))
			}
		}
	}
	ws, cs := warm.Obs.Stats, cold.Obs.Stats
	if cs.Compiles == 0 {
		divs = append(divs, "the cold engine never compiled: the cell proves nothing")
	}
	if base.OSR && (cs.OSREntries == 0 || cs.DeoptExits == 0) {
		divs = append(divs, "the cold engine never entered a loop or deopted: the OSR cell proves nothing")
	}
	if ws.Compiles != 0 {
		divs = append(divs, fmt.Sprintf("the warm engine ran the pipeline %d time(s), want 0", ws.Compiles))
	}
	if ws.CacheHits == 0 && cs.Compiles > 0 {
		divs = append(divs, "the warm engine had no cache hits")
	}
	if t.Failed() || len(divs) > 0 {
		t.Logf("cold stats: %+v", cs)
		t.Logf("warm stats: %+v", ws)
	}
	return divs
}

// TestCacheWarmStartBitIdentical: a warm engine runs no pipeline and is
// bit-identical to the cold one, with no policy, under JITBULL, and with
// OSR entries and deopt exits taken through the cached artifacts (the
// hot-loop suffix of the generated program). A generated program matches
// no VDC, so the demonstrators of the database's CVEs, each under its bug,
// make the replayed verdicts disable-pass and NoJIT ones with matches.
func TestCacheWarmStartBitIdentical(t *testing.T) {
	generated := progen.Generate(401, progen.Options{})
	hotLoops := progen.Generate(401, progen.Options{HotLoops: true, HotIters: 2000})
	type cell struct {
		name    string
		src     string
		base    engine.Config
		jitbull bool
	}
	cells := []cell{
		{"plain", generated, warmStartConfig(false, nil), false},
		{"jitbull", generated, warmStartConfig(false, nil), true},
		{"jitbull+osr+deopt", hotLoops, warmStartConfig(true, nil), true},
	}
	for _, v := range vulndb.All()[:4] {
		cells = append(cells, cell{"jitbull+" + v.CVE, v.Demonstrator, warmStartConfig(false, v.Bug()), true})
	}
	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			for _, d := range cacheWarmStart(t, c.src, c.base, c.jitbull, nil) {
				t.Error(d)
			}
		})
	}
}

// TestCacheWarmStartAcrossPrograms pins key soundness: over one cache that
// every program has filled, each program's warm run is its own cold run —
// no artifact or verdict is served across programs. All programs run in
// the database's whole window, so generated programs (go verdicts) and
// demonstrators (matched verdicts) share one key space.
func TestCacheWarmStartAcrossPrograms(t *testing.T) {
	bugs := passes.BugSet{}
	progs := map[string]string{}
	for _, seed := range []int64{402, 403, 404} {
		progs[fmt.Sprintf("progen %d", seed)] = progen.Generate(seed, progen.Options{})
	}
	for _, v := range vulndb.All()[:4] {
		progs[v.CVE] = v.Demonstrator
		for cve := range v.Bug() {
			bugs[cve] = true
		}
	}
	base := warmStartConfig(false, bugs)
	shared := jitqueue.NewCache(nil)
	for _, src := range progs {
		warmStartProcess(src, base, shared, true)
	}
	for name, src := range progs {
		for _, d := range cacheWarmStart(t, src, base, true, shared) {
			t.Errorf("%s: %s", name, d)
		}
	}
}
