package engine

// Off-thread compilation and shared-cache tests: the Engine concurrency
// contract under -race, install-at-safe-point semantics, verdict-counter
// equivalence across sync/async/cached modes, and cache hit/miss
// accounting. See also supervisor_test.go for quarantine × async.

import (
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/jitbull/jitbull/internal/jitqueue"
	"github.com/jitbull/jitbull/internal/obs"
	"github.com/jitbull/jitbull/internal/passes"
	"github.com/jitbull/jitbull/internal/value"
	"github.com/jitbull/jitbull/internal/variants"
)

// stubCachingPolicy is a minimal CachingPolicy for engine-side plumbing
// tests (core.Detector's implementation is exercised by difftest and the
// experiments bench, which can import both packages).
type stubCachingPolicy struct {
	verdict  CompileDecision
	began    int
	replayed []CompileDecision
}

func (p *stubCachingPolicy) Active() bool { return true }

func (p *stubCachingPolicy) BeginCompile(fn string) (passes.Observer, func() CompileDecision) {
	p.began++
	return nil, func() CompileDecision { return p.verdict }
}

func (p *stubCachingPolicy) PolicyCacheKey() (string, bool) { return "stub", true }

func (p *stubCachingPolicy) ReplayDecision(fn string, d CompileDecision) CompileDecision {
	p.replayed = append(p.replayed, d)
	d.Reason = "replayed"
	return d
}

// cacheValue pulls the single cached compilation out of e's cache: the
// entry under the key e computes for function name at its trigger, before
// a verdict disabled passes in it (e's config disables none).
func cacheValue(t *testing.T, e *Engine, name string) *cachedCompile {
	t.Helper()
	if n := e.cfg.Cache.Len(); n != 1 {
		t.Fatalf("cache holds %d entries, want 1", n)
	}
	st := e.fn(t, name)
	verdict := st.disabledPasses
	st.disabledPasses = nil
	key := e.newCompileRequest(st.idx, st).key
	st.disabledPasses = verdict
	v, ok := e.cfg.Cache.Get(key)
	if !ok {
		t.Fatalf("no cache entry under %s's key", name)
	}
	return v.(*cachedCompile)
}

func TestAsyncCompileMatchesSyncVerdicts(t *testing.T) {
	syncEng := runHot(t, Config{IonThreshold: 5})

	q := jitqueue.New(2, 16, nil)
	defer q.Close()
	async := runHot(t, Config{IonThreshold: 5, Queue: q})

	ss, as := syncEng.Stats(), async.Stats()
	if as.NrJIT != ss.NrJIT || as.NrDisJIT != ss.NrDisJIT || as.NrNoJIT != ss.NrNoJIT {
		t.Errorf("verdict counters differ: sync %+v async %+v", ss, as)
	}
	if as.AsyncCompiles == 0 {
		t.Error("no compile job was enqueued")
	}
	if as.AsyncInstalls == 0 {
		t.Error("no artifact was installed from the background queue")
	}
	st := async.fn(t, "hot")
	if st.code == nil {
		t.Error("async compile never installed")
	}
}

func TestAsyncQueueSaturationFallsBackToSync(t *testing.T) {
	// A zero-worker... not constructible; instead saturate a tiny queue
	// with a blocked worker so Submit rejects and the engine compiles
	// inline.
	gate := make(chan struct{})
	started := make(chan struct{})
	q := jitqueue.New(1, 1, nil)
	defer q.Close()
	defer close(gate) // runs before Close, so the worker can always exit
	if !q.Submit(jitqueue.Job{Owner: "blocker", Run: func() { close(started); <-gate }}) {
		t.Fatal("blocker was rejected by an empty queue")
	}
	// The filler must take the one buffer slot while the worker is parked in
	// the blocker. Submitted earlier it would be rejected, the engine's own
	// job would queue behind the blocker, and Run's Drain would wait on a
	// gate this test only opens afterwards.
	<-started
	if !q.Submit(jitqueue.Job{Owner: "filler", Run: func() {}}) {
		t.Fatal("filler was rejected although the worker had dequeued the blocker")
	}
	e := runHot(t, Config{IonThreshold: 5, Queue: q})
	if e.Stats().NrJIT != 1 {
		t.Errorf("saturated queue should fall back to a synchronous compile: %+v", e.Stats())
	}
	if e.Stats().AsyncCompiles != 0 {
		t.Errorf("job enqueued despite saturation: %+v", e.Stats())
	}
}

func TestSharedCacheHitSkipsPipeline(t *testing.T) {
	reg := obs.NewRegistry()
	cache := jitqueue.NewCache(reg)

	cold := runHot(t, Config{IonThreshold: 5, Cache: cache})
	cs := cold.Stats()
	if cs.CacheMisses == 0 || cs.CacheHits != 0 {
		t.Fatalf("cold engine: %+v", cs)
	}
	if cs.Compiles == 0 {
		t.Fatalf("cold engine never ran the pipeline: %+v", cs)
	}

	warm := runHot(t, Config{IonThreshold: 5, Cache: cache})
	ws := warm.Stats()
	if ws.CacheHits != 1 || ws.Compiles != 0 {
		t.Errorf("warm engine should hit the cache and skip the pipeline: %+v", ws)
	}
	if ws.NrJIT != cs.NrJIT {
		t.Errorf("cached install not counted like a compile: cold %+v warm %+v", cs, ws)
	}
	st := warm.fn(t, "hot")
	if st.code == nil {
		t.Error("cache hit did not install the artifact")
	}
	if reg.Counter("cache.hits").Value() != 1 {
		t.Errorf("cache.hits = %d, want 1", reg.Counter("cache.hits").Value())
	}
}

func TestSharedCacheKeyIsRenameMinifyInvariant(t *testing.T) {
	cache := jitqueue.NewCache(nil)
	cold := runHot(t, Config{IonThreshold: 5, Cache: cache})
	if cold.Stats().CacheMisses == 0 {
		t.Fatal("cold engine never consulted the cache")
	}
	for _, tf := range []struct {
		name string
		fn   func(string) (string, error)
	}{{"rename", variants.Rename}, {"minify", variants.Minify}} {
		vsrc, err := tf.fn(hotSrc)
		if err != nil {
			t.Fatalf("%s: %v", tf.name, err)
		}
		e, err := New(vsrc, Config{IonThreshold: 5, Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if s := e.Stats(); s.CacheHits != 1 || s.Compiles != 0 {
			t.Errorf("%s variant missed the shared cache: %+v", tf.name, s)
		}
	}
}

func TestCacheReplaysPolicyVerdict(t *testing.T) {
	t.Run("disable-pass", func(t *testing.T) {
		cache := jitqueue.NewCache(nil)
		verdict := CompileDecision{
			DisabledPasses: []string{"GVN"},
			Matches:        []obs.Match{{CVE: "CVE-X", VDCFunc: "f", Pass: "GVN", Side: "removed", Chain: "a→b"}},
		}
		colder := &stubCachingPolicy{verdict: verdict}
		cold, err := New(hotSrc, Config{IonThreshold: 5, Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		cold.SetPolicy(colder)
		if _, err := cold.Run(); err != nil {
			t.Fatal(err)
		}
		if s := cold.Stats(); s.NrDisJIT != 1 || s.Recompiles != 1 {
			t.Fatalf("cold stats: %+v", s)
		}
		if cc := cacheValue(t, cold, "hot"); !reflect.DeepEqual(cc.decision, verdict) {
			t.Fatalf("cached decision = %+v, want the one finish returned", cc.decision)
		}

		warmer := &stubCachingPolicy{verdict: verdict}
		ring := obs.NewRing(0)
		warm, err := New(hotSrc, Config{IonThreshold: 5, Cache: cache, Tracer: obs.NewTracer(ring)})
		if err != nil {
			t.Fatal(err)
		}
		warm.SetPolicy(warmer)
		if _, err := warm.Run(); err != nil {
			t.Fatal(err)
		}
		s := warm.Stats()
		if s.CacheHits != 1 || s.Compiles != 0 || s.Recompiles != 0 {
			t.Errorf("warm engine re-ran the pipeline: %+v", s)
		}
		if s.NrDisJIT != 1 || s.NrJIT != 1 {
			t.Errorf("replayed verdict not counted identically: %+v", s)
		}
		if len(warmer.replayed) != 1 || warmer.began != 0 {
			t.Fatalf("policy: replays=%d began=%d, want 1/0 (no DNA matching on a hit)", len(warmer.replayed), warmer.began)
		}
		if !reflect.DeepEqual(warmer.replayed[0], verdict) {
			t.Errorf("replayed decision = %+v, want %+v", warmer.replayed[0], verdict)
		}
		if st := warm.fn(t, "hot"); !st.disabledPasses["GVN"] {
			t.Error("disabled-pass set not restored from the cache")
		}
		// The decide fact states the decision as the replay returned it.
		decides := 0
		for _, ev := range ring.Events() {
			if ev.Name != obs.FactDecide {
				continue
			}
			decides++
			if d := ev.Decision; d == nil || d.Reason != "replayed" || !reflect.DeepEqual(d.Matches, verdict.Matches) {
				t.Errorf("decide fact on a hit carries %+v, want the replayed decision", d)
			}
		}
		if decides != 1 {
			t.Errorf("%d decide facts on the warm run, want 1", decides)
		}
	})

	t.Run("nojit", func(t *testing.T) {
		cache := jitqueue.NewCache(nil)
		for i, wantHits := range []int{0, 1} {
			p := &stubCachingPolicy{verdict: CompileDecision{NoJIT: true}}
			e, err := New(hotSrc, Config{IonThreshold: 5, Cache: cache})
			if err != nil {
				t.Fatal(err)
			}
			e.SetPolicy(p)
			if _, err := e.Run(); err != nil {
				t.Fatal(err)
			}
			s := e.Stats()
			if s.NrNoJIT != 1 || s.NrJIT != 1 {
				t.Errorf("engine %d: NoJIT verdict counters: %+v", i, s)
			}
			if s.CacheHits != wantHits {
				t.Errorf("engine %d: CacheHits = %d, want %d", i, s.CacheHits, wantHits)
			}
			if wantHits == 1 && s.Compiles != 0 {
				t.Errorf("NoJIT cache hit still ran the pipeline: %+v", s)
			}
			if st := e.fn(t, "hot"); st.quar != qPermanent {
				t.Errorf("engine %d: NoJIT must pin the function to the interpreter (quar=%d)", i, st.quar)
			}
		}
	})
}

func TestRecorderPolicyDisablesCaching(t *testing.T) {
	// A policy that does not implement CachingPolicy (like core.Recorder)
	// must observe every pipeline run: no hits, no misses, no sharing.
	cache := jitqueue.NewCache(nil)
	for i := 0; i < 2; i++ {
		e, err := New(hotSrc, Config{IonThreshold: 5, Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		e.SetPolicy(plainPolicy{})
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if s := e.Stats(); s.CacheHits != 0 || s.CacheMisses != 0 || s.Compiles == 0 {
			t.Errorf("engine %d: non-caching policy must bypass the cache: %+v", i, s)
		}
	}
	if cache.Len() != 0 {
		t.Errorf("cache has %d entries, want 0", cache.Len())
	}
}

// plainPolicy implements Policy but NOT CachingPolicy.
type plainPolicy struct{}

func (plainPolicy) Active() bool { return true }
func (plainPolicy) BeginCompile(string) (passes.Observer, func() CompileDecision) {
	return nil, func() CompileDecision { return CompileDecision{} }
}

// twoFnSrc declares two independently-hot JIT-able functions so a driver
// can put one into the shared cache while the other compiles.
const twoFnSrc = `
function fa(x) {
  var s = 0;
  for (var i = 0; i < 10; i++) { s = s + x + i; }
  return s;
}
function fb(x) {
  var s = 0;
  for (var i = 0; i < 10; i++) { s = s + x * 2 + i; }
  return s;
}
`

// accountingPolicy is a CachingPolicy that, like core.Detector, mutates
// unsynchronized per-policy state (a map) both when a live Decide
// finishes and when a verdict is replayed from the cache — the state the
// engine's compileMu must serialize.
type accountingPolicy struct {
	seen          map[string]int
	decideStarted chan struct{}
	decideSpin    int // map writes the finish closure performs
}

func (p *accountingPolicy) Active() bool { return true }

func (p *accountingPolicy) BeginCompile(fn string) (passes.Observer, func() CompileDecision) {
	return nil, func() CompileDecision {
		if p.decideStarted != nil {
			close(p.decideStarted)
			p.decideStarted = nil
		}
		for i := 0; i < p.decideSpin; i++ {
			p.seen[fn]++
			time.Sleep(50 * time.Microsecond)
		}
		p.seen[fn]++
		return CompileDecision{}
	}
}

func (p *accountingPolicy) PolicyCacheKey() (string, bool) { return "accounting", true }

func (p *accountingPolicy) ReplayDecision(fn string, d CompileDecision) CompileDecision {
	p.seen[fn]++
	return d
}

// TestCacheHitReplaySerializedWithQueuedCompile is the -race regression
// for the queue+cache mode: while a background worker is inside a queued
// compile's policy Decide for one function, a cache hit for another
// function on the owner goroutine must not replay its verdict into the
// same policy concurrently — ReplayDecision runs under compileMu like every
// other policy touch.
func TestCacheHitReplaySerializedWithQueuedCompile(t *testing.T) {
	cache := jitqueue.NewCache(nil)

	// Warm fb's cache entry (with its decision) synchronously.
	cold, err := New(twoFnSrc, Config{IonThreshold: 3, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	cold.SetPolicy(&accountingPolicy{seen: map[string]int{}})
	callN(t, cold, "fb", 10)
	if cache.Len() != 1 {
		t.Fatalf("warmup cached %d entries, want 1", cache.Len())
	}

	// The racing engine: fa's compile is queued and held inside Decide by
	// the spinning finish closure while the owner triggers fb's cache hit.
	q := jitqueue.New(1, 8, nil)
	defer q.Close()
	started := make(chan struct{})
	pol := &accountingPolicy{seen: map[string]int{}, decideStarted: started, decideSpin: 400}
	e, err := New(twoFnSrc, Config{IonThreshold: 3, Queue: q, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	e.SetPolicy(pol)
	callN(t, e, "fa", 3) // trigger: enqueued, worker enters Decide
	<-started
	callN(t, e, "fb", 3) // trigger: cache hit → ReplayDecision mid-Decide
	e.Drain()

	if s := e.Stats(); s.CacheHits != 1 || s.AsyncCompiles != 1 {
		t.Fatalf("fixture did not race a hit against a queued compile: %+v", s)
	}
	if pol.seen["fb"] == 0 {
		t.Error("cache hit never replayed into the policy accounting")
	}
	if st := e.fn(t, "fb"); st.code == nil {
		t.Error("cache hit did not install fb")
	}
}

// callN drives the named function by hand n times on the owner goroutine
// (no Drain — callers control when outcomes install).
func callN(t *testing.T, e *Engine, name string, n int) {
	t.Helper()
	idx := -1
	for i, st := range e.fns {
		if st.fn.Name == name {
			idx = i
		}
	}
	if idx < 0 {
		t.Fatalf("no function %q", name)
	}
	args := []value.Value{value.Num(1)}
	for i := 0; i < n; i++ {
		if _, err := e.CallFunction(idx, args); err != nil {
			t.Fatalf("%s call %d: %v", name, i, err)
		}
	}
}

// TestEscapedJobPanicStillProducesOutcome: a panic that unwinds a
// background job past compileAttempt's recovery must still park a typed
// failure outcome — quarantining with the normal backoff schedule and
// leaving the function retryable — instead of wedging it inflight
// forever in the interpreter.
func TestEscapedJobPanicStillProducesOutcome(t *testing.T) {
	q := jitqueue.New(1, 8, nil)
	defer q.Close()
	var got []error
	e, err := New(hotSrc, Config{
		IonThreshold:        5,
		QuarantineBackoff:   4,
		QuarantineCleanRuns: 2,
		Queue:               q,
		OnCompileError:      func(fn string, err error) { got = append(got, err) },
	})
	if err != nil {
		t.Fatal(err)
	}
	fired := false
	e.testQueueJobHook = func() {
		if !fired {
			fired = true
			panic("escaped: outside the supervisor's recovery")
		}
	}
	args := []value.Value{value.Num(1)}
	idx := -1
	for i, st := range e.fns {
		if st.fn.Name == "hot" {
			idx = i
		}
	}
	for i := 0; i < 200; i++ {
		if _, err := e.CallFunction(idx, args); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		e.Drain()
	}

	if len(q.Panics()) != 1 {
		t.Fatalf("pool recorded %d escaped panics, want 1", len(q.Panics()))
	}
	var cerr *CompileError
	if len(got) == 0 || !errors.As(got[0], &cerr) {
		t.Fatalf("escaped panic never surfaced as a CompileError: %v", got)
	}
	if cerr.Stage != StageQueue || !cerr.Panicked || !errors.Is(cerr, errEscapedPanic) {
		t.Errorf("typing wrong: %+v", cerr)
	}
	// The fabricated outcome follows failCompile semantics: one quarantine
	// round-trip, then the retry (hook fires once) compiles and requalifies.
	if s := e.Stats(); s.Quarantined != 1 || s.Requalified != 1 || s.NrJIT != 1 || s.CompilePanics != 1 {
		t.Errorf("recovery accounting: %+v", s)
	}
	st := e.fn(t, "hot")
	if st.inflight {
		t.Error("function wedged inflight after the escaped panic")
	}
	if st.quar != qNone || st.code == nil {
		t.Errorf("state after requalification: quar=%d code=%v", st.quar, st.code != nil)
	}
}

// TestEngineConcurrencyContract is the -race enforcement of the Engine
// concurrency contract: a fleet of engines sharing one queue, cache and
// metrics registry, with Stats() snapshots read concurrently from other
// goroutines while background installs land. Run with -race (CI does).
func TestEngineConcurrencyContract(t *testing.T) {
	reg := obs.NewRegistry()
	q := jitqueue.New(4, 32, reg)
	defer q.Close()
	cache := jitqueue.NewCache(reg)

	const fleet = 6
	engines := make([]*Engine, fleet)
	for i := range engines {
		e, err := New(hotSrc, Config{IonThreshold: 5, Queue: q, Cache: cache, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		engines[i] = e
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, e := range engines {
					s := e.Stats() // must be race-free mid-run
					if s.NrJIT < 0 {
						t.Error("impossible snapshot")
						return
					}
				}
			}
		}()
	}

	var runs sync.WaitGroup
	for _, e := range engines {
		runs.Add(1)
		go func(e *Engine) {
			defer runs.Done()
			if _, err := e.Run(); err != nil {
				t.Errorf("run: %v", err)
				return
			}
			if got := e.Global("result").AsNumber(); got != hotResult {
				t.Errorf("result = %v, want %v", got, hotResult)
			}
		}(e)
	}
	runs.Wait()
	close(stop)
	readers.Wait()

	// Every engine reached the same verdict; the fleet compiled the
	// distinct function at most a handful of times (races may compile it
	// more than once, but hits must dominate once warm).
	for i, e := range engines {
		if s := e.Stats(); s.NrJIT != 1 {
			t.Errorf("engine %d: NrJIT = %d, want 1 (%+v)", i, s.NrJIT, s)
		}
	}
}

// TestStatsConsistentUnderConcurrentInstall drives CallFunction by hand
// while a reader snapshots Stats, proving install-at-safe-point never
// tears a snapshot (satellite: consistent Stats() under concurrent
// install).
func TestStatsConsistentUnderConcurrentInstall(t *testing.T) {
	q := jitqueue.New(2, 8, nil)
	defer q.Close()
	e, err := New(hotSrc, Config{IonThreshold: 3, Queue: q})
	if err != nil {
		t.Fatal(err)
	}
	idx := -1
	for i, st := range e.fns {
		if st.fn.Name == "hot" {
			idx = i
		}
	}
	if idx < 0 {
		t.Fatal("no hot function")
	}

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := e.Stats()
			if s.AsyncInstalls > s.AsyncCompiles {
				t.Error("snapshot tore: more installs than enqueued compiles")
				return
			}
		}
	}()
	args := []value.Value{value.Num(1)}
	for i := 0; i < 500; i++ {
		if _, err := e.CallFunction(idx, args); err != nil {
			t.Fatal(err)
		}
	}
	e.Drain()
	close(stop)
	<-done
	if s := e.Stats(); s.NrJIT != 1 || s.AsyncInstalls != 1 {
		t.Errorf("stats after drain: %+v", s)
	}
}
