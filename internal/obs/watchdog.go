package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Anomaly is one detector verdict: something is wrong, attributed.
type Anomaly struct {
	Detector string `json:"detector"`
	Func     string `json:"func,omitempty"`
	Reason   string `json:"reason"`
}

// Detector is one pluggable anomaly detector. Observe is called under
// the watchdog lock (implementations need no locking of their own) for
// every signal; returning ok=true declares one anomaly.
type Detector interface {
	Name() string
	Observe(ev Event) (Anomaly, bool)
}

// Health states for the /healthz readiness endpoint.
const (
	HealthReady    = "ready"
	HealthDegraded = "degraded"
)

// Watchdog is the view that turns the stream into anomalies. Its signals
// are the facts marked Fact.Watch; each is offered to every detector, and
// a firing detector bumps the watchdog metrics, degrades the health state
// and states a FactAnomaly on the stream it was attached to — which is how
// the audit log gets its "anomaly" line and the flight recorder its
// episode. Health recovers to ready after RecoverAfter consecutive
// anomaly-free signals — a deterministic policy, so tests and the chaos
// campaign can pin the ready→degraded→ready transition without clocks.
//
// Two signals are intrinsic anomalies rather than detector input: a
// rejected queue wait and a corrupt store record each declare one anomaly
// per signal (the event itself is the anomaly — a rejected compile or a
// corrupt record needs no statistics), giving the chaos campaign 1:1
// accounting against seeded causes.
//
// A nil *Watchdog is inert: Record costs one nil check.
type Watchdog struct {
	mu        sync.Mutex
	detectors []Detector
	tr        *Tracer
	reg       *Registry

	// seedProbe, when set, is consulted once per signal; a non-nil error
	// (or a panic, which is contained) synthesizes one "seeded" anomaly.
	// The chaos campaign wires this to a faults.Injector rule on the
	// watchdog fault point to prove 1:1 anomaly accounting.
	seedProbe func(detail string) error

	health       string
	cleanStreak  int
	recoverAfter int

	signals   int64
	anomalies []Anomaly
	byDet     map[string]int64
	lastWhy   string
}

// WatchdogOptions configure a Watchdog. All fields optional.
type WatchdogOptions struct {
	Metrics      *Registry  // watchdog.* counters and health gauge
	Detectors    []Detector // nil selects DefaultDetectors()
	RecoverAfter int        // clean signals before ready again; default 64
}

// NewWatchdog builds a watchdog.
func NewWatchdog(opts WatchdogOptions) *Watchdog {
	dets := opts.Detectors
	if dets == nil {
		dets = DefaultDetectors()
	}
	ra := opts.RecoverAfter
	if ra <= 0 {
		ra = 64
	}
	w := &Watchdog{
		detectors:    dets,
		reg:          opts.Metrics,
		health:       HealthReady,
		recoverAfter: ra,
		byDet:        map[string]int64{},
	}
	w.reg.Gauge("watchdog.healthy").Set(1)
	return w
}

// SetTracer names the stream anomalies are stated on: the tracer whose
// sink this watchdog is part of. Without one, anomalies still count and
// still move Health, but reach no other view.
func (w *Watchdog) SetTracer(tr *Tracer) {
	if w == nil {
		return
	}
	w.mu.Lock()
	w.tr = tr
	w.mu.Unlock()
}

// SetSeedProbe installs the fault-seeding probe (see seedProbe above).
func (w *Watchdog) SetSeedProbe(probe func(detail string) error) {
	if w == nil {
		return
	}
	w.mu.Lock()
	w.seedProbe = probe
	w.mu.Unlock()
}

// Record implements Sink: a watched fact is one signal. Safe on a nil
// watchdog and for concurrent use (engine owner, queue workers and store
// all emit). Anomalies are stated after the lock is released, and
// FactAnomaly is not itself watched, so the event coming back round the
// MultiSink ends here.
func (w *Watchdog) Record(ev Event) {
	if w == nil || !factByName[ev.Name].Watch {
		return
	}
	if ev.Name == FactQueueWait && ev.Str("result") != "rejected" {
		return // a wait that ended in a worker picking the job up
	}
	fired, tr := w.observe(ev)
	for _, a := range fired {
		tr.Instant(CatAnomaly, FactAnomaly, a.Func, S("stage", a.Detector), S("reason", a.Reason))
	}
}

// observe runs one signal past the seed probe and the detectors under the
// lock and returns what fired.
func (w *Watchdog) observe(ev Event) ([]Anomaly, *Tracer) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.signals++
	w.reg.Counter("watchdog.signals").Inc()

	var fired []Anomaly

	// Seeded fault probe: at most one synthetic anomaly per signal, with
	// panic containment so an injected panic kind cannot escape into the
	// engine's hot path.
	if w.seedProbe != nil {
		if err := w.probeSeed(ev); err != nil {
			fired = append(fired, Anomaly{Detector: "seeded", Func: ev.Func, Reason: err.Error()})
			w.reg.Counter("watchdog.seeded").Inc()
		}
	}

	// Intrinsic anomalies: the signal itself is the finding.
	switch ev.Name {
	case FactQueueWait:
		fired = append(fired, Anomaly{Detector: "queue-saturation", Func: ev.Func, Reason: "compile queue saturated: inline fallback"})
	case FactStoreCorrupt:
		fired = append(fired, Anomaly{Detector: "store-corruption", Func: ev.Func, Reason: "store record corrupt: " + ev.Str("reason")})
	}

	for _, d := range w.detectors {
		if a, ok := d.Observe(ev); ok {
			fired = append(fired, a)
		}
	}

	if len(fired) == 0 {
		w.cleanStreak++
		if w.health == HealthDegraded && w.cleanStreak >= w.recoverAfter {
			w.health = HealthReady
			w.reg.Gauge("watchdog.healthy").Set(1)
		}
		return nil, nil
	}
	w.cleanStreak = 0
	w.health = HealthDegraded
	w.reg.Gauge("watchdog.healthy").Set(0)
	for _, a := range fired {
		w.anomalies = append(w.anomalies, a)
		w.byDet[a.Detector]++
		w.lastWhy = a.Detector + ": " + a.Reason
		w.reg.Counter("watchdog.anomalies").Inc()
		w.reg.Counter("watchdog.fired." + a.Detector).Inc()
	}
	if len(w.anomalies) > 4096 {
		w.anomalies = w.anomalies[len(w.anomalies)-4096:]
	}
	return fired, w.tr
}

// probeSeed runs the seed probe with panic containment.
func (w *Watchdog) probeSeed(ev Event) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("seeded panic: %v", r)
		}
	}()
	return w.seedProbe(ev.Name + ":" + ev.Func)
}

// Health returns the current readiness state and the last anomaly line.
func (w *Watchdog) Health() (state, lastAnomaly string) {
	if w == nil {
		return HealthReady, ""
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.health, w.lastWhy
}

// Anomalies returns every recorded anomaly in order.
func (w *Watchdog) Anomalies() []Anomaly {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]Anomaly, len(w.anomalies))
	copy(out, w.anomalies)
	return out
}

// Summary renders a one-line operator summary for `jitbull run -stats`.
func (w *Watchdog) Summary() string {
	if w == nil {
		return ""
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	var b strings.Builder
	fmt.Fprintf(&b, "watchdog: health=%s signals=%d anomalies=%d", w.health, w.signals, len(w.anomalies))
	if len(w.byDet) > 0 {
		names := make([]string, 0, len(w.byDet))
		for n := range w.byDet {
			names = append(names, n)
		}
		sort.Strings(names)
		parts := make([]string, 0, len(names))
		for _, n := range names {
			parts = append(parts, fmt.Sprintf("%s=%d", n, w.byDet[n]))
		}
		fmt.Fprintf(&b, " [%s]", strings.Join(parts, " "))
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Built-in detectors

// DefaultDetectors returns the standard detector set.
func DefaultDetectors() []Detector {
	return []Detector{
		NewDeoptStormDetector(0),
		NewQuarantineSpikeDetector(0, 0),
		NewCacheMissRegressionDetector(0, 0),
		NewVerdictRateShiftDetector(0, 0),
		NewPerfDivergenceDetector(),
	}
}

// deoptStormDetector fires when one function accumulates threshold
// deopt exits; the count then resets so a sustained storm fires once
// per threshold-sized burst, not once per deopt.
type deoptStormDetector struct {
	threshold int
	perFunc   map[string]int
}

// NewDeoptStormDetector builds the detector (threshold <= 0 selects 8,
// matching the engine's requalify-on-storm bound).
func NewDeoptStormDetector(threshold int) Detector {
	if threshold <= 0 {
		threshold = 8
	}
	return &deoptStormDetector{threshold: threshold, perFunc: map[string]int{}}
}

func (d *deoptStormDetector) Name() string { return "deopt-storm" }

func (d *deoptStormDetector) Observe(ev Event) (Anomaly, bool) {
	if ev.Name != FactDeopt {
		return Anomaly{}, false
	}
	d.perFunc[ev.Func]++
	if d.perFunc[ev.Func] < d.threshold {
		return Anomaly{}, false
	}
	d.perFunc[ev.Func] = 0
	return Anomaly{
		Detector: d.Name(),
		Func:     ev.Func,
		Reason:   fmt.Sprintf("%d deopt exits (speculation guard failed)", d.threshold),
	}, true
}

// quarantineSpikeDetector fires when spike quarantines land within a
// window of recent signals — distinguishing a burst of supervisor
// failures from the occasional flaky compile.
type quarantineSpikeDetector struct {
	spike  int
	window int64
	seen   int64   // total signals observed
	marks  []int64 // signal index of recent quarantines (len <= spike)
}

// NewQuarantineSpikeDetector builds the detector (spike <= 0 selects 3
// quarantines, window <= 0 selects 256 signals).
func NewQuarantineSpikeDetector(spike, window int) Detector {
	if spike <= 0 {
		spike = 3
	}
	if window <= 0 {
		window = 256
	}
	return &quarantineSpikeDetector{spike: spike, window: int64(window)}
}

func (d *quarantineSpikeDetector) Name() string { return "quarantine-spike" }

func (d *quarantineSpikeDetector) Observe(ev Event) (Anomaly, bool) {
	d.seen++
	if ev.Name != FactQuarantined {
		return Anomaly{}, false
	}
	d.marks = append(d.marks, d.seen)
	if len(d.marks) > d.spike {
		d.marks = d.marks[1:]
	}
	if len(d.marks) < d.spike || d.seen-d.marks[0] > d.window {
		return Anomaly{}, false
	}
	n := d.spike
	d.marks = d.marks[:0]
	return Anomaly{
		Detector: d.Name(),
		Func:     ev.Func,
		Reason:   fmt.Sprintf("%d quarantines within %d signals", n, d.window),
	}, true
}

// rateShiftState is the shared machinery of the two regression
// detectors: compare a rolling-window "bad event" rate against the
// lifetime baseline and fire when it shifts upward by more than delta.
type rateShiftState struct {
	window    []bool // ring of recent outcomes (true = bad)
	next      int
	filled    bool
	lifeTotal int64
	lifeBad   int64
	minLife   int64
	delta     float64
}

func newRateShiftState(window int, delta float64) rateShiftState {
	return rateShiftState{window: make([]bool, window), minLife: int64(window) * 2, delta: delta}
}

// observe records one outcome; reports whether the window rate now
// exceeds the lifetime rate by delta (and resets the window if so).
func (s *rateShiftState) observe(bad bool) (windowRate, lifeRate float64, fired bool) {
	s.lifeTotal++
	if bad {
		s.lifeBad++
	}
	s.window[s.next] = bad
	s.next++
	if s.next == len(s.window) {
		s.next = 0
		s.filled = true
	}
	if !s.filled || s.lifeTotal < s.minLife {
		return 0, 0, false
	}
	badN := 0
	for _, b := range s.window {
		if b {
			badN++
		}
	}
	windowRate = float64(badN) / float64(len(s.window))
	lifeRate = float64(s.lifeBad) / float64(s.lifeTotal)
	if windowRate <= lifeRate+s.delta {
		return windowRate, lifeRate, false
	}
	// Reset so one sustained regression fires once per window, not once
	// per observation.
	s.filled = false
	s.next = 0
	return windowRate, lifeRate, true
}

// cacheMissRegressionDetector fires when the recent code/verdict cache
// miss rate regresses against the lifetime baseline — the signature of
// an eviction storm, a poisoned store, or a key-scheme bug.
type cacheMissRegressionDetector struct{ st rateShiftState }

// NewCacheMissRegressionDetector builds the detector (window <= 0
// selects 64 lookups, delta <= 0 selects +0.25 absolute miss rate).
func NewCacheMissRegressionDetector(window int, delta float64) Detector {
	if window <= 0 {
		window = 64
	}
	if delta <= 0 {
		delta = 0.25
	}
	return &cacheMissRegressionDetector{st: newRateShiftState(window, delta)}
}

func (d *cacheMissRegressionDetector) Name() string { return "cache-miss-regression" }

func (d *cacheMissRegressionDetector) Observe(ev Event) (Anomaly, bool) {
	if ev.Name != FactCacheHit && ev.Name != FactStoreHit && ev.Name != FactCacheMiss {
		return Anomaly{}, false
	}
	wr, lr, fired := d.st.observe(ev.Name == FactCacheMiss)
	if !fired {
		return Anomaly{}, false
	}
	return Anomaly{
		Detector: d.Name(),
		Reason:   fmt.Sprintf("miss rate %.2f vs lifetime %.2f", wr, lr),
	}, true
}

// verdictRateShiftDetector fires when the recent share of non-go
// policy verdicts (disable-pass/nojit) shifts up against the lifetime
// baseline — a DNA update or workload change suddenly tripping the
// go/no-go policy far more often.
type verdictRateShiftDetector struct{ st rateShiftState }

// NewVerdictRateShiftDetector builds the detector (window <= 0 selects
// 32 verdicts, delta <= 0 selects +0.30 absolute non-go rate).
func NewVerdictRateShiftDetector(window int, delta float64) Detector {
	if window <= 0 {
		window = 32
	}
	if delta <= 0 {
		delta = 0.30
	}
	return &verdictRateShiftDetector{st: newRateShiftState(window, delta)}
}

func (d *verdictRateShiftDetector) Name() string { return "verdict-rate-shift" }

func (d *verdictRateShiftDetector) Observe(ev Event) (Anomaly, bool) {
	if ev.Name != FactDecide {
		return Anomaly{}, false
	}
	wr, lr, fired := d.st.observe(ev.Str("verdict") != string(VerdictGo))
	if !fired {
		return Anomaly{}, false
	}
	return Anomaly{
		Detector: d.Name(),
		Reason:   fmt.Sprintf("non-go verdict rate %.2f vs lifetime %.2f", wr, lr),
	}, true
}

// perfDivergenceDetector fires once per function that the policy pinned
// to the interpreter (nojit) yet keeps getting hot — the "JITBULL's
// verdict is costing real performance" case the paper's go/no-go
// trade-off creates. The engine states FactHotInterp at a call-count
// milestone of a pinned function; the detector dedups per function.
type perfDivergenceDetector struct {
	flagged map[string]bool
}

// NewPerfDivergenceDetector builds the detector.
func NewPerfDivergenceDetector() Detector {
	return &perfDivergenceDetector{flagged: map[string]bool{}}
}

func (d *perfDivergenceDetector) Name() string { return "perf-divergence" }

func (d *perfDivergenceDetector) Observe(ev Event) (Anomaly, bool) {
	if ev.Name != FactHotInterp || d.flagged[ev.Func] {
		return Anomaly{}, false
	}
	d.flagged[ev.Func] = true
	return Anomaly{
		Detector: d.Name(),
		Func:     ev.Func,
		Reason:   fmt.Sprintf("policy-pinned function still hot after %d calls", ev.Int("calls")),
	}, true
}
