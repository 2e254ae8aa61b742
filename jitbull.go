// Package jitbull is a from-scratch Go reproduction of "JITBULL: Securing
// JavaScript Runtime with a Go/No-Go Policy for JIT Engine" (Decourcelle,
// Teabe, Hagimont — DSN 2024).
//
// It bundles a complete simulated JavaScript engine (the nanojs language, a
// profiling interpreter, an IonMonkey-style optimizing JIT with ~22 SSA
// optimization passes, and a shared heap arena on which JIT bugs are
// actually exploitable) together with JITBULL itself: per-pass "JIT DNA"
// extraction (Algorithm 1), DNA comparison against a database of
// vulnerability demonstrator fingerprints (Algorithm 2), and the go/no-go
// policy that disables matched optimization passes — or JIT compilation of
// the matching function when a matched pass is mandatory.
//
// Quick start:
//
//	eng, err := jitbull.New(script, jitbull.Config{})
//	db := &jitbull.Database{}
//	db.Add(fingerprint) // from jitbull.Fingerprint or a maintainer update
//	jitbull.Protect(eng, db)
//	result, err := eng.Run()
//
// See the examples/ directory for complete programs, DESIGN.md for the
// architecture, and EXPERIMENTS.md for the paper-vs-measured evaluation.
package jitbull

import (
	"io"
	"net"
	"net/http"

	"github.com/jitbull/jitbull/internal/core"
	"github.com/jitbull/jitbull/internal/engine"
	"github.com/jitbull/jitbull/internal/faults"
	"github.com/jitbull/jitbull/internal/jitqueue"
	"github.com/jitbull/jitbull/internal/obs"
	"github.com/jitbull/jitbull/internal/octane"
	"github.com/jitbull/jitbull/internal/passes"
	"github.com/jitbull/jitbull/internal/store"
	"github.com/jitbull/jitbull/internal/variants"
	"github.com/jitbull/jitbull/internal/vulndb"
)

// Core engine types.
type (
	// Engine is a tiered nanojs runtime (interpreter → baseline → Ion).
	Engine = engine.Engine
	// Config parameterizes an Engine: tier thresholds, injected bugs
	// (the simulated vulnerability window), NoJIT mode, heap size.
	Config = engine.Config
	// Stats carries the per-run counters of the paper's Figure 4
	// (NrJIT, NrDisJIT, NrNoJIT, ...).
	Stats = engine.Stats
	// BugSet selects which injected CVE bugs are active.
	BugSet = passes.BugSet
	// HijackError reports a control-flow hijack (payload execution).
	HijackError = engine.HijackError
	// CompileError is a supervised, stage-attributed JIT-tier failure
	// (surfaced through Config.OnCompileError).
	CompileError = engine.CompileError
)

// JITBULL types.
type (
	// Database holds VDC DNA fingerprints (add on report, remove on patch).
	Database = core.Database
	// VDC is one vulnerability's fingerprint: the DNA of every function
	// its demonstrator code got JIT-compiled.
	VDC = core.VDC
	// DNA is the per-pass delta vector of one JITed function.
	DNA = core.DNA
	// Delta is one pass's removed/added dependency sub-chain sets.
	Delta = core.Delta
	// Detector is the Δ comparator plus go/no-go policy.
	Detector = core.Detector
	// Vulnerability describes one implemented CVE with its demonstrator.
	Vulnerability = vulndb.Vuln
	// Benchmark is one program of the benign evaluation corpus.
	Benchmark = octane.Benchmark
)

// Observability types (see internal/obs). Config has two observability
// fields. Config.Metrics is the counter and histogram registry.
// Config.Tracer is the one event stream the engine states its lifecycle
// facts and compile-pipeline spans on; what to keep of it is chosen by the
// tracer's sink: Ring, Journal, AuditLog, Watchdog and FlightRecorder are
// each a view of the stream, composed with MultiSink (the Watchdog last,
// and told the tracer with SetTracer so its anomalies join the stream).
type (
	// Tracer stamps lifecycle facts, spans and instants and routes them
	// into a Sink. A nil *Tracer is the disabled tracer (one nil check per
	// probe).
	Tracer = obs.Tracer
	// TraceEvent is one recorded span or instant.
	TraceEvent = obs.Event
	// Ring is the view that keeps the whole stream, newest events first to
	// stay; it is what SaveChromeTrace exports.
	Ring = obs.Ring
	// Registry is a named-metrics registry (counters, gauges, histograms).
	Registry = obs.Registry
	// AuditLog is the view that keeps decisions: the go/no-go verdicts a
	// Detector appends to it (set Detector.Audit), and of the stream the
	// supervisor transitions and watchdog anomalies.
	AuditLog = obs.AuditLog
	// AuditEvent is one structured audit record (JSONL on disk).
	AuditEvent = obs.AuditEvent
	// Verdict classifies an audit event ("go", "disable-pass", "nojit", ...).
	Verdict = obs.Verdict
)

// The other views of the stream (see internal/obs): the tier-journey
// journal, the tail-sampling flight recorder, and the anomaly watchdog.
type (
	// Journal is the view that keeps each function's tier journey (interp
	// → warm → compiled → installed → OSR/deopt/quarantine ...), bounded
	// per function; a nil *Journal records nothing.
	Journal = obs.Journal
	// JourneyEvent is one step of a function's tier journey.
	JourneyEvent = obs.JourneyEvent
	// FlightRecorder is the tail-sampling view: it retains every event in
	// a ring but dumps a Chrome-trace episode file only around anomalies
	// (p99 compile outliers, injected faults, quarantines, watchdog
	// anomalies), under a bounded disk budget.
	FlightRecorder = obs.FlightRecorder
	// FlightOptions bounds a FlightRecorder (ring size, dump count/bytes).
	FlightOptions = obs.FlightOptions
	// FlightEpisode describes one dumped anomaly episode.
	FlightEpisode = obs.Episode
	// Watchdog is the view that turns the engine's and the store's facts
	// into anomalies through pluggable detectors, driving /healthz; each
	// anomaly is itself a fact on the stream, which is how the audit log
	// and the flight recorder come by it. A nil *Watchdog ignores every
	// event.
	Watchdog = obs.Watchdog
	// WatchdogOptions configures the watchdog (detectors, registry,
	// recovery threshold).
	WatchdogOptions = obs.WatchdogOptions
	// Anomaly is one detector verdict (detector name, function, cause).
	Anomaly = obs.Anomaly
	// OpsState bundles what the ops endpoints serve (/metrics.prom,
	// /healthz, /journey.json, /flight.json, ...).
	OpsState = obs.OpsState
	// MultiSink fans the stream out to several views (e.g. a Ring for
	// -trace, an AuditLog, a FlightRecorder, and a Watchdog last).
	MultiSink = obs.MultiSink
	// FaultInjector is the deterministic chaos injector (see
	// internal/faults), wired through Config.Faults.
	FaultInjector = faults.Injector
)

// Off-thread compilation & shared-cache types (see internal/jitqueue):
// wired through Config.Queue and Config.Cache. Both are optional and
// concurrency-safe; a nil pointer means the feature is off and the engine
// compiles inline exactly as before.
type (
	// Queue is a bounded background-compilation service shared by any
	// number of engines. When it is saturated, enqueues fall back to
	// inline compilation (back-pressure, never an unbounded backlog).
	Queue = jitqueue.Queue
	// CodeCache is a cross-engine compilation cache keyed by the
	// canonical (rename/minify-invariant) bytecode hash plus every other
	// compilation input; a hit returns the artifact together with the
	// recorded JITBULL verdict, skipping the pipeline and DNA matching.
	CodeCache = jitqueue.Cache
)

// NewQueue starts a compile queue with the given worker count and job
// capacity (<= 0 select GOMAXPROCS workers / the default capacity). reg
// may be nil; when set it receives the jit.queue_* metrics. Close the
// queue when done.
func NewQueue(workers, capacity int, reg *Registry) *Queue {
	return jitqueue.New(workers, capacity, reg)
}

// NewCodeCache returns an empty shared compilation cache bounded at
// jitqueue.DefaultCacheMaxBytes of accounted artifact footprint (arbitrary
// entries are evicted to stay under the bound). reg may be nil; when set
// it receives the cache.{hits,misses,evictions,bytes,entries} metrics.
func NewCodeCache(reg *Registry) *CodeCache { return jitqueue.NewCache(reg) }

// Persistent artifact/verdict store types (see internal/store): an
// on-disk second tier under the CodeCache. Every record is a checksummed,
// key-bound, atomically-written envelope; anything that fails
// verification on read is quarantined and served as a miss (the engine
// just compiles cold), never executed.
type (
	// ArtifactStore is the on-disk store. Attach it under a CodeCache with
	// AttachStore so cached compilations (and their JITBULL verdicts)
	// survive process restarts.
	ArtifactStore = store.Store
	// StoreVerifyReport is the result of an offline integrity scan.
	StoreVerifyReport = store.VerifyReport
	// StoreOptions configures an ArtifactStore (metrics, tracer, chaos
	// injector, retry budget).
	StoreOptions = store.Options
)

// OpenStore opens (creating if needed) a persistent artifact store rooted
// at dir. Give opts.Tracer the engine's tracer: the store states its facts
// (a quarantined record, a dropped put, its get/put spans feeding the
// store.{get,put}_ns histogram exemplars) on the same stream, so the same
// audit log, watchdog and flight recorder render them.
func OpenStore(dir string, opts StoreOptions) (*ArtifactStore, error) {
	return store.Open(dir, opts)
}

// AttachStore wires a persistent store under a CodeCache as its second
// tier: every publish is written through, and a memory miss consults the
// store before compiling. Artifacts travel as their plain op stream
// (derived forms are recomputed bit-identically on load) and each JITBULL
// decision as itself, matches included, so a fleet with a detector and one
// without attach a store the same way. Call before the engines sharing the
// cache run.
func AttachStore(c *CodeCache, st *ArtifactStore) {
	c.AttachTier(st, engine.NewCacheCodec())
}

// NewRing returns a trace ring buffer; capacity <= 0 uses the default (64k).
func NewRing(capacity int) *Ring { return obs.NewRing(capacity) }

// NewTracer returns a tracer routing the stream into sink: one view, or a
// MultiSink of several.
func NewTracer(sink obs.Sink) *Tracer { return obs.NewTracer(sink) }

// NewRegistry returns an empty metrics registry (safe for concurrent use,
// shareable across engines).
func NewRegistry() *Registry { return obs.NewRegistry() }

// NewAuditLog returns an audit log; w may be nil for in-memory-only use
// (the newest 64k events), or a writer to stream every event as one JSON
// line.
func NewAuditLog(w io.Writer) *AuditLog { return obs.NewAuditLog(w) }

// SaveChromeTrace writes events as a Chrome trace_event JSON file,
// loadable in chrome://tracing or https://ui.perfetto.dev.
func SaveChromeTrace(path string, events []TraceEvent) error {
	return obs.SaveChromeTrace(path, events)
}

// ReadAuditFile parses a JSONL audit stream written via NewAuditLog.
func ReadAuditFile(path string) ([]AuditEvent, error) { return obs.ReadAuditFile(path) }

// NewJournal returns a tier-journey journal keeping at most capPerFunc
// events per function (<= 0 uses the default, 256).
func NewJournal(capPerFunc int) *Journal { return obs.NewJournal(capPerFunc) }

// NewFlightRecorder returns a tail-sampling flight recorder dumping
// anomaly episodes as Chrome-trace files under dir. Use it as the
// tracer's sink (alone or in a MultiSink beside the other views).
func NewFlightRecorder(dir string, opts FlightOptions) *FlightRecorder {
	return obs.NewFlightRecorder(dir, opts)
}

// NewWatchdog returns an anomaly watchdog running the default detector
// set unless opts.Detectors overrides it. Put it last in the tracer's
// MultiSink and call SetTracer with that tracer.
func NewWatchdog(opts WatchdogOptions) *Watchdog { return obs.NewWatchdog(opts) }

// StartOpsServer serves the full operating surface — /metrics,
// /metrics.json, /metrics.prom, /healthz, /audit.json, /journey.json,
// /flight.json and /debug/pprof/* — on addr. Any OpsState field may be
// nil; the matching endpoints degrade gracefully.
func StartOpsServer(addr string, s OpsState) (*http.Server, net.Addr, error) {
	return obs.StartOpsServer(addr, s)
}

// WatchdogProbe adapts a fault injector into a Watchdog seed probe
// (see Watchdog.SetSeedProbe): each fact the watchdog counts evaluates one hit of
// the "watchdog" fault point, letting the chaos campaign seed anomalies
// with the injector's own 1:1 accounting.
func WatchdogProbe(in *FaultInjector) func(detail string) error {
	return faults.WatchdogProbe(in)
}

// New parses, compiles and prepares a nanojs script for execution.
func New(src string, cfg Config) (*Engine, error) { return engine.New(src, cfg) }

// Protect installs a JITBULL detector over db on the engine and returns
// it. With an empty database the engine runs with zero added overhead.
// The detector inherits the engine's metrics sink, so DNA histograms land
// beside the compile-path ones; set its Audit field to the AuditLog in the
// tracer's sink to have the go/no-go verdicts, with their match
// attribution, logged between the supervisor transitions.
func Protect(e *Engine, db *Database) *Detector {
	d := core.NewDetector(db)
	d.Metrics = e.MetricsSink()
	e.SetPolicy(d)
	return d
}

// BenchmarkByName returns one benchmark of the corpus by name.
func BenchmarkByName(name string) (Benchmark, error) { return octane.ByName(name) }

// Fingerprint runs a vulnerability demonstrator code on an engine with the
// given bugs active and a recording policy installed, returning the VDC
// DNA fingerprint to install in a Database (step 1 of the paper's
// workflow). ionThreshold <= 0 uses the engine default (1500).
func Fingerprint(cve, demonstrator string, bugs BugSet, ionThreshold int) (VDC, error) {
	return vulndb.ExtractVDCFromSource(cve, demonstrator, bugs, ionThreshold)
}

// LoadDatabase reads a Database saved with Database.Save, rejecting
// corrupt (torn, truncated, bit-flipped) or structurally invalid files
// with a descriptive error.
func LoadDatabase(path string) (*Database, error) { return core.LoadDatabase(path) }

// LoadDatabaseFailSafe is LoadDatabase for the protection path: on any
// failure it returns a non-nil fail-safe Database — whose policy verdict
// is NoJIT for every function — alongside the error, so a corrupted
// database degrades to "JIT disabled", never to "protection silently off".
func LoadDatabaseFailSafe(path string) (*Database, error) {
	return core.LoadDatabaseFailSafe(path)
}

// Vulnerabilities returns the eight implemented CVEs with their
// demonstrator codes, injectable bugs, and window metadata.
func Vulnerabilities() []Vulnerability { return vulndb.All() }

// VulnerabilityByID looks up one implemented CVE.
func VulnerabilityByID(cve string) (Vulnerability, error) { return vulndb.ByID(cve) }

// Benchmarks returns the Octane-analogue corpus plus the two
// micro-benchmarks.
func Benchmarks() []Benchmark { return octane.All() }

// RenameVariant rewrites every user identifier of a script to mangled
// names (the paper's first variant-generation approach).
func RenameVariant(src string) (string, error) { return variants.Rename(src) }

// MinifyVariant renames identifiers and strips whitespace (the paper's
// second approach).
func MinifyVariant(src string) (string, error) { return variants.Minify(src) }

// PassNames returns the optimization pipeline's pass names in order.
func PassNames() []string { return passes.PassNames() }

// IsCrash reports whether err is a simulated segfault.
func IsCrash(err error) bool { return engine.IsCrash(err) }

// IsHijack reports whether err is a control-flow hijack (payload executed).
func IsHijack(err error) bool { return engine.IsHijack(err) }
