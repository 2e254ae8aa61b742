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
	"github.com/jitbull/jitbull/internal/variants"
	"github.com/jitbull/jitbull/internal/vulndb"
)

// Core engine types.
type (
	// Engine is a two-tier nanojs runtime: the profiling interpreter, and
	// Ion for the functions that get hot, unless the policy says NoJIT.
	Engine = engine.Engine
	// Config parameterizes an Engine: the Ion threshold, injected bugs
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
// tracer's sink: Ring and AuditLog are each a view of the stream,
// composed with MultiSink.
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
	// AuditLog is the view that keeps decisions: of the stream, the
	// go/no-go verdicts (each decide fact's decision, matches included)
	// and the supervisor transitions.
	AuditLog = obs.AuditLog
	// AuditEvent is one structured audit record (JSONL on disk).
	AuditEvent = obs.AuditEvent
	// Verdict classifies an audit event ("go", "disable-pass", "nojit", ...).
	Verdict = obs.Verdict
	// MultiSink fans the stream out to several views (e.g. a Ring for
	// -trace and an AuditLog).
	MultiSink = obs.MultiSink
	// OpsState bundles what the ops endpoints serve (/metrics.prom,
	// /audit.json, ...).
	OpsState = obs.OpsState
)

// FaultInjector is the deterministic chaos injector (see internal/faults),
// wired through Config.Faults.
type FaultInjector = faults.Injector

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
// jitqueue.DefaultCacheMaxBytes of accounted artifact footprint; SIEVE
// eviction keeps it under the bound, deterministically in the order of
// lookups and inserts. reg may be nil; when set it receives the
// cache.{hits,misses,evictions,bytes,entries} metrics.
func NewCodeCache(reg *Registry) *CodeCache { return jitqueue.NewCache(reg) }

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

// StartOpsServer serves the full operating surface — /metrics,
// /metrics.json, /metrics.prom, /audit.json and /debug/pprof/* — on addr.
// Either OpsState field may be nil; the matching endpoints degrade
// gracefully.
func StartOpsServer(addr string, s OpsState) (*http.Server, net.Addr, error) {
	return obs.StartOpsServer(addr, s)
}

// New parses, compiles and prepares a nanojs script for execution.
func New(src string, cfg Config) (*Engine, error) { return engine.New(src, cfg) }

// Protect installs a JITBULL detector over db on the engine and returns
// it. With an empty database the engine runs with zero added overhead.
// The detector inherits the engine's metrics sink, so DNA histograms land
// beside the compile-path ones. Its go/no-go verdicts, with their match
// attribution, are decide facts on the engine's tracer: an AuditLog in the
// tracer's sink logs them between the supervisor transitions.
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
