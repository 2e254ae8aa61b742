// Package obs is the runtime observability layer of the jitbull engine:
// structured compile-lifecycle tracing, an atomic metrics registry, and a
// policy-decision audit log. It is dependency-free (standard library only)
// and designed around a nil-is-off fast path: every entry point is a
// method on a pointer receiver that tolerates a nil receiver, so the
// instrumented compile path pays exactly one predictable nil check when
// observability is disabled — no interface dispatch, no allocation.
//
// The two sub-layers:
//
//   - The event stream (this file, facts.go): the Tracer stamps every
//     lifecycle fact the engine and the store state (facts.go lists them)
//     and every compile-pipeline span (mirbuild → each optimization pass →
//     DNA extraction → lir → regalloc) and routes it into a Sink. Every
//     consumer is a Sink that keeps the facts it renders: Ring (the whole
//     stream, exportable as Chrome trace_event JSON), Journal (per-function
//     tier journeys), AuditLog (supervisor transitions, beside the policy
//     verdicts core.Detector appends), Watchdog (anomaly detectors, whose
//     findings re-enter the stream as anomaly facts) and FlightRecorder
//     (episode dumps). MultiSink composes them.
//   - Registry (metrics.go): named atomic counters, gauges, and
//     fixed-bucket histograms with JSON and expvar-style text encoders,
//     servable over HTTP next to net/http/pprof (server.go).
package obs

import (
	"sync/atomic"
	"time"
)

// Kind classifies a trace event.
type Kind uint8

// Event kinds. A KindSpan is a complete span (Chrome phase "X"); a
// KindInstant is a point-in-time marker (Chrome phase "i").
const (
	KindSpan Kind = iota
	KindInstant
)

// String renders the kind for reports and golden files.
func (k Kind) String() string {
	if k == KindInstant {
		return "instant"
	}
	return "span"
}

// Trace event categories used across the engine. Categories group spans
// into chrome://tracing tracks and make golden tests self-describing.
const (
	CatCompile = "compile" // whole-compilation and stage spans
	CatPass    = "pass"    // one optimization pass execution
	CatDNA     = "dna"     // JITBULL DNA extraction (per-pass observer)
	CatPolicy  = "jitbull" // go/no-go decision
	CatEngine  = "engine"  // tiering, dispatch, bailouts
	CatFault   = "fault"   // fault-injection framework events
	CatStore   = "store"   // persistent artifact store I/O
	CatAnomaly = "anomaly" // watchdog findings
)

// MaxArgs is the fixed per-event argument capacity. Events carry their
// arguments inline so recording a span never allocates.
const MaxArgs = 4

// Arg is one key/value annotation on an event: either an int64 or a
// string payload.
type Arg struct {
	Key   string
	Val   int64
	Str   string
	IsStr bool
}

// I builds an integer argument.
func I(key string, v int64) Arg { return Arg{Key: key, Val: v} }

// S builds a string argument.
func S(key, v string) Arg { return Arg{Key: key, Str: v, IsStr: true} }

// Event is one recorded trace event. Timestamps are nanoseconds since the
// tracer's epoch and are monotonic (taken from Go's monotonic clock).
type Event struct {
	Kind  Kind
	Cat   string
	Name  string // a fact name (facts.go) or a pipeline stage or pass name
	Func  string // the function, or store key, the event is about ("" = none)
	ID    uint64 // span ID (0 for instants and pre-ID traces)
	TS    int64  // start time, ns since tracer epoch
	Dur   int64  // span duration in ns (0 for instants)
	NArgs int
	Args  [MaxArgs]Arg
}

// Str returns the string argument named key ("" when absent).
func (ev Event) Str(key string) string {
	for _, a := range ev.Args[:ev.NArgs] {
		if a.Key == key && a.IsStr {
			return a.Str
		}
	}
	return ""
}

// Int returns the integer argument named key (0 when absent).
func (ev Event) Int(key string) int64 {
	for _, a := range ev.Args[:ev.NArgs] {
		if a.Key == key && !a.IsStr {
			return a.Val
		}
	}
	return 0
}

// Sink receives recorded events. Implementations must be safe for
// concurrent use (parallel experiment cells may share one tracer).
type Sink interface {
	Record(Event)
}

// Tracer stamps and routes events into a Sink. A nil *Tracer is the
// disabled tracer: every method is a no-op costing one nil check, which
// is the production fast path (benchmarked by BenchmarkSpan/disabled).
type Tracer struct {
	sink  Sink
	epoch time.Time
	seq   atomic.Uint64 // span ID sequence; IDs are unique per tracer
}

// NewTracer returns a tracer recording into sink with its epoch at now.
func NewTracer(sink Sink) *Tracer {
	return &Tracer{sink: sink, epoch: time.Now()}
}

// now returns nanoseconds since the epoch. time.Since reads the monotonic
// clock, so successive calls never go backwards.
func (t *Tracer) now() int64 { return int64(time.Since(t.epoch)) }

// record stamps nothing (the caller did) and routes the event.
func (t *Tracer) record(ev Event) {
	if t.sink != nil {
		t.sink.Record(ev)
	}
}

// Span is an in-flight span handle, returned by value so the disabled
// path allocates nothing. The zero Span (from a nil tracer) is inert.
type Span struct {
	t     *Tracer
	cat   string
	name  string
	fn    string
	id    uint64
	start int64
}

// Begin opens a span about fn ("" when it is about no function). On a nil
// tracer it returns the inert zero Span.
func (t *Tracer) Begin(cat, name, fn string) Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, cat: cat, name: name, fn: fn, id: t.seq.Add(1), start: t.now()}
}

// Active reports whether the span will record on End.
func (s Span) Active() bool { return s.t != nil }

// ID returns the span's tracer-unique ID (0 for the inert zero Span).
// Exemplar-linked histograms store this ID so a p99 outlier bucket can
// be followed back to the retained trace event that produced it.
func (s Span) ID() uint64 { return s.id }

// End closes the span and records it with up to MaxArgs annotations
// (extras are dropped). Safe on the zero Span.
func (s Span) End(args ...Arg) {
	if s.t == nil {
		return
	}
	ev := Event{Kind: KindSpan, Cat: s.cat, Name: s.name, Func: s.fn, ID: s.id, TS: s.start, Dur: s.t.now() - s.start}
	ev.setArgs(args)
	s.t.record(ev)
}

// setArgs stores up to MaxArgs annotations (extras are dropped). The zero
// Arg takes no slot: a call site passes it where it has nothing to say.
func (ev *Event) setArgs(args []Arg) {
	for _, a := range args {
		if a.Key == "" {
			continue
		}
		if ev.NArgs == MaxArgs {
			break
		}
		ev.Args[ev.NArgs] = a
		ev.NArgs++
	}
}

// EndErr closes the span annotated with an error outcome.
func (s Span) EndErr(err error) {
	if s.t == nil {
		return
	}
	if err != nil {
		s.End(S("error", err.Error()))
		return
	}
	s.End()
}

// Instant records a point-in-time event about fn ("" when it is about no
// function). Safe on a nil tracer.
func (t *Tracer) Instant(cat, name, fn string, args ...Arg) {
	if t == nil {
		return
	}
	ev := Event{Kind: KindInstant, Cat: cat, Name: name, Func: fn, TS: t.now()}
	ev.setArgs(args)
	t.record(ev)
}
