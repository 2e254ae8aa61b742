package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// fact builds one instant event the way a Tracer would, for tests that
// feed a view directly.
func fact(name, fn string, args ...Arg) Event {
	ev := Event{Kind: KindInstant, Cat: CatEngine, Name: name, Func: fn}
	ev.setArgs(args)
	return ev
}

// --- Ring under concurrent writers -----------------------------------------

func TestRingConcurrentWritersWraparound(t *testing.T) {
	const (
		cap     = 64
		writers = 8
		each    = 100
	)
	r := NewRing(cap)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				r.Record(Event{Kind: KindInstant, Cat: CatEngine, Name: fmt.Sprintf("w%d-%d", w, i), TS: int64(i)})
			}
		}(w)
	}
	wg.Wait()

	if got := r.Total(); got != writers*each {
		t.Fatalf("Total = %d, want %d", got, writers*each)
	}
	if got := r.Len(); got != cap {
		t.Fatalf("Len = %d, want %d (wrapped ring keeps exactly its capacity)", got, cap)
	}
	if got := r.Dropped(); got != writers*each-cap {
		t.Fatalf("Dropped = %d, want %d", got, writers*each-cap)
	}
	evs := r.Events()
	if len(evs) != cap {
		t.Fatalf("Events returned %d, want %d", len(evs), cap)
	}
	for i, ev := range evs {
		// Every retained slot must hold a complete event, never a torn or
		// zero-valued one: interleaved writers may not corrupt entries.
		if !strings.HasPrefix(ev.Name, "w") || ev.Cat != CatEngine {
			t.Fatalf("event %d is torn or zero: %+v", i, ev)
		}
	}
}

// --- Chrome exporter edge cases --------------------------------------------

func TestChromeExportZeroEvents(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, nil); err != nil {
		t.Fatalf("WriteChromeTrace(nil): %v", err)
	}
	var out struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	if out.TraceEvents == nil {
		t.Fatalf("traceEvents must be an empty array, not null: %s", buf.String())
	}
	if len(out.TraceEvents) != 0 {
		t.Fatalf("traceEvents has %d entries, want 0", len(out.TraceEvents))
	}
}

func TestChromeExportTruncatedRing(t *testing.T) {
	r := NewRing(8)
	for i := 0; i < 20; i++ {
		r.Record(Event{Kind: KindInstant, Cat: CatEngine, Name: fmt.Sprintf("ev%d", i), TS: int64(i * 1000)})
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, r.Events()); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var out struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			TS   float64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(out.TraceEvents) != 8 {
		t.Fatalf("exported %d events from a truncated ring, want 8", len(out.TraceEvents))
	}
	// The newest 8 survive (ev12..ev19), in monotonic timestamp order.
	for i, ce := range out.TraceEvents {
		if want := fmt.Sprintf("ev%d", 12+i); ce.Name != want {
			t.Fatalf("event %d = %q, want %q", i, ce.Name, want)
		}
		if i > 0 && ce.TS < out.TraceEvents[i-1].TS {
			t.Fatalf("timestamps not monotonic at %d", i)
		}
	}
}

func TestChromeExportOverMaxArgsSpan(t *testing.T) {
	ring := NewRing(4)
	tr := NewTracer(ring)
	sp := tr.Begin(CatCompile, "compile", "hot")
	sp.End(
		I("a", 1), I("b", 2), I("c", 3), I("d", 4),
		I("overflow1", 5), S("overflow2", "dropped"),
	)
	evs := ring.Events()
	if len(evs) != 1 {
		t.Fatalf("recorded %d events, want 1", len(evs))
	}
	if evs[0].NArgs != MaxArgs {
		t.Fatalf("NArgs = %d, want %d (extras past MaxArgs must be dropped, not corrupt)", evs[0].NArgs, MaxArgs)
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, evs); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var out struct {
		TraceEvents []struct {
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	args := out.TraceEvents[0].Args
	for _, k := range []string{"a", "b", "c", "d", "span_id", "fn"} {
		if _, ok := args[k]; !ok {
			t.Fatalf("exported args missing %q: %v", k, args)
		}
	}
	for _, k := range []string{"overflow1", "overflow2"} {
		if _, ok := args[k]; ok {
			t.Fatalf("dropped arg %q leaked into export: %v", k, args)
		}
	}
}

// --- Exemplar-linked histograms --------------------------------------------

func TestHistogramExemplars(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("compile.ns", []int64{100, 1000})

	h.ObserveEx(50, 7)    // bucket 0
	h.ObserveEx(40, 8)    // bucket 0, smaller: must NOT replace the exemplar
	h.ObserveEx(60, 9)    // bucket 0, larger: must replace
	h.ObserveEx(500, 11)  // bucket 1
	h.ObserveEx(5000, 0)  // +Inf bucket, spanID 0: counted but no exemplar
	h.ObserveEx(7000, 13) // +Inf bucket

	s := h.Snapshot()
	if s.Count != 6 {
		t.Fatalf("Count = %d, want 6", s.Count)
	}
	if s.Exemplars == nil {
		t.Fatalf("snapshot has no exemplars despite span-linked observations")
	}
	if got := s.Exemplars[0]; got.SpanID != 9 || got.Value != 60 {
		t.Fatalf("bucket 0 exemplar = %+v, want span 9 value 60", got)
	}
	if got := s.Exemplars[1]; got.SpanID != 11 || got.Value != 500 {
		t.Fatalf("bucket 1 exemplar = %+v, want span 11 value 500", got)
	}
	if got := s.Exemplars[2]; got.SpanID != 13 || got.Value != 7000 {
		t.Fatalf("+Inf exemplar = %+v, want span 13 value 7000", got)
	}

	// Plain Observe keeps working and never writes an exemplar.
	h2 := reg.Histogram("plain", []int64{10})
	h2.Observe(5)
	if s2 := h2.Snapshot(); s2.Exemplars != nil {
		t.Fatalf("plain Observe produced exemplars: %+v", s2.Exemplars)
	}
}

func TestWritePromFormat(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("store.hits").Add(3)
	reg.Gauge("watchdog.healthy").Set(1)
	h := reg.Histogram("compile.ns", []int64{100, 1000})
	h.ObserveEx(60, 42)
	h.ObserveEx(500, 7)
	h.ObserveEx(9000, 9)

	var buf bytes.Buffer
	if err := reg.WriteProm(&buf); err != nil {
		t.Fatalf("WriteProm: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE store_hits counter",
		"store_hits 3",
		"# TYPE watchdog_healthy gauge",
		"watchdog_healthy 1",
		"# TYPE compile_ns histogram",
		`compile_ns_bucket{le="100"} 1 # {span_id="42"} 60`,
		`compile_ns_bucket{le="1000"} 2 # {span_id="7"} 500`,
		`compile_ns_bucket{le="+Inf"} 3 # {span_id="9"} 9000`,
		"compile_ns_sum 9560",
		"compile_ns_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("WriteProm output missing %q:\n%s", want, out)
		}
	}

	// Nil registry writes nothing and does not error.
	var nilBuf bytes.Buffer
	var nilReg *Registry
	if err := nilReg.WriteProm(&nilBuf); err != nil || nilBuf.Len() != 0 {
		t.Fatalf("nil WriteProm: err=%v len=%d", err, nilBuf.Len())
	}
}

// --- Flight recorder ---------------------------------------------------------

func flightFor(t *testing.T, opts FlightOptions) *FlightRecorder {
	t.Helper()
	return NewFlightRecorder(t.TempDir(), opts)
}

func TestFlightRecorderP99TriggerWithCooldown(t *testing.T) {
	f := flightFor(t, FlightOptions{MinSamples: 8, RingCapacity: 32})
	compile := func(dur int64) {
		f.Record(Event{Kind: KindSpan, Cat: CatCompile, Name: "compile", Dur: dur, ID: 1})
	}
	for i := 0; i < 8; i++ {
		compile(1000)
	}
	if n := len(f.Episodes()); n != 0 {
		t.Fatalf("episodes before the trigger armed: %d", n)
	}
	compile(50_000) // far over the rolling p99 → one episode
	eps := f.Episodes()
	if len(eps) != 1 || eps[0].Reason != "compile-p99" {
		t.Fatalf("episodes = %+v, want one compile-p99", eps)
	}
	if eps[0].Path == "" {
		t.Fatalf("episode has no dump path (dump error: %v)", f.Err())
	}
	if _, err := os.Stat(eps[0].Path); err != nil {
		t.Fatalf("dump file missing: %v", err)
	}
	// Cooldown: an immediate second outlier must not double-fire.
	compile(60_000)
	if n := len(f.Episodes()); n != 1 {
		t.Fatalf("cooldown violated: %d episodes", n)
	}
}

func TestFlightRecorderFaultTrigger(t *testing.T) {
	f := flightFor(t, FlightOptions{RingCapacity: 16})
	f.Record(Event{Kind: KindInstant, Cat: CatFault, Name: "fault.injected"})
	eps := f.Episodes()
	if len(eps) != 1 || eps[0].Reason != "fault-injected" || eps[0].Detail != "fault.injected" {
		t.Fatalf("episodes = %+v, want one fault-injected", eps)
	}
}

func TestFlightRecorderExternalTriggerAndBounds(t *testing.T) {
	f := flightFor(t, FlightOptions{MaxDumps: 2, RingCapacity: 8})
	f.Record(Event{Kind: KindInstant, Cat: CatEngine, Name: "context"})
	for i := 0; i < 4; i++ {
		f.Record(fact(FactAnomaly, "hot", S("stage", "deopt-storm"), S("reason", fmt.Sprintf("burst %d", i))))
	}
	eps := f.Episodes()
	if len(eps) != 4 {
		t.Fatalf("anomalies must never be debounced: got %d episodes", len(eps))
	}
	if eps[3].Reason != "deopt-storm" || eps[3].Detail != "burst 3" || eps[3].Events != 5 {
		t.Fatalf("episode = %+v, want the anomaly's detector and reason over the 5 events so far", eps[3])
	}
	onDisk := 0
	for _, ep := range eps {
		if ep.Path == "" {
			continue
		}
		if _, err := os.Stat(ep.Path); err != nil {
			t.Fatalf("episode path %s missing: %v", ep.Path, err)
		}
		onDisk++
	}
	if onDisk != 2 {
		t.Fatalf("%d dumps on disk, want MaxDumps=2 (oldest deleted first)", onDisk)
	}
	// The survivors are the two newest.
	if eps[0].Path != "" || eps[1].Path != "" || eps[2].Path == "" || eps[3].Path == "" {
		t.Fatalf("wrong eviction order: %+v", eps)
	}
	if f.Err() != nil {
		t.Fatalf("dump error: %v", f.Err())
	}
}

func TestFlightRecorderNil(t *testing.T) {
	var f *FlightRecorder
	f.Record(Event{Kind: KindInstant, Cat: CatFault})
	if f.Episodes() != nil || f.Err() != nil {
		t.Fatalf("nil flight recorder is not inert")
	}
}

// --- Watchdog ----------------------------------------------------------------

func TestWatchdogIntrinsicAnomaliesAndHealthRecovery(t *testing.T) {
	reg := NewRegistry()
	audit := NewAuditLog(nil)
	w := NewWatchdog(WatchdogOptions{Metrics: reg, RecoverAfter: 3})
	tr := NewTracer(MultiSink{audit, w})
	w.SetTracer(tr)

	if st, _ := w.Health(); st != HealthReady {
		t.Fatalf("initial health = %s", st)
	}
	tr.Begin(CatCompile, FactQueueWait, "cold").End() // picked up by a worker: not a signal
	tr.Begin(CatCompile, FactQueueWait, "hot").End(S("result", "rejected"))
	tr.Instant(CatStore, FactStoreCorrupt, "abcd", S("stage", "store"), S("reason", "checksum mismatch"))

	an := w.Anomalies()
	if len(an) != 2 || an[0].Detector != "queue-saturation" || an[1].Detector != "store-corruption" {
		t.Fatalf("anomalies = %+v", an)
	}
	if st, why := w.Health(); st != HealthDegraded || why == "" {
		t.Fatalf("health after anomalies = %s (%q)", st, why)
	}
	if got := reg.Gauge("watchdog.healthy").Value(); got != 0 {
		t.Fatalf("watchdog.healthy gauge = %d, want 0", got)
	}
	// Each intrinsic anomaly came back round the stream as exactly one
	// audit event, after its cause.
	var verdicts []string
	for _, ev := range audit.Events() {
		verdicts = append(verdicts, string(ev.Verdict)+" "+ev.Func+" "+ev.Stage)
	}
	want := []string{"anomaly hot queue-saturation", "quarantine abcd store", "anomaly abcd store-corruption"}
	if !reflect.DeepEqual(verdicts, want) {
		t.Fatalf("audit = %v, want %v (1:1 accounting)", verdicts, want)
	}

	// Recovery after RecoverAfter consecutive clean signals.
	for i := 0; i < 2; i++ {
		w.Record(fact(FactCompile, "f"))
		if st, _ := w.Health(); st != HealthDegraded {
			t.Fatalf("recovered after only %d clean signals", i+1)
		}
	}
	w.Record(fact(FactCompile, "f"))
	if st, _ := w.Health(); st != HealthReady {
		t.Fatalf("did not recover after RecoverAfter clean signals")
	}
	if got := reg.Gauge("watchdog.healthy").Value(); got != 1 {
		t.Fatalf("watchdog.healthy gauge = %d after recovery, want 1", got)
	}
}

func TestWatchdogDeoptStormDetector(t *testing.T) {
	w := NewWatchdog(WatchdogOptions{Detectors: []Detector{NewDeoptStormDetector(4)}})
	for i := 0; i < 3; i++ {
		w.Record(fact(FactDeopt, "hot"))
	}
	if n := len(w.Anomalies()); n != 0 {
		t.Fatalf("fired after %d deopts (threshold 4): %d anomalies", 3, n)
	}
	w.Record(fact(FactDeopt, "hot"))
	an := w.Anomalies()
	if len(an) != 1 || an[0].Detector != "deopt-storm" || an[0].Func != "hot" {
		t.Fatalf("anomalies = %+v", an)
	}
	// Per-function counting: another function's deopts start from zero,
	// and the fired function's counter reset.
	w.Record(fact(FactDeopt, "other"))
	for i := 0; i < 3; i++ {
		w.Record(fact(FactDeopt, "hot"))
	}
	if n := len(w.Anomalies()); n != 1 {
		t.Fatalf("storm counter did not reset: %d anomalies", n)
	}
}

func TestWatchdogQuarantineSpikeTriggersFlightEpisode(t *testing.T) {
	f := flightFor(t, FlightOptions{RingCapacity: 8})
	w := NewWatchdog(WatchdogOptions{Detectors: []Detector{NewQuarantineSpikeDetector(2, 100)}})
	tr := NewTracer(MultiSink{f, w})
	w.SetTracer(tr)
	tr.Instant(CatEngine, FactQuarantined, "a", S("reason", "storm"))
	// First quarantine: below the spike → episode context, no anomaly.
	if n := len(w.Anomalies()); n != 0 {
		t.Fatalf("spike fired on a single quarantine")
	}
	if n := len(f.Episodes()); n != 1 {
		t.Fatalf("quarantine did not trigger a context episode: %d", n)
	}
	tr.Instant(CatEngine, FactQuarantined, "b", S("reason", "storm"))
	an := w.Anomalies()
	if len(an) != 1 || an[0].Detector != "quarantine-spike" {
		t.Fatalf("anomalies = %+v", an)
	}
	// The anomaly itself also dumps an episode (context + anomaly = 3).
	if n := len(f.Episodes()); n != 3 {
		t.Fatalf("episodes = %d, want 3 (two quarantine contexts + one anomaly)", n)
	}
}

func TestWatchdogSeedProbe(t *testing.T) {
	w := NewWatchdog(WatchdogOptions{Detectors: []Detector{}})
	var probed []string
	w.SetSeedProbe(func(detail string) error {
		probed = append(probed, detail)
		if strings.HasPrefix(detail, "deopt:") {
			return errors.New("seeded fault")
		}
		if strings.HasPrefix(detail, "quarantined:") {
			panic("seeded panic")
		}
		return nil
	})
	w.Record(fact(FactCompile, "f"))     // clean
	w.Record(fact(FactWarm, "f"))        // not watched: no signal, no probe
	w.Record(fact(FactDeopt, "f"))       // seeded error
	w.Record(fact(FactQuarantined, "g")) // seeded panic, contained
	if len(probed) != 3 {
		t.Fatalf("probe ran %d times, want once per signal", len(probed))
	}
	if probed[1] != "deopt:f" || probed[2] != "quarantined:g" {
		t.Fatalf("probe details = %v", probed)
	}
	an := w.Anomalies()
	if len(an) != 2 {
		t.Fatalf("anomalies = %+v, want 2 seeded", an)
	}
	for _, a := range an {
		if a.Detector != "seeded" {
			t.Fatalf("anomaly not attributed to the seed probe: %+v", a)
		}
	}
	if !strings.Contains(an[1].Reason, "seeded panic") {
		t.Fatalf("panic not contained into an anomaly: %+v", an[1])
	}
}

func TestWatchdogNil(t *testing.T) {
	var w *Watchdog
	w.Record(fact(FactDeopt, "f"))
	w.SetTracer(NewTracer(nil))
	w.SetSeedProbe(func(string) error { return nil })
	if st, why := w.Health(); st != HealthReady || why != "" {
		t.Fatalf("nil watchdog health = %s %q", st, why)
	}
	if w.Anomalies() != nil || w.Summary() != "" {
		t.Fatalf("nil watchdog is not inert")
	}
}

// --- Ops server --------------------------------------------------------------

func TestOpsServerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("store.hits").Add(5)
	audit := NewAuditLog(nil)
	f := NewFlightRecorder(t.TempDir(), FlightOptions{RingCapacity: 8})
	w := NewWatchdog(WatchdogOptions{Metrics: reg})
	tr := NewTracer(MultiSink{audit, f, w})
	w.SetTracer(tr)
	tr.Instant(CatEngine, FactInterp, "hot", S("tier", "interp"))
	mux := NewOpsMux(OpsState{Reg: reg, Audit: audit, Watchdog: w, Flight: f})

	get := func(path string) (int, string, string) {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec.Code, rec.Body.String(), rec.Header().Get("Content-Type")
	}

	if code, body, ct := get("/metrics.prom"); code != 200 ||
		!strings.Contains(body, "store_hits 5") ||
		!strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("/metrics.prom: code=%d ct=%q body=%q", code, ct, body)
	}
	if code, body, _ := get("/healthz"); code != 200 || body != "ready\n" {
		t.Fatalf("/healthz ready: code=%d body=%q", code, body)
	}

	tr.Instant(CatStore, FactStoreCorrupt, "k", S("stage", "store"), S("reason", "bad checksum"))
	if code, body, _ := get("/healthz"); code != 503 || !strings.Contains(body, "degraded") ||
		!strings.Contains(body, "store-corruption") {
		t.Fatalf("/healthz degraded: code=%d body=%q", code, body)
	}

	if code, body, _ := get("/audit.json"); code != 200 || !strings.Contains(body, `"store-corruption"`) {
		t.Fatalf("/audit.json: code=%d body=%q", code, body)
	}
	code, body, _ := get("/flight.json")
	if code != 200 {
		t.Fatalf("/flight.json code=%d", code)
	}
	var eps []Episode
	if err := json.Unmarshal([]byte(body), &eps); err != nil {
		t.Fatalf("/flight.json not an episode list: %v\n%s", err, body)
	}
	if len(eps) != 1 || eps[0].Reason != "store-corruption" {
		t.Fatalf("/flight.json episodes = %+v", eps)
	}
	if eps[0].Path != "" {
		if _, err := os.Stat(filepath.Clean(eps[0].Path)); err != nil {
			t.Fatalf("episode dump missing: %v", err)
		}
	}
}

func TestOpsServerNilState(t *testing.T) {
	mux := NewOpsMux(OpsState{})
	for _, path := range []string{"/metrics", "/metrics.json", "/metrics.prom", "/healthz", "/audit.json", "/flight.json"} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 200 {
			t.Fatalf("%s with all-nil state: code=%d", path, rec.Code)
		}
	}
}
