package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
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
	reg.Counter("cache.hits").Add(3)
	reg.Gauge("jit.queue_depth_hwm").Set(1)
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
		"# TYPE cache_hits counter",
		"cache_hits 3",
		"# TYPE jit_queue_depth_hwm gauge",
		"jit_queue_depth_hwm 1",
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

// --- Ops server --------------------------------------------------------------

func TestOpsServerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("cache.hits").Add(5)
	audit := NewAuditLog(nil)
	tr := NewTracer(audit)
	tr.Instant(CatEngine, FactInterp, "hot", S("tier", "interp"))
	mux := NewOpsMux(OpsState{Reg: reg, Audit: audit})

	get := func(path string) (int, string, string) {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec.Code, rec.Body.String(), rec.Header().Get("Content-Type")
	}

	if code, body, ct := get("/metrics.prom"); code != 200 ||
		!strings.Contains(body, "cache_hits 5") ||
		!strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("/metrics.prom: code=%d ct=%q body=%q", code, ct, body)
	}

	tr.Instant(CatEngine, FactQuarantined, "k", S("stage", "mc"), S("reason", "emit failed"))
	code, body, _ := get("/audit.json")
	if code != 200 {
		t.Fatalf("/audit.json code=%d", code)
	}
	var evs []AuditEvent
	if err := json.Unmarshal([]byte(body), &evs); err != nil {
		t.Fatalf("/audit.json not an audit event list: %v\n%s", err, body)
	}
	if len(evs) != 1 || evs[0].Verdict != "quarantine" || evs[0].Func != "k" || evs[0].Stage != "mc" {
		t.Fatalf("/audit.json events = %+v, want the one mc quarantine", evs)
	}
}

func TestOpsServerNilState(t *testing.T) {
	mux := NewOpsMux(OpsState{})
	for _, path := range []string{"/metrics", "/metrics.json", "/metrics.prom", "/audit.json"} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 200 {
			t.Fatalf("%s with all-nil state: code=%d", path, rec.Code)
		}
	}
}
