package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	sp := tr.Begin(CatPass, "GVN", "f")
	if sp.Active() {
		t.Fatal("nil tracer span reports active")
	}
	sp.End(I("x", 1))
	sp.EndErr(nil)
	sp.EndDecision(Decision{NoJIT: true})
	tr.Instant(CatEngine, FactBailout, "f", I("steps", 9))

	// A nil view is off too, wherever it sits in a MultiSink.
	var r *Ring
	MultiSink{r}.Record(Event{Name: FactDeopt, Func: "f"})
	if r.Events() != nil || r.Len() != 0 || r.Total() != 0 || r.Dropped() != 0 {
		t.Fatal("nil ring is not inert")
	}
}

// TestDisabledProbesDoNotAllocate: a probe that is off costs the engine
// one nil check, which holds only while its variadic arguments stay on the
// caller's stack. A probe that starts boxing them allocates on every call
// whether or not anyone listens — the regression a timing budget on the
// compile path was too noisy to see. The engine has one probe shape, a
// fact stated on a possibly nil tracer; the views are behind it and are
// held to the same when they are nil or have nothing to render.
func TestDisabledProbesDoNotAllocate(t *testing.T) {
	var (
		tr     *Tracer
		r      *Ring
		a      *AuditLog
		failed = errors.New("verify failed")
		deopt  = Event{Kind: KindInstant, Cat: CatEngine, Name: FactDeopt, Func: "hot"}
		tier   = S("tier", "ion")
		dec    = Decision{DisabledPasses: []string{"GVN"}, Matches: []Match{
			{CVE: "CVE-2019-9813", VDCFunc: "poc", Pass: "GVN", Side: "removed", Chain: "a→b"},
		}}
	)
	for _, probe := range []struct {
		name string
		call func()
	}{
		{"Tracer.Begin+Span.End", func() { tr.Begin(CatPass, "GVN", "hot").End(I("index", 1), I("instrs_in", 70)) }},
		{"Span.End/fact", func() { tr.Begin(CatCompile, FactCompile, "hot").End(S("result", "ok"), S("source", "inline"), tier) }},
		{"Span.EndErr", func() { tr.Begin(CatCompile, "mirbuild", "hot").EndErr(failed) }},
		{"Tracer.Instant", func() { tr.Instant(CatEngine, FactDeopt, "hot", I("exit", 3), I("deopts", 1), tier) }},
		{"Span.EndDecision", func() {
			tr.Begin(CatPolicy, FactDecide, "hot").EndDecision(dec, S("verdict", string(dec.Verdict())), I("disabled", 1), Arg{})
		}},
		{"Ring.Record/nil", func() { r.Record(deopt) }},
		{"AuditLog.Record/nil", func() { a.Record(deopt) }},
	} {
		if n := testing.AllocsPerRun(100, probe.call); n != 0 {
			t.Errorf("%s: %v allocs per call, want 0", probe.name, n)
		}
	}
}

func TestTracerRecordsSpansAndInstants(t *testing.T) {
	ring := NewRing(16)
	tr := NewTracer(ring)
	sp := tr.Begin(CatCompile, "mirbuild", "hot")
	time.Sleep(time.Millisecond)
	sp.End(I("instrs", 42))
	tr.Instant(CatEngine, FactTrigger, "hot", I("calls", 1500), Arg{})

	evs := ring.Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	if evs[0].Kind != KindSpan || evs[0].Name != "mirbuild" || evs[0].Cat != CatCompile {
		t.Fatalf("span event wrong: %+v", evs[0])
	}
	if evs[0].Dur <= 0 {
		t.Fatalf("span duration not positive: %d", evs[0].Dur)
	}
	if evs[0].NArgs != 1 || evs[0].Args[0].Key != "instrs" || evs[0].Args[0].Val != 42 {
		t.Fatalf("span args wrong: %+v", evs[0])
	}
	if evs[1].Kind != KindInstant || evs[1].NArgs != 1 || evs[1].Int("calls") != 1500 {
		t.Fatalf("instant event wrong (the zero Arg takes no slot): %+v", evs[1])
	}
	if evs[0].Func != "hot" || evs[1].Func != "hot" {
		t.Fatalf("events lost their subject: %+v", evs)
	}
}

func TestRingWrapsKeepingNewest(t *testing.T) {
	ring := NewRing(4)
	tr := NewTracer(ring)
	for i := 0; i < 10; i++ {
		tr.Instant(CatEngine, "e", "", I("i", int64(i)))
	}
	evs := ring.Events()
	if len(evs) != 4 || ring.Len() != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	for k, ev := range evs {
		if want := int64(6 + k); ev.Args[0].Val != want {
			t.Fatalf("event %d holds i=%d, want %d (oldest must be dropped)", k, ev.Args[0].Val, want)
		}
	}
	if ring.Dropped() != 6 || ring.Total() != 10 {
		t.Fatalf("dropped=%d total=%d, want 6/10", ring.Dropped(), ring.Total())
	}
}

// TestChromeExportValidJSONMonotonic: the exported trace must be valid
// JSON in Chrome trace_event object form with non-decreasing timestamps.
func TestChromeExportValidJSONMonotonic(t *testing.T) {
	ring := NewRing(128)
	tr := NewTracer(ring)
	for i := 0; i < 19; i++ {
		sp := tr.Begin(CatPass, "P", "")
		sp.End(I("i", int64(i)))
		tr.Instant(CatFault, "fault", "", S("kind", "panic"))
	}
	// Nested pair: the outer span is recorded at End, i.e. AFTER the inner
	// one despite beginning first — the exporter must re-sort by begin time.
	outer := tr.Begin(CatCompile, "outer", "")
	inner := tr.Begin(CatPass, "inner", "")
	inner.End()
	outer.End()
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, ring.Events()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Cat   string         `json:"cat"`
			Phase string         `json:"ph"`
			TS    float64        `json:"ts"`
			Dur   float64        `json:"dur"`
			PID   int            `json:"pid"`
			TID   int            `json:"tid"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 40 {
		t.Fatalf("got %d trace events, want 40", len(doc.TraceEvents))
	}
	last := -1.0
	for i, ev := range doc.TraceEvents {
		if ev.Phase != "X" && ev.Phase != "i" {
			t.Fatalf("event %d has phase %q", i, ev.Phase)
		}
		if ev.TS < last {
			t.Fatalf("timestamps not monotonic: event %d at %v after %v", i, ev.TS, last)
		}
		last = ev.TS
		if ev.TS < 0 || ev.Dur < 0 {
			t.Fatalf("negative time in event %d: %+v", i, ev)
		}
	}
}

func TestRegistryCountersGaugesHistograms(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("engine.compiles")
	c.Add(3)
	c.Inc()
	if c.Value() != 4 {
		t.Fatalf("counter = %d, want 4", c.Value())
	}
	if r.Counter("engine.compiles") != c {
		t.Fatal("same name resolved to a different counter")
	}
	g := r.Gauge("engine.functions")
	g.Set(7)
	g.Add(-2)
	if g.Value() != 5 {
		t.Fatalf("gauge = %d, want 5", g.Value())
	}
	h := r.Histogram("compile.pass_ns", LatencyBucketsNs)
	for _, v := range []int64{500, 2_000, 2_000_000, 5_000_000_000} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 4 || s.Sum != 5_002_002_500 {
		t.Fatalf("histogram snapshot wrong: %+v", s)
	}
	if s.Counts[0] != 1 || s.Counts[len(s.Counts)-1] != 1 {
		t.Fatalf("bucket placement wrong: %+v", s.Counts)
	}
	if h.Mean() != 5_002_002_500.0/4 {
		t.Fatalf("mean = %v", h.Mean())
	}
}

func TestNilRegistryAndHandles(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter retained a value")
	}
	r.Gauge("y").Set(1)
	r.Histogram("z", SizeBuckets).Observe(1)
	if err := r.WriteText(io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRegistryEncoders(t *testing.T) {
	r := NewRegistry()
	r.Counter("b.count").Add(2)
	r.Counter("a.count").Add(1)
	r.Gauge("c.gauge").Set(-3)
	r.Histogram("d.hist", []int64{10, 100}).Observe(50)

	var text bytes.Buffer
	if err := r.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(text.String()), "\n")
	if lines[0] != "a.count 1" || lines[1] != "b.count 2" {
		t.Fatalf("text encoding not name-sorted: %v", lines)
	}
	if !strings.Contains(text.String(), "d.hist_count 1") ||
		!strings.Contains(text.String(), "d.hist_bucket{le=100} 1") {
		t.Fatalf("histogram text encoding missing: %s", text.String())
	}

	var js bytes.Buffer
	if err := r.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(js.Bytes(), &decoded); err != nil {
		t.Fatalf("JSON encoding invalid: %v", err)
	}
	if decoded["b.count"] != float64(2) {
		t.Fatalf("JSON counter wrong: %v", decoded["b.count"])
	}
}

func TestRegistryConcurrentAggregation(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("shared")
			h := r.Histogram("lat", LatencyBucketsNs)
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(int64(i))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != 8000 {
		t.Fatalf("shared counter = %d, want 8000", got)
	}
	if got := r.Histogram("lat", nil).Count(); got != 8000 {
		t.Fatalf("shared histogram count = %d, want 8000", got)
	}
}

func TestAuditLogRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	l := NewAuditLog(&buf)
	tr := NewTracer(l)
	tr.Begin(CatPolicy, FactDecide, "f").EndDecision(Decision{NoJIT: true, Matches: []Match{
		{CVE: "CVE-2019-9813", VDCFunc: "poc", Pass: "RangeAnalysis", Side: "removed", Chain: "a→b"},
	}})
	l.Record(fact(FactQuarantined, "g", S("stage", "passes"), S("reason", "injected fault")))
	l.Record(fact(FactInterp, "g")) // not a decision: no audit line
	if l.Len() != 2 {
		t.Fatalf("len = %d", l.Len())
	}
	evs := l.Events()
	if evs[0].Seq != 1 || evs[1].Seq != 2 {
		t.Fatalf("sequence numbering wrong: %+v", evs)
	}
	if evs[0].TimeUnixNs == 0 {
		t.Fatal("event not timestamped")
	}
	back, err := ReadAudit(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[0].Verdict != VerdictNoJIT || back[0].Matches[0].CVE != "CVE-2019-9813" || back[0].Matches[0].Chain != "a→b" {
		t.Fatalf("JSONL round trip lost data: %+v", back)
	}
	if back[1].Verdict != "quarantine" || back[1].Stage != "passes" || back[1].Reason != "injected fault" {
		t.Fatalf("supervisor event lost: %+v", back[1])
	}
	if err := l.WriteErr(); err != nil {
		t.Fatal(err)
	}
}

// TestAuditEventNamesWitnessChain: the evidence a report line and a JSONL
// line give for a match is its witness chain's text, the only form of a
// chain that means something outside the process that matched it. A
// match without a witness names no chain.
func TestAuditEventNamesWitnessChain(t *testing.T) {
	ev := AuditEvent{Seq: 1, Func: "oob", Verdict: VerdictDisablePass, DisabledPasses: []string{"GVN"}, Matches: []Match{
		{CVE: "CVE-2019-17026", VDCFunc: "oob", Pass: "GVN", Side: "removed", Chain: "boundscheck→add→constant(1)"},
		{CVE: "CVE-2019-17026", VDCFunc: "oob", Pass: "LICM"},
	}}
	got := ev.String()
	for _, want := range []string{" match{CVE-2019-17026 oob/GVN boundscheck→add→constant(1)}", " match{CVE-2019-17026 oob/LICM}"} {
		if !strings.Contains(got, want) {
			t.Errorf("report line %q lacks %q", got, want)
		}
	}
	if strings.Contains(got, "chain#") {
		t.Errorf("report line %q names a chain by number", got)
	}
	var buf bytes.Buffer
	l := NewAuditLog(&buf)
	NewTracer(l).Begin(CatPolicy, FactDecide, "oob").EndDecision(Decision{DisabledPasses: ev.DisabledPasses, Matches: ev.Matches})
	if line := buf.String(); !strings.Contains(line, `"chain":"boundscheck→add→constant(1)"`) || strings.Contains(line, "chain_id") {
		t.Errorf("JSONL line %s: want the witness text and no chain_id", line)
	}
}

func TestNilAuditLog(t *testing.T) {
	var l *AuditLog
	l.Record(fact(FactQuarantined, "f"))
	if l.Len() != 0 || l.Events() != nil || l.WriteErr() != nil || l.Dropped() != 0 {
		t.Fatal("nil audit log not inert")
	}
}

func TestDebugServerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("engine.compiles").Add(9)
	audit := NewAuditLog(nil)
	NewTracer(audit).Begin(CatPolicy, FactDecide, "f").EndDecision(Decision{})
	srv, addr, err := StartOpsServer("127.0.0.1:0", OpsState{Reg: reg, Audit: audit})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	get := func(path string) string {
		resp, err := http.Get("http://" + addr.String() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, _ := io.ReadAll(resp.Body)
		return string(body)
	}
	if !strings.Contains(get("/metrics"), "engine.compiles 9") {
		t.Fatal("/metrics missing counter")
	}
	var decoded map[string]any
	if err := json.Unmarshal([]byte(get("/metrics.json")), &decoded); err != nil {
		t.Fatal(err)
	}
	var evs []AuditEvent
	if err := json.Unmarshal([]byte(get("/audit.json")), &evs); err != nil {
		t.Fatal(err)
	}
	if len(evs) != 1 || evs[0].Verdict != VerdictGo {
		t.Fatalf("audit endpoint wrong: %+v", evs)
	}
	if !strings.Contains(get("/debug/pprof/"), "pprof") {
		t.Fatal("pprof index not served")
	}
}
