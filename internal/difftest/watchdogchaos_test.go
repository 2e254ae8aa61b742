package difftest

import (
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"github.com/jitbull/jitbull/internal/engine"
	"github.com/jitbull/jitbull/internal/faults"
	"github.com/jitbull/jitbull/internal/jitqueue"
	"github.com/jitbull/jitbull/internal/obs"
	"github.com/jitbull/jitbull/internal/store"
)

// TestWatchdogChaosCampaign runs the randomized watchdog campaign: every
// seeded fault must surface as exactly one "seeded" anomaly (panics
// contained), and clean re-runs with the full detector set must declare
// nothing.
func TestWatchdogChaosCampaign(t *testing.T) {
	runs := 30
	if testing.Short() {
		runs = 10
	}
	res := WatchdogChaos(WatchdogChaosOptions{Seed: 9000, Runs: runs})
	for _, f := range res.Failures {
		t.Error(f)
	}
	if res.FaultsFired == 0 {
		t.Fatalf("campaign never fired a seeded fault (%s) — the schedules are not reaching the watchdog point", res.Summary())
	}
	if res.SeededAnomalies != res.FaultsFired {
		t.Fatalf("campaign totals are not 1:1: %s", res.Summary())
	}
	t.Logf("watchdog chaos: %s", res.Summary())
}

// stormProgram deopt-storms one hot loop: flip returns undefined past
// p=300, breaking the KCallSpec number speculation over and over until
// the engine requalifies hot with TypeSpeculation disabled.
const stormProgram = `
function flip(p, q) { if (p < 300) { return (q + p * 2) % 1000003; } return; }
function hot(n) { var s = 0; var i = 0; while (i < n) { var c = flip(i, s); if (c) { s = (s + c) % 1000003; } i = i + 1; } return s; }
var result = 0; for (var r = 0; r < 24; r++) { result = (result + hot(600)) % 1000003; } print(result);
`

// TestSeededAnomalyEndToEnd is the acceptance scenario: one run seeded
// with a deopt storm, a corrupt store record, and a saturated compile
// queue must produce per-episode flight-recorder dumps that hold their
// cause, watchdog audit events with 1:1 accounting, a /healthz
// ready→degraded→ready transition, and a tier-journey timeline for the
// storming function — every one of them a view of the one tracer.
func TestSeededAnomalyEndToEnd(t *testing.T) {
	reg := obs.NewRegistry()
	audit := obs.NewAuditLog(nil)
	flight := obs.NewFlightRecorder(t.TempDir(), obs.FlightOptions{RingCapacity: 512})
	wdog := obs.NewWatchdog(obs.WatchdogOptions{Metrics: reg, RecoverAfter: 8})
	journal := obs.NewJournal(0)
	tracer := obs.NewTracer(obs.MultiSink{journal, audit, flight, wdog})
	wdog.SetTracer(tracer)
	mux := obs.NewOpsMux(obs.OpsState{Reg: reg, Audit: audit, Watchdog: wdog, Journal: journal, Flight: flight})
	healthz := func() (int, string) {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
		return rec.Code, rec.Body.String()
	}

	// Ready before anything runs.
	if code, body := healthz(); code != 200 || body != "ready\n" {
		t.Fatalf("initial /healthz: code=%d body=%q", code, body)
	}

	// Queue saturation: a closed queue rejects every submit, so each
	// compile deterministically falls back inline and signals the
	// watchdog.
	queue := jitqueue.New(1, 1, nil)
	queue.Close()

	eng, err := engine.New(stormProgram, engine.Config{
		BaselineThreshold: 4,
		IonThreshold:      10,
		OSR:               true,
		Speculate:         true,
		Metrics:           reg,
		Tracer:            tracer,
		Queue:             queue,
	})
	if err != nil {
		t.Fatalf("engine.New: %v", err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}

	// Store corruption: a bit-flip on read must quarantine the record and
	// say so on the same stream.
	st, err := store.Open(t.TempDir(), store.Options{
		Metrics: reg,
		Tracer:  tracer,
		Faults: faults.NewInjector(1, faults.Rule{
			Point: faults.PointStoreGet, Kind: faults.KindBitFlip,
		}),
	})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	var key jitqueue.Key
	key[0] = 0xAB
	st.Put(key, []byte(`{"artifact":"x"}`))
	if _, ok := st.Get(key); ok {
		t.Fatalf("corrupted record was served")
	}

	// Every seeded cause fired its detector.
	anomalies := wdog.Anomalies()
	byDet := map[string]int{}
	for _, a := range anomalies {
		byDet[a.Detector]++
	}
	if byDet["deopt-storm"] == 0 {
		t.Errorf("no deopt-storm anomaly: %+v", byDet)
	}
	if byDet["queue-saturation"] == 0 {
		t.Errorf("no queue-saturation anomaly: %+v", byDet)
	}
	if byDet["store-corruption"] != 1 {
		t.Errorf("store-corruption anomalies = %d, want exactly 1 (one corrupt record)", byDet["store-corruption"])
	}
	for det, n := range byDet {
		if det != "deopt-storm" && det != "queue-saturation" && det != "store-corruption" {
			t.Errorf("unexpected detector fired %d time(s): %s", n, det)
		}
	}

	// 1:1 accounting: every anomaly is exactly one audit event and one
	// flight episode, and every episode's dump file exists on disk.
	anomalyAudits := 0
	for _, ev := range audit.Events() {
		if ev.Verdict == "anomaly" {
			anomalyAudits++
		}
	}
	if anomalyAudits != len(anomalies) {
		t.Errorf("%d anomalies but %d anomaly audit events", len(anomalies), anomalyAudits)
	}
	eps := flight.Episodes()
	if len(eps) != len(anomalies) {
		t.Errorf("%d anomalies but %d flight episodes", len(anomalies), len(eps))
	}
	if err := flight.Err(); err != nil {
		t.Fatalf("flight dump error: %v", err)
	}
	epReasons := map[string]int{}
	for _, ep := range eps {
		if ep.Path == "" {
			t.Errorf("episode %d (%s) has no dump file", ep.Seq, ep.Reason)
		}
		if ep.Events == 0 {
			t.Errorf("episode %d (%s) captured no ring context", ep.Seq, ep.Reason)
		}
		epReasons[ep.Reason]++
	}
	for det, n := range byDet {
		if epReasons[det] != n {
			t.Errorf("detector %s fired %d time(s) but dumped %d episode(s)", det, n, epReasons[det])
		}
	}

	// Episodes carry their cause: the facts that tripped a detector are in
	// the dump it triggered, not in some other sink's file.
	dumped := func(reason string) string {
		for _, ep := range eps {
			if ep.Reason == reason {
				data, err := os.ReadFile(ep.Path)
				if err != nil {
					t.Fatalf("episode %s: %v", reason, err)
				}
				return string(data)
			}
		}
		return ""
	}
	if n := strings.Count(dumped("deopt-storm"), `{"name":"deopt","cat":"engine","ph":"i"`); n < 8 {
		t.Errorf("deopt-storm dump holds %d deopt event(s), want the 8 that made the storm", n)
	} else if !strings.Contains(dumped("deopt-storm"), `"fn":"hot"`) {
		t.Errorf("deopt-storm dump does not name the storming function")
	}
	if !strings.Contains(dumped("store-corruption"), `{"name":"store-corrupt","cat":"store","ph":"i"`) {
		t.Errorf("store-corruption dump does not hold the store-corrupt event")
	}

	// /healthz degraded with the last anomaly named, then ready again
	// after RecoverAfter consecutive clean signals.
	if code, body := healthz(); code != 503 || !strings.Contains(body, "degraded") {
		t.Fatalf("post-anomaly /healthz: code=%d body=%q", code, body)
	}
	for i := 0; i < 8; i++ {
		wdog.Record(obs.Event{Kind: obs.KindSpan, Name: obs.FactCompile, Dur: 1000})
	}
	if code, body := healthz(); code != 200 || body != "ready\n" {
		t.Fatalf("post-recovery /healthz: code=%d body=%q", code, body)
	}

	// The storming function has a complete journey timeline.
	tl := journal.RenderTimeline("hot")
	for _, want := range []string{"interp", "installed", "osr-entry", "deopt", "requalified"} {
		if !strings.Contains(tl, want) {
			t.Errorf("hot's journey timeline missing %q:\n%s", want, tl)
		}
	}
}
