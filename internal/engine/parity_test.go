package engine_test

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"github.com/jitbull/jitbull/internal/core"
	"github.com/jitbull/jitbull/internal/engine"
	"github.com/jitbull/jitbull/internal/jitqueue"
	"github.com/jitbull/jitbull/internal/obs"
	"github.com/jitbull/jitbull/internal/progen"
	"github.com/jitbull/jitbull/internal/vulndb"
)

var updateParity = flag.Bool("update-parity", false, "rewrite testdata/obs_parity.json from this tree's outputs")

// testdata/obs_parity.json was written by this test at the last commit
// whose engine fed the journal, the audit log and the watchdog through
// their own calls (Config.Journal, .Audit, .Watchdog) beside the tracer.
// Only wireParity, cleanCompile and the trace comparison differ from the
// test that wrote it.

// parityRecord is what one scenario's observability outputs reduce to once
// timestamps, sequence numbers and durations are stripped: the part of
// every view that a change to how the engine reports its lifecycle must
// reproduce.
type parityRecord struct {
	Journey   map[string][]string `json:"journey"`   // func → "stage/tier" in order
	Audit     []string            `json:"audit"`     // "verdict func stage" in order
	Anomalies []string            `json:"anomalies"` // "detector func" in order
	Health    []string            `json:"health"`    // before the run, after it, after 8 clean compiles
	Episodes  []string            `json:"episodes"`  // flight-recorder episode reasons in order
	Trace     []string            `json:"trace"`     // first compile's event names in trace-file order
}

// parityViews are the five views of one run.
type parityViews struct {
	ring    *obs.Ring
	journal *obs.Journal
	audit   *obs.AuditLog
	wdog    *obs.Watchdog
	flight  *obs.FlightRecorder
}

// wireParity attaches every view to cfg.
func wireParity(t *testing.T, cfg *engine.Config) parityViews {
	v := parityViews{
		ring:    obs.NewRing(0),
		journal: obs.NewJournal(0),
		audit:   obs.NewAuditLog(nil),
		flight:  obs.NewFlightRecorder(t.TempDir(), obs.FlightOptions{MinSamples: 1 << 30}),
		wdog:    obs.NewWatchdog(obs.WatchdogOptions{RecoverAfter: 8}),
	}
	cfg.Tracer = obs.NewTracer(obs.MultiSink{v.ring, v.journal, v.audit, v.flight, v.wdog})
	v.wdog.SetTracer(cfg.Tracer)
	return v
}

// cleanCompile feeds the watchdog one anomaly-free observation.
func (v parityViews) cleanCompile() {
	v.wdog.Record(obs.Event{Kind: obs.KindSpan, Name: obs.FactCompile, Dur: 1000})
}

const parityStormProgram = `
function flip(p, q) { if (p < 300) { return (q + p * 2) % 1000003; } return; }
function hot(n) { var s = 0; var i = 0; while (i < n) { var c = flip(i, s); if (c) { s = (s + c) % 1000003; } i = i + 1; } return s; }
var result = 0; for (var r = 0; r < 24; r++) { result = (result + hot(600)) % 1000003; } print(result);
`

const parityAsyncProgram = `
function sq(x) { return x * x + 1; }
function sum(n) { var s = 0; for (var i = 0; i < n; i++) { s = s + sq(i) % 7; } return s; }
var result = 0; for (var r = 0; r < 200; r++) { result = (result + sum(20)) % 1000003; }
`

func TestObservabilityParity(t *testing.T) {
	db, bugs, err := vulndb.BuildDB(8, 0)
	if err != nil {
		t.Fatal(err)
	}
	closed := jitqueue.New(1, 1, nil)
	closed.Close()
	live := jitqueue.New(1, 0, nil)
	defer live.Close()

	scenarios := []struct {
		name   string
		src    string
		cfg    engine.Config
		policy bool
		trace  bool // single-threaded compile: the trace order is deterministic
	}{
		{name: "deopt-storm", src: parityStormProgram, trace: true,
			cfg: engine.Config{BaselineThreshold: 4, IonThreshold: 10, OSR: true, Speculate: true}},
		{name: "vuln-window", src: vulndb.All()[0].Demonstrator, policy: true, trace: true,
			cfg: engine.Config{Bugs: bugs}},
		{name: "vuln-window-nojit", src: vulndb.All()[4].Demonstrator, policy: true, trace: true,
			cfg: engine.Config{Bugs: bugs}},
		{name: "vuln-window-quarantine", src: vulndb.All()[6].Demonstrator, policy: true, trace: true,
			cfg: engine.Config{Bugs: bugs}},
		{name: "queue-saturated", src: progen.Generate(7, progen.Options{}), trace: true,
			cfg: engine.Config{BaselineThreshold: 10, IonThreshold: 30, Queue: closed}},
		{name: "async", src: parityAsyncProgram,
			cfg: engine.Config{BaselineThreshold: 4, IonThreshold: 10, Queue: live}},
	}

	got := map[string]parityRecord{}
	for _, sc := range scenarios {
		cfg := sc.cfg
		v := wireParity(t, &cfg)
		rec := parityRecord{Journey: map[string][]string{}}
		health := func() {
			state, _ := v.wdog.Health()
			rec.Health = append(rec.Health, state)
		}
		health()
		e, err := engine.New(sc.src, cfg)
		if err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		if sc.policy {
			det := core.NewDetector(db)
			det.Audit = v.audit
			e.SetPolicy(det)
		}
		if _, err := e.Run(); err != nil && !engine.IsCrash(err) && !engine.IsHijack(err) {
			t.Fatalf("%s: run: %v", sc.name, err)
		}
		health()
		for i := 0; i < 8; i++ {
			v.cleanCompile()
		}
		health()

		for _, fn := range v.journal.Funcs() {
			for _, ev := range v.journal.Events(fn) {
				rec.Journey[fn] = append(rec.Journey[fn], ev.Stage+"/"+ev.Tier)
			}
		}
		for _, ev := range v.audit.Events() {
			rec.Audit = append(rec.Audit, string(ev.Verdict)+" "+ev.Func+" "+ev.Stage)
		}
		for _, a := range v.wdog.Anomalies() {
			rec.Anomalies = append(rec.Anomalies, a.Detector+" "+a.Func)
		}
		for _, ep := range v.flight.Episodes() {
			rec.Episodes = append(rec.Episodes, ep.Reason)
		}
		if sc.trace {
			rec.Trace = firstCompile(v.ring.Events())
		}
		got[sc.name] = rec
	}

	path := filepath.Join("testdata", "obs_parity.json")
	if *updateParity {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]parityRecord{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for _, sc := range scenarios {
		g, w := got[sc.name], want[sc.name]
		if !reflect.DeepEqual(g.Journey, w.Journey) {
			t.Errorf("%s: journey\n got %v\nwant %v", sc.name, g.Journey, w.Journey)
		}
		if !reflect.DeepEqual(g.Audit, w.Audit) {
			t.Errorf("%s: audit\n got %v\nwant %v", sc.name, g.Audit, w.Audit)
		}
		if !reflect.DeepEqual(g.Anomalies, w.Anomalies) {
			t.Errorf("%s: anomalies\n got %v\nwant %v", sc.name, g.Anomalies, w.Anomalies)
		}
		if !reflect.DeepEqual(g.Health, w.Health) {
			t.Errorf("%s: health\n got %v\nwant %v", sc.name, g.Health, w.Health)
		}
		if !reflect.DeepEqual(g.Episodes, w.Episodes) {
			t.Errorf("%s: episodes\n got %v\nwant %v", sc.name, g.Episodes, w.Episodes)
		}
		// The lifecycle facts that used to go to the journal, the audit log
		// and the watchdog alone now share the stream. What the trace already
		// had, it still has, in the same order.
		had := map[string]bool{}
		for _, name := range w.Trace {
			had[name] = true
		}
		var kept []string
		for _, name := range g.Trace {
			if had[name] {
				kept = append(kept, name)
			}
		}
		if !reflect.DeepEqual(kept, w.Trace) {
			t.Errorf("%s: first compile's trace, names the golden has\n got %v\nwant %v", sc.name, kept, w.Trace)
		}
	}
}

// firstCompile returns the event names of the first compilation, from its
// trigger to its install, in the order the Chrome trace file lists them:
// by begin time, an enclosing span before what it encloses.
func firstCompile(events []obs.Event) []string {
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].TS != events[j].TS {
			return events[i].TS < events[j].TS
		}
		return events[i].Dur > events[j].Dur
	})
	var names []string
	for _, ev := range events {
		if len(names) == 0 && ev.Name != "compile.trigger" {
			continue
		}
		names = append(names, ev.Name)
		if ev.Name == "native.install" {
			break
		}
	}
	return names
}
