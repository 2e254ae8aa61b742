package engine_test

import (
	"encoding/json"
	"errors"
	"flag"
	"io/fs"
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
// whose engine fed the journal, the audit log and the anomaly watchdog
// through Config fields of their own beside the tracer. Since then every
// view became a sink of the stream, the journal went, and the detector
// stopped appending its verdicts to the audit log itself: the decide fact
// carries them. So the views' wiring, the trace comparison and the journey
// — read from the ring as `jitbull run -explain` reads it, its fact names
// spelled as the journal spelled them — differ from the test that wrote it.
// The watchdog and the flight recorder went too: the golden lost their
// anomalies, health and episodes, and the audit lines the watchdog's
// anomalies had added, by deletion only. One journey moved by hand since:
// deopt-storm's hot, once a deopted loop could OSR back in (an osr-entry
// before every deopt, the storm inside the first call, so requalified and
// the recompile at tier interp, and a last osr-entry into that code).

// parityRecord is what one scenario's observability outputs reduce to once
// timestamps, sequence numbers and durations are stripped: the part of
// every view that a change to how the engine reports its lifecycle must
// reproduce.
type parityRecord struct {
	Journey map[string][]string `json:"journey"` // func → "stage/tier" in order (journeyStage)
	Audit   []string            `json:"audit"`   // "verdict func stage" in order
	Trace   []string            `json:"trace"`   // first compile's event names in trace-file order
}

// journeyStage is the journal's spelling of each fact it kept as a
// waypoint; the facts it had no spelling for were not waypoints.
var journeyStage = map[string]string{
	obs.FactInterp:      "interp",
	obs.FactCacheHit:    "cache-hit",
	obs.FactEnqueue:     "enqueued",
	obs.FactCompile:     "compiled",
	obs.FactTier:        "tier",
	obs.FactInstall:     "installed",
	obs.FactRequalified: "requalified",
	obs.FactQuarantined: "quarantined",
	obs.FactPermanent:   "permanent",
	obs.FactOSREnter:    "osr-entry",
	obs.FactDeopt:       "deopt",
	obs.FactBailout:     "bailout",
}

// journeys reads each function's journey from the facts explain selects:
// the waypoints in order, without the OSR entries the frame map declined
// (the journal dropped those too).
func journeys(evs []obs.Event) map[string][]string {
	out := map[string][]string{}
	for fn, facts := range obs.Lifecycles(evs) {
		for _, ev := range facts {
			stage, ok := journeyStage[ev.Name]
			if !ok || (ev.Name == obs.FactOSREnter && ev.Str("result") == "declined") {
				continue
			}
			out[fn] = append(out[fn], stage+"/"+ev.Str("tier"))
		}
	}
	return out
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
			cfg: engine.Config{IonThreshold: 10, OSR: true, Speculate: true}},
		{name: "vuln-window", src: vulndb.All()[0].Demonstrator, policy: true, trace: true,
			cfg: engine.Config{Bugs: bugs}},
		{name: "vuln-window-nojit", src: vulndb.All()[4].Demonstrator, policy: true, trace: true,
			cfg: engine.Config{Bugs: bugs}},
		{name: "vuln-window-quarantine", src: vulndb.All()[6].Demonstrator, policy: true, trace: true,
			cfg: engine.Config{Bugs: bugs}},
		{name: "queue-saturated", src: progen.Generate(7, progen.Options{}), trace: true,
			cfg: engine.Config{IonThreshold: 30, Queue: closed}},
		{name: "async", src: parityAsyncProgram,
			cfg: engine.Config{IonThreshold: 10, Queue: live}},
	}

	got := map[string]parityRecord{}
	for _, sc := range scenarios {
		cfg := sc.cfg
		ring, audit := obs.NewRing(0), obs.NewAuditLog(nil)
		cfg.Tracer = obs.NewTracer(obs.MultiSink{ring, audit})
		var rec parityRecord
		e, err := engine.New(sc.src, cfg)
		if err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		if sc.policy {
			e.SetPolicy(core.NewDetector(db))
		}
		if _, err := e.Run(); err != nil && !engine.IsCrash(err) && !engine.IsHijack(err) {
			t.Fatalf("%s: run: %v", sc.name, err)
		}
		rec.Journey = journeys(ring.Events())
		for _, ev := range audit.Events() {
			rec.Audit = append(rec.Audit, string(ev.Verdict)+" "+ev.Func+" "+ev.Stage)
		}
		if sc.trace {
			rec.Trace = firstCompile(ring.Events())
		}
		got[sc.name] = rec
	}

	path := filepath.Join("testdata", "obs_parity.json")
	want := map[string]parityRecord{}
	data, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(data, &want)
	}
	if err != nil && !(*updateParity && errors.Is(err, fs.ErrNotExist)) {
		t.Fatal(err)
	}
	if *updateParity {
		// A scenario's trace keeps the names it recorded, as today's run
		// emits them; a scenario with no trace yet records every name. To
		// track one more name, add it to the golden by hand and re-record.
		for _, sc := range scenarios {
			if rec, w := got[sc.name], want[sc.name]; w.Trace != nil {
				rec.Trace = recordedNames(rec.Trace, w.Trace)
				got[sc.name] = rec
			}
		}
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
	for _, sc := range scenarios {
		g, w := got[sc.name], want[sc.name]
		if !reflect.DeepEqual(g.Journey, w.Journey) {
			t.Errorf("%s: journey\n got %v\nwant %v", sc.name, g.Journey, w.Journey)
		}
		if !reflect.DeepEqual(g.Audit, w.Audit) {
			t.Errorf("%s: audit\n got %v\nwant %v", sc.name, g.Audit, w.Audit)
		}
		// The lifecycle facts that used to go to the journal, the audit log
		// and the watchdog alone now share the stream. What the trace already
		// had, it still has, in the same order.
		kept := recordedNames(g.Trace, w.Trace)
		if !reflect.DeepEqual(kept, w.Trace) {
			t.Errorf("%s: first compile's trace, names the golden has\n got %v\nwant %v", sc.name, kept, w.Trace)
		}
	}
}

// recordedNames returns the names of trace that golden records, in
// trace's order.
func recordedNames(trace, golden []string) []string {
	had := map[string]bool{}
	for _, name := range golden {
		had[name] = true
	}
	var kept []string
	for _, name := range trace {
		if had[name] {
			kept = append(kept, name)
		}
	}
	return kept
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
