package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"sort"
)

// Chrome trace_event exporter: renders recorded events in the JSON object
// format of the Trace Event Format, so a compile run opens directly in
// chrome://tracing or https://ui.perfetto.dev. Spans become complete
// events (ph "X"), instants become thread-scoped instant events (ph "i").
// Timestamps are microseconds with fractional nanosecond precision, as
// the format specifies.

// chromeEvent is one trace_event record.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`            // microseconds
	Dur   float64        `json:"dur,omitempty"` // microseconds
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"` // instant scope
	Args  map[string]any `json:"args,omitempty"`
}

// chromeTrace is the top-level JSON object.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// toChrome converts one recorded event.
func toChrome(ev Event) chromeEvent {
	ce := chromeEvent{
		Name:  ev.Name,
		Cat:   ev.Cat,
		Phase: "X",
		TS:    float64(ev.TS) / 1e3,
		Dur:   float64(ev.Dur) / 1e3,
		PID:   1,
		TID:   1,
	}
	if ev.Kind == KindInstant {
		ce.Phase = "i"
		ce.Scope = "t"
		ce.Dur = 0
	}
	if ev.NArgs > 0 || ev.ID != 0 || ev.Func != "" {
		ce.Args = make(map[string]any, ev.NArgs+2)
		for i := 0; i < ev.NArgs; i++ {
			a := ev.Args[i]
			if a.IsStr {
				ce.Args[a.Key] = a.Str
			} else {
				ce.Args[a.Key] = a.Val
			}
		}
		if ev.Func != "" {
			ce.Args["fn"] = ev.Func
		}
		// Surface the span ID so histogram exemplars (which store span
		// IDs) can be located inside a dumped trace by text search.
		if ev.ID != 0 {
			ce.Args["span_id"] = ev.ID
		}
	}
	return ce
}

// WriteChromeTrace writes events to w in Chrome trace_event JSON form.
func WriteChromeTrace(w io.Writer, events []Event) error {
	out := chromeTrace{TraceEvents: make([]chromeEvent, len(events)), DisplayTimeUnit: "ns"}
	for i, ev := range events {
		out.TraceEvents[i] = toChrome(ev)
	}
	// The ring records spans at End, so an enclosing span lands after its
	// children despite beginning first. Emit in begin-time order (stable,
	// so equal timestamps keep recording order) to keep the file itself
	// monotonic for tools stricter than the trace viewers.
	sort.SliceStable(out.TraceEvents, func(i, j int) bool {
		return out.TraceEvents[i].TS < out.TraceEvents[j].TS
	})
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(out); err != nil {
		return err
	}
	return bw.Flush()
}

// SaveChromeTrace writes events to a file at path.
func SaveChromeTrace(path string, events []Event) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteChromeTrace(f, events); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
