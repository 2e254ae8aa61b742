package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// JourneyEvent is one recorded waypoint in a function's life under the
// tiering engine; the ordered stream of them for one function is its
// "journey" — the after-the-fact answer to "why is this function in this
// tier, and what happened to it along the way?". TS is nanoseconds since
// the tracer's epoch, monotonic.
type JourneyEvent struct {
	Seq   uint64 `json:"seq"`
	TS    int64  `json:"ts_ns"`
	Func  string `json:"func"`
	Stage string `json:"stage"`
	Tier  string `json:"tier,omitempty"`  // tier after this event
	Cause string `json:"cause,omitempty"` // the event's other arguments
}

// Journal is the view that keeps each function's journey: of the stream
// it retains the facts that are waypoints (Fact.Stage), per function, in
// a drop-oldest ring so a deopt-storming function cannot grow it without
// bound. A nil *Journal is the disabled journal, matching the package's
// nil-is-off convention. All methods are safe for concurrent use.
type Journal struct {
	mu    sync.Mutex
	funcs map[string]*ring[JourneyEvent]
	capPF int
	total int64
}

// DefaultJourneyCap is the per-function event retention bound.
const DefaultJourneyCap = 256

// NewJournal returns a journal retaining at most capPerFunc events per
// function (oldest dropped first); capPerFunc <= 0 uses the default.
func NewJournal(capPerFunc int) *Journal {
	if capPerFunc <= 0 {
		capPerFunc = DefaultJourneyCap
	}
	return &Journal{funcs: map[string]*ring[JourneyEvent]{}, capPF: capPerFunc}
}

// Record implements Sink. A span is a waypoint at its end; an OSR entry
// the frame map refused is none.
func (j *Journal) Record(ev Event) {
	if j == nil || ev.Func == "" {
		return
	}
	stage := factByName[ev.Name].Stage
	if stage == "" || (ev.Name == FactOSREnter && ev.Str("result") == "declined") {
		return
	}
	je := JourneyEvent{TS: ev.TS + ev.Dur, Func: ev.Func, Stage: stage, Tier: ev.Str("tier"), Cause: cause(ev)}
	j.mu.Lock()
	defer j.mu.Unlock()
	f := j.funcs[ev.Func]
	if f == nil {
		f = &ring[JourneyEvent]{max: j.capPF}
		j.funcs[ev.Func] = f
	}
	j.total++
	je.Seq = uint64(j.total)
	f.push(je)
}

// cause renders a waypoint's arguments, the tier apart, as "k=v k=v"; a
// reason is free text and stands without its key.
func cause(ev Event) string {
	var b strings.Builder
	for _, a := range ev.Args[:ev.NArgs] {
		if a.Key == "tier" {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		switch {
		case a.Key == "reason":
			b.WriteString(a.Str)
		case a.IsStr:
			b.WriteString(a.Key + "=" + a.Str)
		default:
			fmt.Fprintf(&b, "%s=%d", a.Key, a.Val)
		}
	}
	return b.String()
}

// Total returns the number of events ever recorded.
func (j *Journal) Total() int64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.total
}

// Funcs returns the journaled function names, sorted.
func (j *Journal) Funcs() []string {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]string, 0, len(j.funcs))
	for fn := range j.funcs {
		out = append(out, fn)
	}
	sort.Strings(out)
	return out
}

// Events returns fn's retained waypoints in order (nil if unknown).
func (j *Journal) Events(fn string) []JourneyEvent {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	f := j.funcs[fn]
	if f == nil {
		return nil
	}
	return f.items()
}

// Dropped returns how many of fn's oldest events were evicted by the
// per-function retention bound.
func (j *Journal) Dropped(fn string) int64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if f := j.funcs[fn]; f != nil {
		return f.dropped()
	}
	return 0
}

// journeyJSON is the wire shape of WriteJSON.
type journeyJSON struct {
	Funcs map[string][]JourneyEvent `json:"funcs"`
	Total int64                     `json:"total"`
}

// WriteJSON encodes every function's retained journey as one JSON object.
func (j *Journal) WriteJSON(w io.Writer) error {
	if j == nil {
		_, err := io.WriteString(w, "{}\n")
		return err
	}
	j.mu.Lock()
	out := journeyJSON{Funcs: make(map[string][]JourneyEvent, len(j.funcs)), Total: j.total}
	for fn, f := range j.funcs {
		out.Funcs[fn] = f.items()
	}
	j.mu.Unlock()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// DecodeJourney parses a WriteJSON dump back into a render-capable
// Journal: Funcs/Events/Render* work on the decoded copy. Per-function
// drop counts are not part of the wire shape and read as zero.
func DecodeJourney(r io.Reader) (*Journal, error) {
	var in journeyJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("decode journey: %w", err)
	}
	j := &Journal{funcs: make(map[string]*ring[JourneyEvent], len(in.Funcs)), capPF: DefaultJourneyCap, total: in.Total}
	for fn, evs := range in.Funcs {
		j.funcs[fn] = &ring[JourneyEvent]{buf: evs, max: max(len(evs), j.capPF), total: int64(len(evs))}
	}
	return j, nil
}

// RenderTimeline renders fn's journey as an aligned ASCII timeline:
//
//	hot — 7 event(s)
//	      0.000ms  interp       tier=interp    first call
//	      0.412ms  warm         tier=baseline  calls=4
//	      ...
//
// Returns "" when fn has no retained events.
func (j *Journal) RenderTimeline(fn string) string {
	evs := j.Events(fn)
	if len(evs) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %d event(s)", fn, len(evs))
	if d := j.Dropped(fn); d > 0 {
		fmt.Fprintf(&b, " (+%d dropped)", d)
	}
	b.WriteByte('\n')
	base := evs[0].TS
	for _, ev := range evs {
		tier := ev.Tier
		if tier == "" {
			tier = "-"
		}
		fmt.Fprintf(&b, "  %10.3fms  %-12s tier=%-9s %s\n",
			float64(ev.TS-base)/1e6, ev.Stage, tier, ev.Cause)
	}
	return b.String()
}

// RenderAll renders every journaled function's timeline, names sorted.
func (j *Journal) RenderAll() string {
	var b strings.Builder
	for _, fn := range j.Funcs() {
		b.WriteString(j.RenderTimeline(fn))
	}
	return b.String()
}
