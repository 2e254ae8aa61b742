package obs

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// FlightRecorder is the tail-sampling view: it keeps a bounded ring of the
// most recent events and writes a full Chrome-trace dump only when an
// anomalous episode is declared — so steady-state runs cost one ring write
// per event and zero disk, while the stream *leading up to* an anomaly,
// cause included, is preserved in full.
//
// Four kinds of event on the stream declare an episode:
//
//   - a compile span whose duration exceeds the rolling p99 of recent
//     compiles (after a minimum sample count, with a cooldown so one slow
//     phase produces one dump, not one per compile);
//   - any CatFault "fault.injected" instant;
//   - a quarantine (context for the spike detector, anomalous or not);
//   - a watchdog anomaly. Neither it nor a quarantine is debounced — every
//     one produces exactly one dump, which the chaos campaign counts 1:1
//     against seeded causes.
//
// Disk use is bounded by MaxDumps and MaxBytes: oldest dumps are
// deleted first. A nil *FlightRecorder is inert, per the package's
// nil-is-off convention.
type FlightRecorder struct {
	mu   sync.Mutex
	ring ring[Event]

	dir      string
	maxDumps int
	maxBytes int64

	durs       ring[int64] // recent compile durations, for the p99 trigger
	minSamples int
	cooldown   int // compile samples remaining before another p99 episode

	seq      uint64
	episodes []Episode
	dumpErr  error
}

// Episode is one declared anomaly with its dump location.
type Episode struct {
	Seq    uint64 `json:"seq"`
	Reason string `json:"reason"`
	Detail string `json:"detail,omitempty"`
	Path   string `json:"path,omitempty"` // "" if the dump failed or was evicted
	Events int    `json:"events"`         // ring events captured in the dump
}

// FlightOptions tune a FlightRecorder. Zero values select defaults.
type FlightOptions struct {
	RingCapacity int   // retained events; default 8192
	MaxDumps     int   // dump files kept on disk; default 32
	MaxBytes     int64 // total dump bytes kept on disk; default 32 MiB
	MinSamples   int   // compile samples before the p99 trigger arms; default 64
}

// NewFlightRecorder returns a recorder dumping episodes into dir
// (created if missing). A best-effort recorder: if dir cannot be
// created, episodes are still tracked but dumps fail with Err.
func NewFlightRecorder(dir string, opts FlightOptions) *FlightRecorder {
	if opts.RingCapacity <= 0 {
		opts.RingCapacity = 8192
	}
	if opts.MaxDumps <= 0 {
		opts.MaxDumps = 32
	}
	if opts.MaxBytes <= 0 {
		opts.MaxBytes = 32 << 20
	}
	if opts.MinSamples <= 0 {
		opts.MinSamples = 64
	}
	f := &FlightRecorder{
		ring:       ring[Event]{max: opts.RingCapacity},
		dir:        dir,
		maxDumps:   opts.MaxDumps,
		maxBytes:   opts.MaxBytes,
		durs:       ring[int64]{max: 512},
		minSamples: opts.MinSamples,
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		f.dumpErr = err
	}
	return f
}

// Record implements Sink: retain the event, then declare the episode it
// calls for, if any. Safe on a nil recorder.
func (f *FlightRecorder) Record(ev Event) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.ring.push(ev)
	switch {
	case ev.Name == FactCompile && ev.Kind == KindSpan:
		f.observeCompileLocked(ev)
	case ev.Cat == CatFault && ev.Kind == KindInstant:
		f.episodeLocked("fault-injected", ev.Name)
	case ev.Name == FactQuarantined:
		f.episodeLocked("quarantine", ev.Func+": "+ev.Str("reason"))
	case ev.Name == FactAnomaly:
		f.episodeLocked(ev.Str("stage"), ev.Str("reason"))
	}
	f.mu.Unlock()
}

// observeCompileLocked maintains the rolling window and fires the p99
// trigger. Called with f.mu held.
func (f *FlightRecorder) observeCompileLocked(ev Event) {
	if f.cooldown > 0 {
		f.cooldown--
	}
	if n := len(f.durs.buf); n >= f.minSamples && f.cooldown == 0 {
		// Compiles are rare enough that the copy+sort is negligible next to
		// the compile itself.
		w := f.durs.items()
		sort.Slice(w, func(i, j int) bool { return w[i] < w[j] })
		if ev.Dur > w[(n-1)*99/100] {
			f.episodeLocked("compile-p99", fmt.Sprintf("%s dur=%dns span=%d", ev.Name, ev.Dur, ev.ID))
			f.cooldown = f.minSamples
		}
	}
	f.durs.push(ev.Dur)
}

// episodeLocked records an episode and dumps the ring to disk. Called
// with f.mu held.
func (f *FlightRecorder) episodeLocked(reason, detail string) {
	f.seq++
	ep := Episode{Seq: f.seq, Reason: reason, Detail: detail}
	evs := f.ring.items()
	ep.Events = len(evs)
	path := filepath.Join(f.dir, fmt.Sprintf("ep%04d-%s.trace.json", f.seq, sanitizeReason(reason)))
	if err := SaveChromeTrace(path, evs); err != nil {
		f.dumpErr = err
	} else {
		ep.Path = path
	}
	f.episodes = append(f.episodes, ep)
	if len(f.episodes) > 4096 {
		f.episodes = f.episodes[len(f.episodes)-4096:]
	}
	f.enforceBoundsLocked()
}

// enforceBoundsLocked deletes oldest dump files until both the count
// and total-byte bounds hold.
func (f *FlightRecorder) enforceBoundsLocked() {
	type onDisk struct {
		idx  int
		size int64
	}
	var files []onDisk
	var total int64
	for i := range f.episodes {
		if f.episodes[i].Path == "" {
			continue
		}
		st, err := os.Stat(f.episodes[i].Path)
		if err != nil {
			f.episodes[i].Path = ""
			continue
		}
		files = append(files, onDisk{i, st.Size()})
		total += st.Size()
	}
	for len(files) > 0 && (len(files) > f.maxDumps || total > f.maxBytes) {
		victim := files[0]
		os.Remove(f.episodes[victim.idx].Path)
		f.episodes[victim.idx].Path = ""
		total -= victim.size
		files = files[1:]
	}
}

// Episodes returns every declared episode in order.
func (f *FlightRecorder) Episodes() []Episode {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]Episode, len(f.episodes))
	copy(out, f.episodes)
	return out
}

// Err returns the most recent dump failure, if any.
func (f *FlightRecorder) Err() error {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dumpErr
}

// sanitizeReason maps an episode reason into a safe filename fragment.
func sanitizeReason(s string) string {
	var b strings.Builder
	for _, r := range s {
		if (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9') || r == '-' || r == '_' {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "episode"
	}
	return b.String()
}
