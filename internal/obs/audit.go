package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"
)

// Verdict classifies one audit event.
type Verdict string

// The JITBULL go/no-go decisions, one per policy-observed compilation: the
// verdict of the Decision a decide fact carries. Every other verdict in a
// log is a lifecycle fact's Fact.Verdict (facts.go): compile-error,
// quarantine, requalify, permanent.
const (
	VerdictGo          Verdict = "go"           // compile proceeds unmodified
	VerdictDisablePass Verdict = "disable-pass" // matched passes disabled, recompile
	VerdictNoJIT       Verdict = "nojit"        // matched pass mandatory: JIT denied
)

// Match is one DNA similarity behind a verdict, with full attribution: the
// CVE, the VDC function whose DNA matched, the optimization pass, and the
// chain that witnessed the match. It is the one form a match has — in the
// policy's decision, in the detector's accounting, in the shared cache, on
// disk in the store and in an audit line.
type Match struct {
	CVE     string `json:"cve"`
	VDCFunc string `json:"vdc_func"`
	Pass    string `json:"pass"`
	// ChainID is the witness chain's ID in the policy's interner: the
	// smallest chain by content (string order of Chain) shared between the
	// candidate DNA and the matched delta on Side, or core.NoChain when the
	// match needed no shared chain (degenerate thresholds). It means nothing
	// to another process; Chain is what travels, and a reader in another
	// process interns it again.
	ChainID uint32 `json:"chain_id"`
	Side    string `json:"side,omitempty"`  // "removed" or "added"; "" with no witness
	Chain   string `json:"chain,omitempty"` // "→"-joined chain rendering
}

// MatchKey is the identity projection of a Match: the (CVE, VDCFunc,
// Pass) triple that defines go/no-go decisions. Attribution fields are
// witnesses, not identity — two detectors are decision-equivalent when
// their match KEY sets agree.
type MatchKey struct {
	CVE     string
	VDCFunc string
	Pass    string
}

// Key projects the match to its identity.
func (m Match) Key() MatchKey { return MatchKey{CVE: m.CVE, VDCFunc: m.VDCFunc, Pass: m.Pass} }

// Decision is the JITBULL go/no-go verdict for one compilation, with the
// evidence behind it (engine.CompileDecision). It is plain data, made once
// by the policy and never changed after: the shared cache keeps it next to
// the artifact, the store writes it as JSON, and the decide fact carries it
// (Event.Decision) to every view of the stream.
type Decision struct {
	// DisabledPasses lists dangerous passes to disable for this function.
	DisabledPasses []string `json:"disabled_passes,omitempty"`
	// NoJIT forces interpreter-only execution (scenario 3 of §V: a matched
	// pass is mandatory).
	NoJIT bool `json:"nojit,omitempty"`
	// Matches are the DNA similarities the verdict rests on, in the order
	// the policy books them; empty for a go verdict.
	Matches []Match `json:"matches,omitempty"`
	// Reason says why a decision was not judged from this compilation's DNA
	// (a fail-safe veto, a replay). It belongs to the one statement of the
	// decision, not to the record the cache and the store keep.
	Reason string `json:"-"`
}

// Verdict names the decision the way the audit log and the decide fact do.
func (d Decision) Verdict() Verdict {
	switch {
	case d.NoJIT:
		return VerdictNoJIT
	case len(d.DisabledPasses) > 0:
		return VerdictDisablePass
	}
	return VerdictGo
}

// AuditEvent is one structured audit record.
type AuditEvent struct {
	Seq            uint64   `json:"seq"`
	TimeUnixNs     int64    `json:"time_unix_ns"`
	Func           string   `json:"func"`
	Verdict        Verdict  `json:"verdict"`
	DisabledPasses []string `json:"disabled_passes,omitempty"`
	Matches        []Match  `json:"matches,omitempty"`
	Stage          string   `json:"stage,omitempty"`  // compile stage (supervisor events)
	Reason         string   `json:"reason,omitempty"` // error text (supervisor events)
}

// String renders the event as one report line.
func (ev AuditEvent) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "#%-4d %-13s %s", ev.Seq, ev.Verdict, ev.Func)
	if len(ev.DisabledPasses) > 0 {
		fmt.Fprintf(&sb, " disabled=[%s]", strings.Join(ev.DisabledPasses, ","))
	}
	for _, m := range ev.Matches {
		fmt.Fprintf(&sb, " match{%s %s/%s chain#%d}", m.CVE, m.VDCFunc, m.Pass, m.ChainID)
	}
	if ev.Stage != "" {
		fmt.Fprintf(&sb, " stage=%s", ev.Stage)
	}
	if ev.Reason != "" {
		fmt.Fprintf(&sb, " reason=%q", ev.Reason)
	}
	return sb.String()
}

// AuditLog is the view that keeps decisions: of the stream, the decide
// facts (the go/no-go verdict with its matches) and the facts that are
// supervisor transitions (Fact.Verdict). It retains the newest
// DefaultRingCapacity events in memory and, when constructed over a
// writer, streams every event as one JSON line (JSONL) — the file is
// complete whatever the ring has dropped. A nil *AuditLog is the disabled
// log: Record costs one nil check.
type AuditLog struct {
	mu     sync.Mutex
	w      io.Writer
	events ring[AuditEvent]
	werr   error
}

// NewAuditLog returns a log. w may be nil for in-memory-only operation.
func NewAuditLog(w io.Writer) *AuditLog {
	return &AuditLog{w: w, events: ring[AuditEvent]{max: DefaultRingCapacity}}
}

// Record implements Sink: a decide fact becomes the audit event of its
// decision, and a fact with a verdict one whose stage and reason are taken
// from the arguments of those names.
func (l *AuditLog) Record(ev Event) {
	if l == nil {
		return
	}
	if d := ev.Decision; d != nil {
		l.add(AuditEvent{Func: ev.Func, Verdict: d.Verdict(), DisabledPasses: d.DisabledPasses, Matches: d.Matches, Reason: d.Reason})
	} else if v := factByName[ev.Name].Verdict; v != "" {
		l.add(AuditEvent{Func: ev.Func, Verdict: v, Stage: ev.Str("stage"), Reason: ev.Str("reason")})
	}
}

// add stamps (sequence, wall time) and stores/streams the event.
func (l *AuditLog) add(ev AuditEvent) {
	l.mu.Lock()
	defer l.mu.Unlock()
	ev.Seq = uint64(l.events.total) + 1
	ev.TimeUnixNs = time.Now().UnixNano()
	l.events.push(ev)
	if l.w != nil && l.werr == nil {
		data, err := json.Marshal(ev)
		if err == nil {
			data = append(data, '\n')
			_, err = l.w.Write(data)
		}
		l.werr = err
	}
}

// Events returns a copy of the retained events, in order.
func (l *AuditLog) Events() []AuditEvent {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.events.items()
}

// Len returns the number of retained events.
func (l *AuditLog) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.events.buf)
}

// Dropped returns how many of the oldest events the in-memory ring has
// overwritten.
func (l *AuditLog) Dropped() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.events.dropped()
}

// WriteErr returns the first error encountered streaming JSONL, if any.
func (l *AuditLog) WriteErr() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.werr
}

// ReadAudit decodes a JSONL audit stream (as written by an AuditLog over
// a file). Blank lines are skipped; a malformed line fails with its
// 1-based line number.
func ReadAudit(r io.Reader) ([]AuditEvent, error) {
	var out []AuditEvent
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var ev AuditEvent
		if err := json.Unmarshal([]byte(text), &ev); err != nil {
			return nil, fmt.Errorf("audit line %d: %w", line, err)
		}
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadAuditFile decodes a JSONL audit file.
func ReadAuditFile(path string) ([]AuditEvent, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadAudit(f)
}
