// Package faults is the deterministic fault-injection framework behind
// the chaos suite: named injection points are threaded through the entire
// JIT compile path (mirbuild → optimization passes → LIR lowering →
// register allocation → native dispatch) and the VDC database's
// persistence, and an Injector decides — from a seed, per-rule
// probabilities, after-N-hits offsets and fire-count caps — whether a
// given hit of a point fails, panics, or stalls.
//
// Everything is deterministic: the same seed, rules and call sequence
// produce the same faults, so any chaos-suite failure is replayable from
// its (seed, rules, program) triple alone. The injector also records every
// fault it fired, which the chaos suite matches 1:1 against the engine's
// typed CompileError accounting — an injected fault that is not surfaced
// as a supervised, attributed failure is itself a bug.
package faults

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"github.com/jitbull/jitbull/internal/obs"
)

// Point names one injection site in the compile path or the database
// persistence layer.
type Point string

// The injection points. PointPass is hit once per executed optimization
// pass (detail: the pass name); the others once per entry into their
// stage.
const (
	PointMIRBuild Point = "mirbuild" // MIR graph construction
	PointPass     Point = "pass"     // each optimization pass (detail: pass name)
	PointLower    Point = "lir"      // LIR lowering
	PointRegalloc Point = "regalloc" // register allocation
	PointFuse     Point = "fuse"     // superinstruction fusion
	PointNative   Point = "native"   // native-code dispatch (detail: function)
	// PointMCEmit and PointMCInstall gate the machine-code tier attach:
	// emit is hit before the LIR→amd64 lowering runs, install before the
	// W^X page install. A fault at either point must degrade the function
	// to the threaded tier (the artifact stays installed) with a
	// quarantine verdict on the audit log — never fail the whole compile.
	PointMCEmit    Point = "mc.emit"    // machine-code lowering (detail: function)
	PointMCInstall Point = "mc.install" // W^X page install (detail: function)
	PointDBSave    Point = "db.save"    // VDC database save
	PointDBLoad    Point = "db.load"    // VDC database load
	// PointQueue is hit once per background compile job at startup (detail:
	// function). It is not part of CompilePoints(): randomized chaos
	// schedules run synchronous engines, where the point is never reached;
	// target it explicitly to exercise the queue (stall exhausts the job's
	// step budget, panic must be contained by the worker-side supervisor).
	PointQueue Point = "queue"
	// PointOSR and PointDeopt gate the tier-transition edges of the OSR
	// machinery: PointOSR is hit once per attempted loop-header on-stack
	// replacement (detail: function), immediately before native registers
	// are materialized; PointDeopt once per guard-failure deopt exit
	// (detail: function), before interpreter state is reconstructed. They
	// are not part of CompilePoints() — they sit on the dispatch path, not
	// the compile path, and randomized compile-path schedules would never
	// reach them in interpreter-reference cells; target them explicitly.
	// Containment contract: an injected fault at either point must refuse
	// the transition (stay on the current tier) with 1:1 accounting, never
	// corrupt frame state.
	PointOSR   Point = "osr"   // loop-header OSR entry (detail: function)
	PointDeopt Point = "deopt" // guard-failure deopt exit (detail: function)

	// Store points gate the persistent artifact/verdict store's disk
	// boundary (internal/store): PointStorePut is hit once per record
	// write, PointStoreGet once per record read (detail: record key). They
	// are not part of CompilePoints() — the store contains its own faults
	// (quarantine + cold-start degradation) and a compile-path schedule
	// would veto cacheability entirely. Target them explicitly; they accept
	// the disk kinds (DiskKinds) in addition to the generic ones.
	PointStorePut Point = "store.put"
	PointStoreGet Point = "store.get"

	// PointWatchdog seeds the anomaly watchdog (internal/obs): the
	// watchdog's seed probe consults it once per observed signal (detail:
	// "kind:function"), and every fired fault must synthesize exactly one
	// "seeded" anomaly — audit event, metrics bump, flight-recorder
	// episode — with panic kinds contained inside the probe. It is not
	// part of CompilePoints(): it sits on the monitoring path, not the
	// compile path. The chaos campaign uses it to prove 1:1 accounting
	// between injected causes and watchdog findings, and zero false
	// positives when no rules are armed.
	PointWatchdog Point = "watchdog"
)

// StorePoints lists the persistent store's injection points — the disk
// boundary a store chaos campaign sweeps.
func StorePoints() []Point {
	return []Point{PointStorePut, PointStoreGet}
}

// CompilePoints lists the points on the per-function compile/dispatch
// path — the ones a randomized chaos schedule draws from. Database
// persistence points are exercised separately (they are not part of a
// compilation and have their own fail-safe semantics).
func CompilePoints() []Point {
	return []Point{PointMIRBuild, PointPass, PointLower, PointRegalloc, PointFuse, PointMCEmit, PointMCInstall, PointNative}
}

// KnownPoints lists every registered injection point — the compile path,
// database persistence, the background queue, and the OSR/deopt
// tier-transition edges. This is the validation set for ParseRule and the
// chaos CLI's -points flag.
func KnownPoints() []Point {
	pts := append(CompilePoints(), PointDBSave, PointDBLoad, PointQueue, PointOSR, PointDeopt, PointWatchdog)
	return append(pts, StorePoints()...)
}

// Kind is what happens when a scheduled fault fires.
type Kind string

// Fault kinds. KindStall models a pathological compile time (the failure
// class of JIT performance bugs): instead of sleeping, it deterministically
// exhausts the compilation's step budget, so the budget mechanism — not
// wall-clock flakiness — is what the test exercises.
const (
	KindError Kind = "error" // the point returns an injected error
	KindPanic Kind = "panic" // the point panics (supervisor must contain it)
	KindStall Kind = "stall" // pathological compile time: trips the step budget

	// Disk-fault kinds, meaningful at the store points (and accepted, as
	// generic errors, everywhere else). The first three model silent
	// corruption — the store must WRITE the damaged bytes and report
	// success, so detection happens at read time via the record checksum;
	// the last two model I/O errors, one hard (the put is dropped) and one
	// transient (consumed by the store's bounded retry loop).
	KindTornWrite Kind = "torn-write"    // only a prefix of the record reaches disk
	KindBitFlip   Kind = "bit-flip"      // one bit of the record is flipped on disk
	KindTruncate  Kind = "truncate"      // the record file is truncated to zero length
	KindENOSPC    Kind = "enospc"        // hard out-of-space error: the write fails
	KindEIO       Kind = "eio-transient" // transient I/O error: retriable
)

// Kinds lists the generic fault kinds every point accepts — the set
// randomized compile-path schedules draw from. Disk kinds are excluded on
// purpose: outside the store they would just be oddly-named errors.
func Kinds() []Kind { return []Kind{KindError, KindPanic, KindStall} }

// DiskKinds lists the disk-fault kinds of the persistent store's chaos
// campaign.
func DiskKinds() []Kind {
	return []Kind{KindTornWrite, KindBitFlip, KindTruncate, KindENOSPC, KindEIO}
}

// Rule schedules faults at one point.
type Rule struct {
	Point Point `json:"point"`
	Kind  Kind  `json:"kind"`
	// Probability of firing per eligible hit. Values <= 0 or >= 1 fire on
	// every eligible hit (the fully deterministic schedule).
	Probability float64 `json:"probability,omitempty"`
	// AfterHits skips the first N hits of the point before the rule
	// becomes eligible.
	AfterHits int `json:"after_hits,omitempty"`
	// Times caps how often this rule fires in total (0 = unlimited).
	Times int `json:"times,omitempty"`
}

// String renders the rule in the form ParseRule accepts:
// point:kind[:probability[:afterhits[:times]]].
func (r Rule) String() string {
	return fmt.Sprintf("%s:%s:%g:%d:%d", r.Point, r.Kind, r.Probability, r.AfterHits, r.Times)
}

// ParseRule parses "point:kind[:probability[:afterhits[:times]]]", e.g.
// "pass:panic", "native:error:0.25", "mirbuild:stall:1:3:2".
func ParseRule(s string) (Rule, error) {
	parts := strings.Split(s, ":")
	if len(parts) < 2 || len(parts) > 5 {
		return Rule{}, fmt.Errorf("fault rule %q: want point:kind[:probability[:afterhits[:times]]]", s)
	}
	r := Rule{Point: Point(parts[0]), Kind: Kind(parts[1])}
	switch r.Kind {
	case KindError, KindPanic, KindStall,
		KindTornWrite, KindBitFlip, KindTruncate, KindENOSPC, KindEIO:
	default:
		return Rule{}, fmt.Errorf("fault rule %q: unknown kind %q", s, parts[1])
	}
	known := false
	for _, p := range KnownPoints() {
		if r.Point == p {
			known = true
		}
	}
	if !known {
		return Rule{}, fmt.Errorf("fault rule %q: unknown point %q", s, parts[0])
	}
	var err error
	if len(parts) > 2 {
		if r.Probability, err = strconv.ParseFloat(parts[2], 64); err != nil {
			return Rule{}, fmt.Errorf("fault rule %q: bad probability: %v", s, err)
		}
	}
	if len(parts) > 3 {
		if r.AfterHits, err = strconv.Atoi(parts[3]); err != nil {
			return Rule{}, fmt.Errorf("fault rule %q: bad afterhits: %v", s, err)
		}
	}
	if len(parts) > 4 {
		if r.Times, err = strconv.Atoi(parts[4]); err != nil {
			return Rule{}, fmt.Errorf("fault rule %q: bad times: %v", s, err)
		}
	}
	return r, nil
}

// Fault is the record of one fired fault.
type Fault struct {
	Point  Point
	Detail string // pass or function name, file path, ... (point-specific)
	Kind   Kind
	Hit    int // 1-based hit ordinal of the point when the fault fired
	Rule   int // index of the rule that fired
}

// String renders the fault for error messages and reports.
func (f Fault) String() string {
	if f.Detail != "" {
		return fmt.Sprintf("%s(%s) hit %d: %s", f.Point, f.Detail, f.Hit, f.Kind)
	}
	return fmt.Sprintf("%s hit %d: %s", f.Point, f.Hit, f.Kind)
}

// InjectedError is the error form of a fired fault (KindError, and
// KindStall at meterless points).
type InjectedError struct {
	Fault Fault
	// Stalled marks a KindStall fault: the compile step budget was
	// deterministically exhausted.
	Stalled bool
}

// Error implements the error interface.
func (e *InjectedError) Error() string { return "injected fault: " + e.Fault.String() }

// InjectedPanic is the panic value of a KindPanic fault. It is not an
// error: it must travel as a panic so recovery is exercised at the real
// stack depth of the injection point.
type InjectedPanic struct{ Fault Fault }

// String renders the panic value.
func (p *InjectedPanic) String() string { return "injected panic: " + p.Fault.String() }

// IsInjected reports whether err (or anything it wraps) is an injected
// fault.
func IsInjected(err error) bool {
	var ie *InjectedError
	return errors.As(err, &ie)
}

// FromPanic extracts the fault from a recovered panic value, reporting
// whether the panic was injected.
func FromPanic(r any) (Fault, bool) {
	if ip, ok := r.(*InjectedPanic); ok {
		return ip.Fault, true
	}
	return Fault{}, false
}

// ErrCompileBudget is wrapped by every compile-step-budget exhaustion.
var ErrCompileBudget = errors.New("compile step budget exhausted")

// Meter is the step budget of one compilation attempt: every stage charges
// abstract work units (roughly, IR instructions visited) and the first
// charge past the limit fails the compilation. Limit 0 means unlimited.
type Meter struct {
	Used  int64
	Limit int64
}

// Charge adds n steps, returning an ErrCompileBudget-wrapping error once
// the limit is exceeded. A nil meter is unlimited.
func (m *Meter) Charge(n int64) error {
	if m == nil {
		return nil
	}
	m.Used += n
	if m.Limit > 0 && m.Used > m.Limit {
		return fmt.Errorf("%w (used %d of %d steps)", ErrCompileBudget, m.Used, m.Limit)
	}
	return nil
}

// Exhaust burns the remaining budget (the KindStall semantics).
func (m *Meter) Exhaust() {
	if m != nil && m.Limit > 0 && m.Used < m.Limit {
		m.Used = m.Limit
	}
}

// Injector evaluates fault rules deterministically. It is safe for
// concurrent use (parallel experiment cells may share one), but the fault
// sequence is only reproducible when the hit sequence is — give each
// engine its own injector. A nil *Injector is valid and never fires.
type Injector struct {
	mu    sync.Mutex
	rules []Rule
	seed  int64
	state uint64
	hits  map[Point]int
	fires []int
	fired []Fault

	// Trace, when set, receives one CatFault instant event per fired fault
	// (point, kind, detail, schedule seed), so injected failures are visible
	// inline in a compile trace. Set it before the first hit.
	Trace *obs.Tracer
}

// NewInjector builds an injector over the rules with the given PRNG seed.
func NewInjector(seed int64, rules ...Rule) *Injector {
	return &Injector{
		rules: rules,
		seed:  seed,
		state: uint64(seed)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d,
		hits:  map[Point]int{},
		fires: make([]int, len(rules)),
	}
}

// Seed returns the PRNG seed the injector was built with.
func (in *Injector) Seed() int64 {
	if in == nil {
		return 0
	}
	return in.seed
}

// splitmix64 is the PRNG step (SplitMix64): tiny, seedable, deterministic.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// roll records one hit of the point and returns the fault to apply, if
// any. Rules are evaluated in order; the first eligible rule that fires
// wins.
func (in *Injector) roll(p Point, detail string) (Fault, bool) {
	if in == nil {
		return Fault{}, false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.hits[p]++
	hit := in.hits[p]
	for ri, r := range in.rules {
		if r.Point != p || hit <= r.AfterHits {
			continue
		}
		if r.Times > 0 && in.fires[ri] >= r.Times {
			continue
		}
		if r.Probability > 0 && r.Probability < 1 {
			u := float64(splitmix64(&in.state)>>11) / (1 << 53)
			if u >= r.Probability {
				continue
			}
		}
		in.fires[ri]++
		f := Fault{Point: p, Detail: detail, Kind: r.Kind, Hit: hit, Rule: ri}
		in.fired = append(in.fired, f)
		in.Trace.Instant(obs.CatFault, "fault.injected", "",
			obs.S("point", string(p)), obs.S("kind", string(r.Kind)),
			obs.S("detail", detail), obs.I("seed", in.seed))
		return f, true
	}
	return Fault{}, false
}

// Check evaluates one hit of a meterless point: a KindPanic fault panics
// with an *InjectedPanic, every other kind returns an *InjectedError
// (KindStall degrades to an error where there is no budget to exhaust).
// A nil injector always returns nil.
func (in *Injector) Check(p Point, detail string) error {
	f, ok := in.roll(p, detail)
	if !ok {
		return nil
	}
	if f.Kind == KindPanic {
		panic(&InjectedPanic{Fault: f})
	}
	return &InjectedError{Fault: f, Stalled: f.Kind == KindStall}
}

// WatchdogProbe adapts an injector into the anomaly watchdog's seed
// probe (obs.Watchdog.SetSeedProbe): each observed signal rolls one hit
// on PointWatchdog. Panic kinds propagate out of Check and are contained
// by the watchdog itself — that containment is part of the point's
// contract and is what the chaos campaign verifies.
func WatchdogProbe(in *Injector) func(detail string) error {
	return func(detail string) error { return in.Check(PointWatchdog, detail) }
}

// Fired returns a copy of every fault fired so far, in order.
func (in *Injector) Fired() []Fault {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make([]Fault, len(in.fired))
	copy(out, in.fired)
	return out
}

// FiredCount returns how many faults have fired.
func (in *Injector) FiredCount() int {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return len(in.fired)
}

// CompileCtx travels down one compilation attempt: the engine's fault
// injector (may be nil), the attempt's step-budget meter (may be nil),
// and the engine's tracer (may be nil). A nil *CompileCtx is valid and
// free — packages on the compile path call Step and Span unconditionally
// and pay nothing when no supervisor or tracer is present.
type CompileCtx struct {
	Inj   *Injector
	Meter *Meter
	Func  string      // function being compiled (diagnostics)
	Trace *obs.Tracer // nil = tracing disabled
}

// Tracer returns the attempt's tracer; nil-safe.
func (c *CompileCtx) Tracer() *obs.Tracer {
	if c == nil {
		return nil
	}
	return c.Trace
}

// Span opens a span on the attempt's tracer. On a nil context or nil
// tracer it returns the inert zero span — the disabled fast path.
func (c *CompileCtx) Span(cat, name string) obs.Span {
	if c == nil {
		return obs.Span{}
	}
	return c.Trace.Begin(cat, name, c.Func)
}

// Step charges cost compile steps and evaluates one hit of the injection
// point: budget exhaustion and KindError faults return errors, KindPanic
// faults panic, KindStall faults exhaust the budget and return a stalled
// injected error.
func (c *CompileCtx) Step(p Point, detail string, cost int64) error {
	if c == nil {
		return nil
	}
	if err := c.Meter.Charge(cost); err != nil {
		return err
	}
	f, ok := c.Inj.roll(p, detail)
	if !ok {
		return nil
	}
	switch f.Kind {
	case KindPanic:
		panic(&InjectedPanic{Fault: f})
	case KindStall:
		c.Meter.Exhaust()
		return &InjectedError{Fault: f, Stalled: true}
	default:
		return &InjectedError{Fault: f}
	}
}

// Plan is a reproducible fault schedule: a seed plus rules. Its JSON form
// is what the chaos CLI writes as a failure reproducer.
type Plan struct {
	Seed  int64  `json:"seed"`
	Rules []Rule `json:"rules"`
}

// Injector builds a fresh injector for the plan. Each call returns an
// independent injector with the same deterministic behavior.
func (p Plan) Injector() *Injector { return NewInjector(p.Seed, p.Rules...) }

// String renders the plan compactly for reports.
func (p Plan) String() string {
	parts := make([]string, len(p.Rules))
	for i, r := range p.Rules {
		parts[i] = r.String()
	}
	return fmt.Sprintf("seed=%d rules=[%s]", p.Seed, strings.Join(parts, ", "))
}

// RandomPlan derives a randomized schedule of 1..maxRules rules over the
// given points, deterministically from seed. Probabilities, offsets and
// caps are drawn from small sets that keep schedules both aggressive
// (faults actually fire) and varied (not every compile dies).
func RandomPlan(seed int64, maxRules int, points []Point) Plan {
	if maxRules < 1 {
		maxRules = 1
	}
	if len(points) == 0 {
		points = CompilePoints()
	}
	state := uint64(seed)*0x9e3779b97f4a7c15 + 0x6a09e667f3bcc909
	next := func(n int) int { return int(splitmix64(&state) % uint64(n)) }
	kinds := Kinds()
	probs := []float64{1, 1, 0.5, 0.25, 0.1}
	n := 1 + next(maxRules)
	rules := make([]Rule, n)
	for i := range rules {
		rules[i] = Rule{
			Point:       points[next(len(points))],
			Kind:        kinds[next(len(kinds))],
			Probability: probs[next(len(probs))],
			AfterHits:   next(4),
			Times:       next(3), // 0 = unlimited
		}
	}
	return Plan{Seed: seed, Rules: rules}
}
