// Package difftest is the correctness backstop of the jitbull reproduction:
// a differential-execution oracle that runs one nanojs program under a
// matrix of engine configurations — interpreter-only, JIT on with nothing
// hot enough to compile, full JIT, full JIT with per-pass IR verification, full JIT under the JITBULL
// policy, per-pass ablations, and source-transformed variants — and asserts
// that every configuration observes the same behavior.
//
// Against the interpreter the observation model captures only *semantics*:
// the top-level result value, the `result` global every corpus program
// maintains, printed output, and the error/crash/hijack outcome. Tier and
// bailout statistics differ across configurations by design and are carried
// for diagnostics only.
//
// Two cells that differ only in which executor runs the compiled code
// (machine code, the fused switch, the unfused switch) owe each other
// more: the same number of VM steps and the same policy verdicts — and,
// when both executors check the budget once per block (machine code and
// the fused switch), the same number of those checks. Such a cell names
// the other as its twin (Config.Twin) and Diff compares those fields
// against the twin, on top of the semantic fields against the
// interpreter.
package difftest

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"

	"github.com/jitbull/jitbull/internal/core"
	"github.com/jitbull/jitbull/internal/engine"
	"github.com/jitbull/jitbull/internal/interp"
	"github.com/jitbull/jitbull/internal/jitqueue"
	"github.com/jitbull/jitbull/internal/passes"
	"github.com/jitbull/jitbull/internal/variants"
	"github.com/jitbull/jitbull/internal/vulndb"
)

// Observation is the externally visible behavior of one engine run.
type Observation struct {
	SetupErr string // parse/compile failure (the run never started)
	Result   string // rendered value of the top-level run
	ResultG  string // rendered value of the global `result`
	Output   string // accumulated print output
	ErrKind  string // "", "budget", "crash", "hijack", "runtime"
	ErrMsg   string // full error text (identifier-bearing; see Config.LossyNames)
	Hijacked bool
	Crashed  bool

	// Steps is VM.Steps() after the run. It is compared, together with the
	// verdict triple of Stats, against the cell's twin only: tiers charge
	// steps differently by design, executors of one tier may not.
	Steps int64
	// Checks is the engine's native.block_budget_checks: the budget checks
	// the block-checking executors (machine code, fused) made. Compared
	// against a twin with the same NoFuse setting only; the unfused switch
	// checks per op and counts none.
	Checks int64
	// Stats is diagnostics, except NrJIT/NrDisJIT/NrNoJIT (see Steps).
	Stats    engine.Stats
	IRFaults []string // CheckIR verifier rejections (offending pass named)
}

// verdicts renders the policy-verdict triple the twin comparison checks.
func (o Observation) verdicts() string {
	return fmt.Sprintf("jit=%d disjit=%d nojit=%d", o.Stats.NrJIT, o.Stats.NrDisJIT, o.Stats.NrNoJIT)
}

// Config is one cell of the execution matrix.
type Config struct {
	Name string
	// Transform optionally rewrites the source before running (variant
	// configurations: rename, minify).
	Transform func(src string) (string, error)
	// LossyNames marks configurations whose source transform renames
	// identifiers, losing every identifier-keyed observation: error
	// messages (they quote identifiers) and the `result` global (it no
	// longer exists under that name). Only the error kind is compared.
	LossyNames bool
	// Engine is the engine configuration (Out is overridden per run).
	Engine engine.Config
	// Policy optionally builds a fresh JITBULL policy for the run.
	Policy func() engine.Policy
	// Prewarm runs the program once in a throwaway engine (same
	// configuration, discarded output) before the observed run, so
	// shared-cache configurations observe warm-hit behavior: the run under
	// test installs artifacts and replays verdicts from the cache instead
	// of compiling. Warm cells must still diverge in nothing.
	Prewarm bool
	// Twin names the cell that differs from this one only in the executor
	// that runs compiled code (NoMC, NoFuse). Same thresholds, same
	// pipeline and same policy mean the same functions compile at the same
	// moments, so the two must agree on Steps and on every verdict; Diff
	// checks that when the twin is part of the matrix. Async and cached
	// cells have no twin: install timing legitimately moves steps.
	Twin string
}

// The tier-up threshold and step budget of every harness engine: an Ion
// threshold far below the production 1500, so short test programs still
// tier up, and a step budget ample for every corpus program.
const (
	ionThreshold = 30
	maxSteps     = 200_000_000
)

// Options bounds a Matrix.
type Options struct {
	// MaxSteps per run (default maxSteps).
	MaxSteps int64
	// Bugs makes every JIT configuration compile with the injected
	// vulnerabilities active (used to seed deliberate divergences).
	Bugs passes.BugSet
	// Ablate lists passes to disable one at a time (default: the passes
	// whose unsoundness classes the paper's CVEs live in). Each entry adds
	// one configuration.
	Ablate []string
	// JITBULL adds a configuration protected by a 4-VDC detector.
	JITBULL bool
	// Variants adds renamed and minified source-transform configurations.
	Variants bool
	// CheckIR adds a configuration that runs the SSA verifier after every
	// optimization pass.
	CheckIR bool
	// Async adds off-thread-compilation and shared-cache configurations:
	// jit+async (background tier-up through the process-wide queue),
	// jit+cached and jit+async+cached (shared cross-engine code cache,
	// prewarmed so the observed run hits), and — with JITBULL — the same
	// under the policy, exercising verdict replay. Async tier-up may change
	// *when* a function tiers, never what it computes or which verdict it
	// gets, so all cells must stay at zero divergence.
	Async bool
	// Fusion adds the superinstruction-tier contrast cells. Fusion is on by
	// default, so the plain jit cells already execute fused code; these
	// cells run with NoFuse set — jit+nofuse, jit+nofuse+jitbull (with
	// JITBULL), and jit+nofuse+cached (with Async, sharing the cached
	// cells' cache so the NoFuse cache-key byte is what keeps fused and
	// unfused artifacts apart). Fusion changes dispatch, never semantics,
	// so every cell must stay at zero divergence.
	Fusion bool
	// MC adds the machine-code-tier contrast cells. On supported platforms
	// the tier is on by default, so the plain jit cells already execute
	// real machine code; these cells run with NoMC set — jit+nomc (fused
	// threaded top tier), jit+nomc+nofuse (the unfused switch loop),
	// jit+nomc+jitbull (with JITBULL), jit+nomc+osr+deopt (with OSR: both
	// tier transitions against the threaded tiers), and jit+nomc+cached
	// (with Async, sharing the cached cells' cache so the machine-code
	// arch byte in the cache key is what keeps mc-tier and threaded-tier
	// verdict replays apart). Machine code changes instruction dispatch,
	// never semantics, so every cell must stay at zero divergence. On
	// platforms without the tier the cells degenerate to duplicates of
	// their NoMC-free counterparts and still must not diverge.
	MC bool
	// OSR adds the tier-transition contrast cells: jit+osr (loop-header
	// on-stack replacement, back-edge-triggered compilation), jit+deopt
	// (type speculation with guard-based deoptimization), jit+osr+deopt
	// (both transitions in one engine), jit+osr+cached (with Async; both
	// features through the shared cache, whose key carries the OSR and
	// Speculate configuration bytes), and — with JITBULL — jit+jitbull+osr
	// and jit+jitbull+deopt. OSR changes *where* execution enters native
	// code and deopt changes where it leaves, never what either tier
	// computes, so every cell must stay at zero divergence.
	OSR bool
}

func (o Options) withDefaults() Options {
	if o.MaxSteps <= 0 {
		o.MaxSteps = maxSteps
	}
	if o.Ablate == nil {
		o.Ablate = DangerousPasses()
	}
	return o
}

// DangerousPasses returns the disableable passes whose mis-optimization
// classes the paper's CVEs exercise — the ablations worth a matrix cell.
func DangerousPasses() []string {
	return []string{
		"GVN", "LICM", "BoundsCheckElimination", "RangeAnalysis",
		"Sink", "FoldTests", "ScalarReplacement",
	}
}

// jitbullDB lazily builds the 4-VDC database once per process; extraction
// replays four exploit demonstrators and is too slow to repeat per run.
var jitbullDB = sync.OnceValues(func() (*core.Database, error) {
	db, _, err := vulndb.BuildDB(4, 100)
	return db, err
})

// jitbullPolicy builds a fresh detector over the shared database. Fresh
// detectors share the database pointer, so their PolicyCacheKey is stable
// across runs — exactly the sharing unit of a production fleet.
func jitbullPolicy() engine.Policy {
	db, err := jitbullDB()
	if err != nil {
		panic(fmt.Sprintf("difftest: building JITBULL DB: %v", err))
	}
	return core.NewDetector(db)
}

// sharedQueue is the process-lifetime background-compilation service the
// async cells share; like a browser's helper threads it is never torn
// down, so per-Matrix cells can enqueue against it freely.
var sharedQueue = sync.OnceValue(func() *jitqueue.Queue {
	return jitqueue.New(0, jitqueue.DefaultCapacity, nil)
})

// Matrix returns the configuration matrix for the given options. The first
// configuration is always the interpreter — the semantics reference.
func Matrix(o Options) []Config {
	o = o.withDefaults()
	base := engine.Config{
		IonThreshold: ionThreshold,
		MaxSteps:     o.MaxSteps,
		Bugs:         o.Bugs,
	}
	interp := base
	interp.DisableJIT = true
	// JIT on, no function ever compiles: the engine's interpreted path
	// (profiling, warm-up counting) with the JIT enabled.
	cold := base
	cold.IonThreshold = 1 << 30

	cfgs := []Config{
		{Name: "interp", Engine: interp},
		{Name: "jit-cold", Engine: cold},
		{Name: "jit", Engine: base},
	}
	if o.CheckIR {
		checked := base
		checked.CheckIR = true
		cfgs = append(cfgs, Config{Name: "jit+checkir", Engine: checked})
	}
	if o.JITBULL {
		cfgs = append(cfgs, Config{Name: "jit+jitbull", Engine: base, Policy: jitbullPolicy})
	}
	for _, pass := range o.Ablate {
		ablated := base
		ablated.DisabledPasses = []string{pass}
		cfgs = append(cfgs, Config{Name: "jit-no-" + pass, Engine: ablated})
	}
	if o.Variants {
		cfgs = append(cfgs,
			Config{Name: "jit+renamed", Engine: base, Transform: variants.Rename, LossyNames: true},
			Config{Name: "jit+minified", Engine: base, Transform: variants.Minify, LossyNames: true},
		)
	}
	// One cache per Matrix call, shared across every cached cell and —
	// when the matrix is reused over many programs — across programs,
	// which is precisely the cross-program key-soundness the canonical
	// hash must guarantee. Policy/policy-free and fused/unfused entries
	// never collide: the key covers the policy's cache key and the NoFuse
	// configuration byte.
	var cache *jitqueue.Cache
	if o.Async {
		cache = jitqueue.NewCache(nil)
		async := base
		async.Queue = sharedQueue()
		cfgs = append(cfgs, Config{Name: "jit+async", Engine: async})
		cached := base
		cached.Cache = cache
		cfgs = append(cfgs, Config{Name: "jit+cached", Engine: cached, Prewarm: true})
		both := async
		both.Cache = cache
		cfgs = append(cfgs, Config{Name: "jit+async+cached", Engine: both, Prewarm: true})
		if o.JITBULL {
			cfgs = append(cfgs,
				Config{Name: "jit+jitbull+async", Engine: async, Policy: jitbullPolicy},
				Config{Name: "jit+jitbull+cached", Engine: cached, Policy: jitbullPolicy, Prewarm: true},
			)
		}
	}
	if o.Fusion {
		nofuse := base
		nofuse.NoFuse = true
		cfgs = append(cfgs, Config{Name: "jit+nofuse", Engine: nofuse, Twin: "jit"})
		if o.JITBULL {
			cfgs = append(cfgs, Config{Name: "jit+nofuse+jitbull", Engine: nofuse, Policy: jitbullPolicy, Twin: "jit+jitbull"})
		}
		if cache != nil {
			nfCached := nofuse
			nfCached.Cache = cache
			cfgs = append(cfgs, Config{Name: "jit+nofuse+cached", Engine: nfCached, Prewarm: true})
		}
	}
	if o.OSR {
		osr := base
		osr.OSR = true
		cfgs = append(cfgs, Config{Name: "jit+osr", Engine: osr})
		deopt := base
		deopt.Speculate = true
		cfgs = append(cfgs, Config{Name: "jit+deopt", Engine: deopt})
		both := base
		both.OSR = true
		both.Speculate = true
		cfgs = append(cfgs, Config{Name: "jit+osr+deopt", Engine: both})
		if cache != nil {
			// Both features on through the cache shared with the plain
			// cached cells: the OSR and Speculate cache-key bytes are what
			// keep a marker-free artifact from being installed into an
			// engine that expects OSR entries (and vice versa).
			osrCached := both
			osrCached.Cache = cache
			cfgs = append(cfgs, Config{Name: "jit+osr+cached", Engine: osrCached, Prewarm: true})
		}
		if o.JITBULL {
			cfgs = append(cfgs,
				Config{Name: "jit+jitbull+osr", Engine: osr, Policy: jitbullPolicy},
				Config{Name: "jit+jitbull+deopt", Engine: deopt, Policy: jitbullPolicy},
			)
		}
	}
	if o.MC {
		nomc := base
		nomc.NoMC = true
		cfgs = append(cfgs, Config{Name: "jit+nomc", Engine: nomc, Twin: "jit"})
		nomcNofuse := nomc
		nomcNofuse.NoFuse = true
		cfgs = append(cfgs, Config{Name: "jit+nomc+nofuse", Engine: nomcNofuse, Twin: "jit"})
		if o.JITBULL {
			cfgs = append(cfgs, Config{Name: "jit+nomc+jitbull", Engine: nomc, Policy: jitbullPolicy, Twin: "jit+jitbull"})
		}
		if o.OSR {
			nomcBoth := nomc
			nomcBoth.OSR = true
			nomcBoth.Speculate = true
			cfgs = append(cfgs, Config{Name: "jit+nomc+osr+deopt", Engine: nomcBoth, Twin: "jit+osr+deopt"})
		}
		if cache != nil {
			nomcCached := nomc
			nomcCached.Cache = cache
			cfgs = append(cfgs, Config{Name: "jit+nomc+cached", Engine: nomcCached, Prewarm: true})
		}
	}
	return cfgs
}

// Observe runs src under one configuration and captures its behavior.
func Observe(src string, c Config) Observation {
	var obs Observation
	if c.Transform != nil {
		transformed, err := c.Transform(src)
		if err != nil {
			obs.SetupErr = err.Error()
			return obs
		}
		src = transformed
	}
	if c.Prewarm {
		// Warm the shared cache with a throwaway run; its behavior is
		// judged only through the observed run that follows.
		var discard bytes.Buffer
		pcfg := c.Engine
		pcfg.Out = &discard
		if pe, err := engine.New(src, pcfg); err == nil {
			if c.Policy != nil {
				pe.SetPolicy(c.Policy())
			}
			_, _ = pe.Run()
		}
	}
	var out bytes.Buffer
	ecfg := c.Engine
	ecfg.Out = &out
	ecfg.OnCompileError = func(fn string, err error) {
		var ir *passes.IRError
		if errors.As(err, &ir) {
			obs.IRFaults = append(obs.IRFaults, ir.Error())
		}
	}
	e, err := engine.New(src, ecfg)
	if err != nil {
		obs.SetupErr = err.Error()
		return obs
	}
	if c.Policy != nil {
		e.SetPolicy(c.Policy())
	}
	v, runErr := e.Run()
	obs.Result = v.ToString()
	obs.ResultG = e.Global("result").ToString()
	obs.Output = out.String()
	obs.Hijacked = e.Hijacked() != nil
	obs.Crashed = e.Arena().Crashed() != nil
	obs.Steps = e.VM.Steps()
	obs.Checks = e.MetricsSink().Counter("native.block_budget_checks").Value()
	obs.Stats = e.Stats()
	if runErr != nil {
		obs.ErrMsg = runErr.Error()
		switch {
		case engine.IsHijack(runErr):
			obs.ErrKind = "hijack"
		case engine.IsCrash(runErr):
			obs.ErrKind = "crash"
		case errors.Is(runErr, interp.ErrBudget):
			obs.ErrKind = "budget"
		default:
			obs.ErrKind = "runtime"
		}
	}
	return obs
}

// Divergence is one observed disagreement between a configuration and the
// configuration it is held to: the reference for the semantic fields, the
// twin for steps, verdicts and block checks.
type Divergence struct {
	Config string // diverging configuration
	Ref    string // configuration it was compared against
	Field  string // which observation field disagreed
	Got    string // value under Config
	Want   string // value under Ref
}

// String renders the divergence for reports.
func (d Divergence) String() string {
	return fmt.Sprintf("%s vs %s: %s = %q, want %q", d.Config, d.Ref, d.Field, d.Got, d.Want)
}

// compare returns the divergences of obs against the reference observation.
func compare(c Config, obs, ref Observation, refName string) []Divergence {
	var divs []Divergence
	add := func(field, got, want string) {
		if got != want {
			divs = append(divs, Divergence{Config: c.Name, Ref: refName, Field: field, Got: got, Want: want})
		}
	}
	add("setup-error", obs.SetupErr, ref.SetupErr)
	if obs.SetupErr != "" || ref.SetupErr != "" {
		return divs // nothing ran; the remaining fields are vacuous
	}
	add("result", obs.Result, ref.Result)
	add("output", obs.Output, ref.Output)
	add("error-kind", obs.ErrKind, ref.ErrKind)
	if !c.LossyNames {
		add("result-global", obs.ResultG, ref.ResultG)
		add("error-message", obs.ErrMsg, ref.ErrMsg)
	}
	add("hijacked", fmt.Sprint(obs.Hijacked), fmt.Sprint(ref.Hijacked))
	add("crashed", fmt.Sprint(obs.Crashed), fmt.Sprint(ref.Crashed))
	for _, fault := range obs.IRFaults {
		divs = append(divs, Divergence{Config: c.Name, Ref: refName, Field: "ir-verify", Got: fault})
	}
	return divs
}

// compareTwin returns the steps/verdicts divergences of obs against its
// twin's observation, and the block-check divergence when both cells run
// block-checking executors (the same NoFuse). Runs that end in an error are
// held to the same standard: the executors charge steps identically up to
// a runtime error and exhaust the step budget at the same count.
func compareTwin(c Config, obs Observation, tc Config, twin Observation) []Divergence {
	var divs []Divergence
	if obs.Steps != twin.Steps {
		divs = append(divs, Divergence{Config: c.Name, Ref: c.Twin, Field: "steps",
			Got: fmt.Sprint(obs.Steps), Want: fmt.Sprint(twin.Steps)})
	}
	if c.Engine.NoFuse == tc.Engine.NoFuse && obs.Checks != twin.Checks {
		divs = append(divs, Divergence{Config: c.Name, Ref: c.Twin, Field: "checks",
			Got: fmt.Sprint(obs.Checks), Want: fmt.Sprint(twin.Checks)})
	}
	if got, want := obs.verdicts(), twin.verdicts(); got != want {
		divs = append(divs, Divergence{Config: c.Name, Ref: c.Twin, Field: "verdicts", Got: got, Want: want})
	}
	return divs
}

// Diff runs src under every configuration (configs[0] is the reference) and
// returns the per-config observations plus all divergences.
func Diff(src string, configs []Config) ([]Observation, []Divergence) {
	obs := make([]Observation, len(configs))
	for i, c := range configs {
		obs[i] = Observe(src, c)
	}
	return obs, divergences(configs, obs)
}

// divergences judges one observation per configuration: every cell
// against configs[0] on the semantic fields, and every cell whose twin is
// in configs against that twin on steps, verdicts and block checks.
func divergences(configs []Config, obs []Observation) []Divergence {
	byName := make(map[string]int, len(configs))
	for i, c := range configs {
		byName[c.Name] = i
	}
	var divs []Divergence
	for i := 1; i < len(configs); i++ {
		divs = append(divs, compare(configs[i], obs[i], obs[0], configs[0].Name)...)
		if t, ok := byName[configs[i].Twin]; ok {
			divs = append(divs, compareTwin(configs[i], obs[i], configs[t], obs[t])...)
		}
	}
	return divs
}

// Report renders a divergence list (one per line) with a program label.
func Report(label string, divs []Divergence) string {
	if len(divs) == 0 {
		return fmt.Sprintf("%s: no divergences", label)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s: %d divergence(s)\n", label, len(divs))
	for _, d := range divs {
		fmt.Fprintf(&sb, "  %s\n", d)
	}
	return sb.String()
}
