// Package passes implements the MIR optimization pipeline of the jitbull
// optimizing tier, modeled on IonMonkey's OptimizeMIR: an ordered sequence
// of passes over the SSA graph, each of which can be observed (for JITBULL
// DNA extraction) and individually disabled (the go/no-go policy), except
// for a few mandatory passes.
//
// The package also hosts the *injected vulnerabilities*: deliberate
// mis-optimizations, each gated by a CVE identifier, reproducing the root
// cause classes of the real IonMonkey bugs the paper evaluates (bad alias
// dependencies, over-eager guard elimination, wrong range widening, unsound
// hoisting/sinking). With an empty BugSet the pipeline is sound.
package passes

import (
	"fmt"
	"time"

	"github.com/jitbull/jitbull/internal/faults"
	"github.com/jitbull/jitbull/internal/mir"
	"github.com/jitbull/jitbull/internal/obs"
)

// CVE identifiers for the injected bugs. See DESIGN.md §2.2 for the mapping
// to the real vulnerabilities.
const (
	CVE201717026 = "CVE-2019-17026" // GVN: length congruence ignores the object
	CVE20199810  = "CVE-2019-9810"  // GVN: same root flaw, read-side trigger
	CVE201911707 = "CVE-2019-11707" // FoldTests/BCE: dominating-test matching ignores memory deps
	CVE20199791  = "CVE-2019-9791"  // ApplyTypes: monomorphic unbox guard removed
	CVE20199792  = "CVE-2019-9792"  // Sink: cross-branch sink leaks magic value
	CVE20199795  = "CVE-2019-9795"  // AliasAnalysis: setlength miscategorized
	CVE20199813  = "CVE-2019-9813"  // RangeAnalysis: <= widened as <
	CVE202026952 = "CVE-2020-26952" // LICM: calls ignored when hoisting loads
)

// AllCVEs lists every injectable bug id in a stable order.
var AllCVEs = []string{
	CVE201717026, CVE20199810, CVE201911707, CVE20199791,
	CVE20199792, CVE20199795, CVE20199813, CVE202026952,
}

// BugSet is the set of injected vulnerabilities active in this build of the
// engine (the "vulnerability window").
type BugSet map[string]bool

// Has reports whether the bug is active.
func (s BugSet) Has(id string) bool { return s[id] }

// Range is an integer-ish interval with an optional symbolic upper bound:
// value <= Sym + SymOff when Sym is set. Used by range analysis and
// consumed by bounds check elimination.
type Range struct {
	Lo, Hi   float64 // -Inf/+Inf when unknown
	Sym      *mir.Instr
	SymOff   float64
	NonNaN   bool
	Integral bool
}

// Context carries cross-pass state for one OptimizeMIR run.
type Context struct {
	Bugs   BugSet
	Ranges map[*mir.Instr]Range
}

// Pass is one optimization pass.
type Pass interface {
	// Name is the stable pass name used in JITBULL DNA vectors.
	Name() string
	// Disableable reports whether the JIT can compile without this pass.
	Disableable() bool
	// Run mutates the graph in place.
	Run(g *mir.Graph, ctx *Context) error
}

// Pipeline returns the ordered pass list (fresh instances).
func Pipeline() []Pass {
	return []Pass{
		renumberPass{name: "RenumberInstructions"},
		pruneBranchesPass{},
		foldTestsPass{},
		splitEdgesPass{},
		phiAnalysisPass{},
		applyTypesPass{},
		typeSpeculationPass{},
		aliasAnalysisPass{},
		gvnPass{},
		licmPass{},
		rangeAnalysisPass{},
		bcePass{},
		foldArithPass{},
		edgeCasePass{},
		effAddrPass{},
		sinkPass{},
		bitopsPass{},
		scalarReplPass{},
		dcePass{},
		emptyBlocksPass{},
		reorderPass{},
		keepAlivePass{},
		renumberPass{name: "RenumberInstructionsFinal"},
	}
}

// PassNames returns the pipeline's pass names in order.
func PassNames() []string {
	pl := Pipeline()
	names := make([]string, len(pl))
	for i, p := range pl {
		names[i] = p.Name()
	}
	return names
}

// Disableable reports whether the named pass can be disabled. Unknown names
// report false.
func Disableable(name string) bool {
	for _, p := range Pipeline() {
		if p.Name() == name {
			return p.Disableable()
		}
	}
	return false
}

// Observer is called around each executed pass with IR snapshots; install
// one to extract JIT DNA. before/after are nil for skipped (disabled)
// passes.
type Observer func(passIndex int, passName string, before, after *mir.Snapshot)

// IRError reports that the SSA verifier rejected the graph at a pass
// boundary, attributing the breakage to the pass that just ran.
type IRError struct {
	Func   string   // function being compiled
	Pass   string   // pass after which verification failed ("" = input graph)
	Issues []string // the verifier's findings
}

// Error implements the error interface.
func (e *IRError) Error() string {
	where := e.Pass
	if where == "" {
		where = "<input graph>"
	}
	return fmt.Sprintf("IR verification failed for %s after pass %s: %v", e.Func, where, e.Issues)
}

// RunOptions parameterizes RunWith.
type RunOptions struct {
	// Bugs selects the injected vulnerabilities active in this build.
	Bugs BugSet
	// Disabled names passes to skip (mandatory passes cannot be skipped and
	// cause an error when asked to).
	Disabled map[string]bool
	// Observer, when non-nil, receives a snapshot pair per executed pass.
	Observer Observer
	// Watch, when non-nil, narrows the Observer to the passes it reports
	// true for: no other pass is observed or snapshotted. A watched pass
	// is snapshotted after it runs, and before it when the graph changed
	// since the last snapshot (its predecessor ran unwatched). A disabled
	// watched pass is still reported, as (nil, nil).
	Watch func(pass string) bool
	// CheckIR runs the full SSA verifier after every executed pass (and
	// once on the input graph), returning an *IRError naming the offending
	// pass on the first violation. Intended for tests and fuzzing; the
	// normal path verifies once at the end of the pipeline.
	CheckIR bool
	// Pipeline overrides the pass list (nil = the standard Pipeline()).
	// Used by tests to inject deliberately broken passes and prove the
	// verifier attributes them.
	Pipeline []Pass
	// Faults is the compile supervisor's context: a step-budget meter
	// charged per executed pass (proportionally to the graph size) plus
	// the fault-injection point evaluated before each pass. It also carries
	// the tracer, which records one span per executed pass (with
	// input/output instruction counts) and one DNA-extraction span per
	// observed pass. Nil is valid and free — the unsupervised path pays
	// nothing.
	Faults *faults.CompileCtx
	// Metrics, when non-nil, receives per-pass latencies into the
	// "compile.pass_ns" histogram.
	Metrics *obs.Registry
}

// Run executes the standard pipeline over g. Disabled names passes are
// skipped (mandatory passes cannot be skipped and return an error if asked
// to). The observer, when non-nil, receives a snapshot pair per executed
// pass; when nil, no snapshots are taken at all, making the instrumented
// path zero-cost exactly as the paper's implementation promises for an
// empty VDC database (RunOptions.Watch makes the cost follow the database
// in between).
func Run(g *mir.Graph, bugs BugSet, disabled map[string]bool, obs Observer) error {
	return RunWith(g, RunOptions{Bugs: bugs, Disabled: disabled, Observer: obs})
}

// RunWith executes the pipeline over g under the given options.
func RunWith(g *mir.Graph, o RunOptions) error {
	ctx := &Context{Bugs: o.Bugs, Ranges: map[*mir.Instr]Range{}}
	// Builds with injected vulnerabilities miscompile by producing ill-typed
	// IR on purpose; only structural SSA invariants are checkable there.
	vopts := mir.VerifyOptions{Types: len(o.Bugs) == 0}
	pipeline := o.Pipeline
	if pipeline == nil {
		pipeline = Pipeline()
	}
	if o.CheckIR {
		if issues := g.VerifyOpts(vopts); len(issues) > 0 {
			return &IRError{Func: g.Name, Issues: issues}
		}
	}
	var passHist *obs.Histogram
	if o.Metrics != nil {
		passHist = o.Metrics.Histogram("compile.pass_ns", obs.LatencyBucketsNs)
	}
	// The IR is untouched between passes, so a watched pass's "before"
	// snapshot is the previous watched pass's "after" unless an unwatched
	// pass ran in between (prev is then nil): one snapshot per watched
	// pass, plus one per run of watched passes.
	var prev *mir.Snapshot
	for i, p := range pipeline {
		watched := o.Observer != nil && (o.Watch == nil || o.Watch(p.Name()))
		if o.Disabled[p.Name()] {
			if !p.Disableable() {
				return fmt.Errorf("pass %s is mandatory and cannot be disabled", p.Name())
			}
			o.Faults.Tracer().Instant(obs.CatPass, "pass.skipped", g.Name,
				obs.S("pass", p.Name()), obs.I("index", int64(i)))
			if watched {
				o.Observer(i, p.Name(), nil, nil)
			}
			continue
		}
		instrsIn := g.InstrCount()
		if o.Faults != nil {
			if err := o.Faults.Step(faults.PointPass, p.Name(), int64(instrsIn)); err != nil {
				return fmt.Errorf("pass %s: %w", p.Name(), err)
			}
		}
		// A fresh "before" is DNA cost too. It is taken outside both spans
		// (a span around it would enclose the pass), so a traced run
		// charges its time to the pass's dna.extract span as snap_before_ns
		// (0 when the before is the previous watched pass's after).
		var snapBeforeNs int64
		if watched && prev == nil {
			var t0 time.Time
			if o.Faults.Tracer() != nil {
				t0 = time.Now()
			}
			prev = g.Snap()
			if !t0.IsZero() {
				snapBeforeNs = int64(time.Since(t0))
			}
		}
		sp := o.Faults.Span(obs.CatPass, p.Name())
		var t0 time.Time
		if passHist != nil {
			t0 = time.Now()
		}
		if err := p.Run(g, ctx); err != nil {
			sp.EndErr(err)
			return fmt.Errorf("pass %s: %w", p.Name(), err)
		}
		if passHist != nil {
			passHist.Observe(int64(time.Since(t0)))
		}
		sp.End(obs.I("index", int64(i)),
			obs.I("instrs_in", int64(instrsIn)), obs.I("instrs_out", int64(g.InstrCount())))
		if watched {
			dsp := o.Faults.Span(obs.CatDNA, "dna.extract")
			after := g.Snap()
			o.Observer(i, p.Name(), prev, after)
			prev = after
			dsp.End(obs.S("pass", p.Name()), obs.I("snap_before_ns", snapBeforeNs))
		} else {
			prev = nil
		}
		if o.CheckIR {
			if issues := g.VerifyOpts(vopts); len(issues) > 0 {
				return &IRError{Func: g.Name, Pass: p.Name(), Issues: issues}
			}
		}
	}
	if errs := g.VerifyOpts(vopts); len(errs) > 0 {
		return fmt.Errorf("pipeline produced invalid graph for %s: %v", g.Name, errs)
	}
	return nil
}

// forEachLive iterates over live instructions in reverse postorder.
func forEachLive(g *mir.Graph, fn func(b *mir.Block, in *mir.Instr)) {
	for _, b := range g.ReversePostorder() {
		for _, in := range b.Instrs {
			if !in.Dead {
				fn(b, in)
			}
		}
	}
}
