package main

// One script load: build a fresh engine for the program, run it, observe
// what a user would observe, and check it against the reference. The
// untraced path calls engine.New exactly as an embedder does; the traced
// path makes the same calls engine.New makes, one by one, with a span
// around each layer boundary.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"github.com/jitbull/jitbull/internal/compiler"
	"github.com/jitbull/jitbull/internal/core"
	"github.com/jitbull/jitbull/internal/engine"
	"github.com/jitbull/jitbull/internal/lexer"
	"github.com/jitbull/jitbull/internal/obs"
	"github.com/jitbull/jitbull/internal/parser"
)

// Engine-side counts of one run, read from Engine.Stats(), VM.Steps() and
// the engine's always-on histograms. They are summed per pass and must
// repeat exactly (see -selfcheck); a shift explains a run_s shift on the
// same workload before any timing is read.
const (
	tSteps = iota
	tCompiles
	tRecompiles
	tNrJIT
	tNrDisJIT
	tNrNoJIT
	tBailouts
	tOSREntries
	tDeoptExits
	tCompileErrors
	tTierMC
	tTierFused
	tTierSwitch
	tMatches
	tCacheHits
	tCacheMisses
	tCompileNs // sum of the compile.ns histogram
	tCompileN
	tOSREntryNs // sum of the osr.entry_ns histogram
	tOSREntryN
	tDeltaChains // sum of dna.delta_chains (traced runs only)
	tIndexProbes // sum of dna.index_probes (traced runs only)
	nTally
)

type tally [nTally]int64

func (t *tally) add(o *tally) {
	for i := range t {
		t[i] += o[i]
	}
}

// outcome is what one run produced.
type outcome struct {
	wall      time.Duration
	got       expect
	exploited bool
	counts    tally
	// err is a failure to run at all (parse error, panic); such a run is
	// counted failed and the pass continues.
	err error
}

// runProgram runs p once on a fresh engine. With a ledger the run is
// traced; nil is the untraced path all end-to-end metrics use.
func runProgram(p *program, l *ledger) (o outcome) {
	defer func() {
		if r := recover(); r != nil {
			o.err = fmt.Errorf("panic: %v", r)
			l.unwind()
		}
	}()
	digest := sha256.New()
	cfg := p.cfg
	cfg.Out = digest
	var det *core.Detector
	if p.db != nil {
		det = core.NewDetector(p.db)
	}

	start := time.Now()
	root := l.begin(spRun)
	var e *engine.Engine
	var err error
	if l == nil {
		if e, err = engine.New(p.src, cfg); err == nil && det != nil {
			e.SetPolicy(det)
		}
	} else {
		e, err = l.newEngine(p.src, cfg, det)
	}
	if err != nil {
		l.unwind()
		return outcome{err: err}
	}
	sp := l.begin(spExec)
	_, runErr := e.Run()
	l.end(sp)
	l.end(root)
	o.wall = time.Since(start)

	o.got.Result = e.Global("result").ToString()
	o.got.OutputSHA = hex.EncodeToString(digest.Sum(nil))
	if runErr != nil {
		o.got.Error = runErr.Error()
	}
	o.exploited = engine.IsHijack(runErr) || e.Hijacked() != nil ||
		engine.IsCrash(runErr) || e.Arena().Crashed() != nil

	st := e.Stats()
	switch {
	case st.NrNoJIT > 0:
		o.got.Verdict = "nojit"
	case st.NrDisJIT > 0:
		o.got.Verdict = "disable-pass"
	default:
		o.got.Verdict = "go"
	}
	sink := e.MetricsSink()
	hc := sink.Histogram("compile.ns", obs.LatencyBucketsNs)
	ho := sink.Histogram("osr.entry_ns", obs.LatencyBucketsNs)
	o.counts = tally{
		tSteps: e.VM.Steps(), tCompiles: int64(st.Compiles), tRecompiles: int64(st.Recompiles),
		tNrJIT: int64(st.NrJIT), tNrDisJIT: int64(st.NrDisJIT), tNrNoJIT: int64(st.NrNoJIT),
		tBailouts: int64(st.Bailouts), tOSREntries: int64(st.OSREntries), tDeoptExits: int64(st.DeoptExits),
		tCompileErrors: int64(st.CompileErrors),
		tTierMC:        int64(st.TierMC), tTierFused: int64(st.TierFused), tTierSwitch: int64(st.TierSwitch),
		tCacheHits: int64(st.CacheHits), tCacheMisses: int64(st.CacheMisses),
		tCompileNs: hc.Sum(), tCompileN: hc.Count(), tOSREntryNs: ho.Sum(), tOSREntryN: ho.Count(),
	}
	if det != nil {
		o.counts[tMatches] = int64(len(det.Matches))
		if l != nil {
			o.counts[tDeltaChains] = sink.Histogram("dna.delta_chains", obs.SizeBuckets).Sum()
			o.counts[tIndexProbes] = sink.Histogram("dna.index_probes", obs.SizeBuckets).Sum()
		}
	}
	return o
}

// newEngine is engine.New taken apart: the same parser, compiler and
// NewFromProgram calls with a span around each, the optimization pipeline
// and the policy replaced by their timed wrappers, and one extra lexer run
// whose only purpose is to separate lexing from the parser's own time.
func (l *ledger) newEngine(src string, cfg engine.Config, det *core.Detector) (*engine.Engine, error) {
	sp := l.begin(spLex)
	toks := lexer.New(src).All()
	l.end(sp)
	l.c[cTokens] += int64(len(toks))

	sp = l.begin(spParse)
	astProg, err := parser.Parse(src)
	l.end(sp)
	if err != nil {
		return nil, err
	}
	l.c[cFuncs] += int64(len(astProg.Funcs()))

	sp = l.begin(spCompile)
	prog, err := compiler.CompileProgram(astProg)
	l.end(sp)
	if err != nil {
		return nil, err
	}
	prog.Source = src
	for _, fn := range prog.Funcs {
		l.c[cBytecodeOps] += int64(len(fn.Code))
	}

	cfg.Passes = l.pipeline()
	sp = l.begin(spNew)
	e, err := engine.NewFromProgram(prog, astProg, cfg)
	l.end(sp)
	if err != nil {
		return nil, err
	}
	if det != nil {
		det.Metrics = e.MetricsSink()
		e.SetPolicy(&timedPolicy{inner: det, l: l})
	}
	return e, nil
}

// check compares a run with its reference and returns the reason it
// failed, or "".
func check(p *program, o *outcome) string {
	switch {
	case o.err != nil:
		return o.err.Error()
	case o.got.Error != p.want.Error:
		return fmt.Sprintf("error %q, want %q", o.got.Error, p.want.Error)
	case o.got.Result != p.want.Result:
		return fmt.Sprintf("result %q, want %q", o.got.Result, p.want.Result)
	case o.got.OutputSHA != p.want.OutputSHA:
		return "print output differs from the reference"
	case o.exploited:
		return "exploited"
	case p.vuln && o.counts[tMatches] == 0:
		return "demonstrator ran with zero DNA matches"
	case p.vuln && o.got.Verdict != p.want.Verdict:
		return fmt.Sprintf("verdict %q, want %q", o.got.Verdict, p.want.Verdict)
	}
	return ""
}
