package main

// The per-layer ledger of a traced run. All timing is done here, from the
// outside, around calls into each layer's public functions: spans are kept
// in memory as {kind, parent, run, start, end} and written to
// bench/out/trace-<workload>.json when the run ends. A layer's busy time is
// its spans' self time (duration minus the child spans inside it).

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/jitbull/jitbull/internal/core"
	"github.com/jitbull/jitbull/internal/engine"
	"github.com/jitbull/jitbull/internal/mir"
	"github.com/jitbull/jitbull/internal/passes"
)

// Span kinds. Pass spans follow spPass0 in pipeline order.
const (
	spRun     = iota // one script load, root of its spans
	spLex            // lexer.New(src).All(), the extra lexing-only run
	spParse          // parser.Parse (lexes internally)
	spCompile        // compiler.CompileProgram
	spNew            // engine.NewFromProgram
	spExec           // Engine.Run: interpreter, JIT compiles, native code, bridges
	spExtract        // core: one observer callback (Δ extraction for one pass)
	spDecide         // core: finish(), the index probe and go/no-go decision
	spPass0
)

var passNames = passes.PassNames()

func spanName(kind int) string {
	if kind >= spPass0 {
		return "passes." + passNames[kind-spPass0]
	}
	return [...]string{"run", "lexer.All", "parser.Parse", "compiler.CompileProgram",
		"engine.NewFromProgram", "engine.Run", "core.extract", "core.decide"}[kind]
}

type span struct {
	kind   int32
	parent int32 // index into ledger.spans, -1 for a root
	run    int32 // script-load number, shared by all spans of one run
	start  int64 // ns since ledger.epoch
	end    int64
}

// Counts taken at the same boundaries as the spans.
const (
	cTokens = iota
	cFuncs
	cBytecodeOps
	cPassRuns
	cInstrsIn
	cInstrsOut
	cExtractCalls
	cDecideCalls
	cVerdictGo
	cVerdictDisablePass
	cVerdictNoJIT
	cApplied0 // + pass index: runs of that pass that changed InstrCount
)

type ledger struct {
	epoch time.Time
	spans []span
	stack []int32
	run   int32 // number of the current script load; begin(spRun) advances it
	c     []int64
}

func newLedger() *ledger {
	return &ledger{epoch: time.Now(), c: make([]int64, cApplied0+len(passNames))}
}

// begin opens a span under the innermost open one. All ledger methods are
// no-ops on a nil ledger, which is the untraced path.
func (l *ledger) begin(kind int) int32 {
	if l == nil {
		return 0
	}
	parent := int32(-1)
	if n := len(l.stack); n > 0 {
		parent = l.stack[n-1]
	}
	if kind == spRun {
		l.run++
	}
	id := int32(len(l.spans))
	l.spans = append(l.spans, span{kind: int32(kind), parent: parent, run: l.run, start: int64(time.Since(l.epoch))})
	l.stack = append(l.stack, id)
	return id
}

func (l *ledger) end(id int32) {
	if l == nil {
		return
	}
	l.spans[id].end = int64(time.Since(l.epoch))
	l.stack = l.stack[:len(l.stack)-1]
}

// unwind closes every open span (a run that panicked or failed to build)
// so the next run starts from a clean stack.
func (l *ledger) unwind() {
	if l == nil {
		return
	}
	for len(l.stack) > 0 {
		l.end(l.stack[len(l.stack)-1])
	}
}

// pipeline returns the standard optimization pipeline with every pass
// wrapped by a timer. Embedding keeps Name() and Disableable(), so DNA
// vectors, the disable-pass protocol and the verdicts are unchanged.
func (l *ledger) pipeline() []passes.Pass {
	pl := passes.Pipeline()
	for i, p := range pl {
		pl[i] = timedPass{Pass: p, l: l, idx: i}
	}
	return pl
}

type timedPass struct {
	passes.Pass
	l   *ledger
	idx int
}

func (p timedPass) Run(g *mir.Graph, ctx *passes.Context) error {
	in := g.InstrCount()
	sp := p.l.begin(spPass0 + p.idx)
	err := p.Pass.Run(g, ctx)
	p.l.end(sp)
	out := g.InstrCount()
	c := p.l.c
	c[cPassRuns]++
	c[cInstrsIn] += int64(in)
	c[cInstrsOut] += int64(out)
	if in != out {
		c[cApplied0+p.idx]++
	}
	return err
}

// timedPolicy is the engine.Policy of a traced run: core.Detector with a
// span around every observer callback and around finish(), and the verdict
// of every decision counted.
type timedPolicy struct {
	inner *core.Detector
	l     *ledger
}

func (t *timedPolicy) Active() bool { return t.inner.Active() }

func (t *timedPolicy) BeginCompile(fn string) (passes.Observer, func() engine.CompileDecision) {
	observe, finish := t.inner.BeginCompile(fn)
	timedFinish := func() engine.CompileDecision {
		sp := t.l.begin(spDecide)
		d := finish()
		t.l.end(sp)
		t.l.c[cDecideCalls]++
		switch {
		case d.NoJIT:
			t.l.c[cVerdictNoJIT]++
		case len(d.DisabledPasses) > 0:
			t.l.c[cVerdictDisablePass]++
		default:
			t.l.c[cVerdictGo]++
		}
		return d
	}
	if observe == nil {
		return nil, timedFinish
	}
	return func(i int, pass string, before, after *mir.Snapshot) {
		sp := t.l.begin(spExtract)
		observe(i, pass, before, after)
		t.l.end(sp)
		t.l.c[cExtractCalls]++
	}, timedFinish
}

// takePass returns the busy (self) time per span kind of the spans recorded
// since index from, plus the boundary counts, and resets the counts.
func (l *ledger) takePass(from int) (busy []time.Duration, counts []int64) {
	busy = make([]time.Duration, spPass0+len(passNames))
	for i := from; i < len(l.spans); i++ {
		s := &l.spans[i]
		d := time.Duration(s.end - s.start)
		busy[s.kind] += d
		if s.parent >= 0 {
			busy[l.spans[s.parent].kind] -= d
		}
	}
	counts = l.c
	l.c = make([]int64, len(counts))
	return busy, counts
}

// writeTrace writes every span to bench/out/trace-<workload>.json, one
// [kind, parent, run, start_ns, end_ns] row per span.
func (l *ledger) writeTrace(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "{\"workload\":%q,\"columns\":[\"kind\",\"parent\",\"run\",\"start_ns\",\"end_ns\"],\"kinds\":[", workload)
	for k := 0; k < spPass0+len(passNames); k++ {
		if k > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "%q", spanName(k))
	}
	w.WriteString("],\"spans\":[\n")
	for i, s := range l.spans {
		if i > 0 {
			w.WriteString(",\n")
		}
		fmt.Fprintf(w, "[%d,%d,%d,%d,%d]", s.kind, s.parent, s.run, s.start, s.end)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		return "", err
	}
	return path, f.Close()
}
