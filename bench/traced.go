package main

// The traced run: the same passes with the ledger's wrappers installed,
// alternated with untraced passes (their ratio is the tracing overhead),
// then the stage kernels and the workload's contrast cells. It fills every
// per-layer metric; end-to-end metrics are never taken from it.

import (
	"fmt"
	"strings"
	"time"

	"github.com/jitbull/jitbull/internal/core"
	"github.com/jitbull/jitbull/internal/jitqueue"
	"github.com/jitbull/jitbull/internal/mc"
)

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// passMetrics turns one traced pass into its per-layer lines.
func passMetrics(w *workload, r passResult, busy []time.Duration, c []int64) map[string]float64 {
	m := map[string]float64{}
	t := &r.counts

	// Front end. parser.Parse lexes internally, so the lexing-only run is
	// subtracted to leave the parser's own time.
	m["lexer.busy_ms"] = ms(busy[spLex])
	m["lexer.tokens"] = float64(c[cTokens])
	m["parser.busy_ms"] = ms(busy[spParse] - busy[spLex])
	m["parser.funcs"] = float64(c[cFuncs])
	m["compiler.busy_ms"] = ms(busy[spCompile])
	m["compiler.bytecode_ops"] = float64(c[cBytecodeOps])

	for name, idx := range map[string]int{
		"engine.steps": tSteps, "engine.compiles": tCompiles, "engine.recompiles": tRecompiles,
		"engine.nr_jit": tNrJIT, "engine.nr_disjit": tNrDisJIT, "engine.nr_nojit": tNrNoJIT,
		"engine.bailouts": tBailouts, "engine.osr_entries": tOSREntries, "engine.deopt_exits": tDeoptExits,
		"engine.compile_errors": tCompileErrors, "engine.tier_mc": tTierMC,
		"engine.tier_fused": tTierFused, "engine.tier_switch": tTierSwitch,
		"core.matches": tMatches, "core.delta_chains": tDeltaChains, "core.index_probes": tIndexProbes,
	} {
		m[name] = float64(t[idx])
	}
	m["engine.false_positive_ratio"] = ratio(float64(t[tNrDisJIT]+t[tNrNoJIT]), float64(t[tNrJIT]))

	var passesBusy time.Duration
	for i, name := range passNames {
		passesBusy += busy[spPass0+i]
		m["passes."+name+".busy_ms"] = ms(busy[spPass0+i])
		m["passes."+name+".applied"] = float64(c[cApplied0+i])
	}
	m["passes.busy_ms"] = ms(passesBusy)
	m["passes.runs"] = float64(c[cPassRuns])
	m["passes.instrs_in"] = float64(c[cInstrsIn])
	m["passes.instrs_out"] = float64(c[cInstrsOut])

	m["core.extract.busy_ms"] = ms(busy[spExtract])
	m["core.extract.calls"] = float64(c[cExtractCalls])
	m["core.decide.busy_ms"] = ms(busy[spDecide])
	m["core.decide.calls"] = float64(c[cDecideCalls])
	m["core.verdict_go"] = float64(c[cVerdictGo])
	m["core.verdict_disable_pass"] = float64(c[cVerdictDisablePass])
	m["core.verdict_nojit"] = float64(c[cVerdictNoJIT])
	if db := w.programs[0].db; db != nil {
		m["core.db_vdcs"] = float64(db.Size())
	} else {
		m["core.db_vdcs"] = 0
	}

	// The engine times each compile itself (compile.ns). What is left of a
	// compile after the passes and the policy is mirbuild, the IR snapshots,
	// LIR lowering, regalloc and fusion; what is left of Engine.Run after
	// the compiles is execution: interpreter, native code, machine-code
	// attach and the OSR/deopt bridges.
	compile := time.Duration(t[tCompileNs])
	backend := compile - passesBusy - busy[spExtract] - busy[spDecide]
	exec := busy[spExec] - backend // busy[spExec] is already net of its pass and policy spans
	m["engine.compile.busy_ms"] = ms(compile)
	m["engine.compile.mean_us"] = ratio(float64(compile)/1e3, float64(t[tCompileN]))
	m["engine.compile.backend_ms"] = ms(backend)
	m["engine.exec_ms"] = ms(exec)
	m["interp.ns_per_step"] = ratio(float64(exec), float64(t[tSteps]))
	m["engine.osr_entry.mean_us"] = ratio(float64(t[tOSREntryNs])/1e3, float64(t[tOSREntryN]))
	return m
}

// tracedPass runs one pass under the ledger and returns its per-layer lines.
func tracedPass(w *workload, l *ledger, s *samples) (passResult, map[string]float64) {
	from := len(l.spans)
	r := runPass(w, l, s)
	busy, counts := l.takePass(from)
	return r, passMetrics(w, r, busy, counts)
}

// ledgerCoverage is the share of a traced pass's wall time that the ledger
// lines account for: front end + passes + core + back end + execution.
func ledgerCoverage(m map[string]float64, wall time.Duration) float64 {
	sum := m["lexer.busy_ms"] + m["parser.busy_ms"] + m["compiler.busy_ms"] + m["passes.busy_ms"] +
		m["core.extract.busy_ms"] + m["core.decide.busy_ms"] + m["engine.compile.backend_ms"] + m["engine.exec_ms"]
	return ratio(sum, ms(wall))
}

// mutated returns a copy of w with mutate applied to every program: a
// contrast cell is the whole workload with one configuration bit flipped.
func mutated(w *workload, mutate func(p *program)) *workload {
	c := &workload{name: w.name, rounds: w.rounds, programs: append([]program(nil), w.programs...)}
	for i := range c.programs {
		mutate(&c.programs[i])
	}
	return c
}

// absorb adds another pass's attempted and failed runs to r.
func (r *passResult) absorb(o passResult) {
	r.attempted += o.attempted
	r.failed += o.failed
}

// roundRobin runs the cells one after another, reps times over, and returns
// ratio(a, b): the median over the rounds of cell a's pass time over cell
// b's in the same round. Taking each ratio inside a round keeps the box's
// slow drift, which is larger than most of the effects measured here, out
// of it.
func roundRobin(cells []func() passResult, reps int, total *passResult) (ratioOf func(a, b int) float64) {
	times := make([][]float64, reps)
	for r := range times {
		for _, cell := range cells {
			p := cell()
			total.absorb(p)
			times[r] = append(times[r], p.wall.Seconds())
		}
	}
	return func(a, b int) float64 {
		rs := make([]float64, reps)
		for r := range rs {
			rs[r] = ratio(times[r][a], times[r][b])
		}
		return median(rs)
	}
}

// contrastCells measures the cells that belong to this workload — the whole
// workload, untraced, with one configuration bit flipped — and fills every
// contrast metric; a cell that belongs to another workload, and the
// machine-code cell on a platform without that tier, reads 0, which the
// report prints as absent. derived collects the paper-table lines, which
// are printed but are not metrics.
func contrastCells(w *workload, reps int, m map[string]float64, total *passResult) (derived []string, err error) {
	for _, name := range contrastNames {
		m[name] = 0
	}
	// cell 0 is always the workload as it is.
	cells := []func() passResult{func() passResult { return runPass(w, nil, nil) }}
	flip := func(mutate func(p *program)) {
		c := mutated(w, mutate)
		cells = append(cells, func() passResult { return runPass(c, nil, nil) })
	}
	overhead := func(r float64) float64 { return 100 * (r - 1) }
	switch w.name {
	case "octane_jit":
		flip(func(p *program) { p.cfg.NoMC = true })
		flip(func(p *program) { p.cfg.NoMC, p.cfg.NoFuse = true, true })
		flip(func(p *program) { p.db = &core.Database{} })
		r := roundRobin(cells, reps, total)
		if mc.Supported() {
			m["engine.nomc.run_ratio"] = r(1, 0)
		}
		m["engine.nofuse.run_ratio"] = r(2, 1)
		m["engine.jb0.run_ratio"] = r(3, 0)
		derived = append(derived, fmt.Sprintf("JITBULL #0 overhead vs JIT: %+.1f%%", overhead(r(3, 0))))
	case "octane_jitbull8":
		// Only the database changes from cell to cell: the engine build (all 8
		// bugs active, which also removes guards and so speeds code up) is the
		// workload's own, so the ratios isolate what the policy costs.
		flip(func(p *program) { p.db = nil })
		for _, n := range []int{1, 4} {
			db, _, derr := windowDB(n)
			if derr != nil {
				return nil, derr
			}
			flip(func(p *program) { p.db = db })
		}
		r := roundRobin(cells, reps, total)
		m["engine.jb1.run_ratio"], m["engine.jb4.run_ratio"] = r(2, 1), r(3, 1)
		derived = append(derived, fmt.Sprintf("JITBULL #1 / #4 / #8 overhead vs JIT: %+.1f%% / %+.1f%% / %+.1f%%",
			overhead(r(2, 1)), overhead(r(3, 1)), overhead(r(0, 1))))
	case "octane_nojit":
		flip(func(p *program) { p.cfg.DisableJIT, p.cfg.IonThreshold = false, ionThreshold })
		r := roundRobin(cells, reps, total)
		derived = append(derived, fmt.Sprintf("NoJIT / JIT run time at this workload's scale: %.2fx", r(0, 1)))
	case "osr_loops":
		flip(func(p *program) { p.cfg.OSR = false })
		m["engine.osr_off.run_ratio"] = roundRobin(cells, reps, total)(1, 0)
	case "compile_storm":
		// One background worker: the owner goroutine plus the worker never
		// exceed the two cores of the reference box.
		q := jitqueue.New(1, 0, nil)
		defer q.Close()
		flip(func(p *program) { p.cfg.Queue = q })
		// A fleet on a cold shared cache, then the same fleet again, warm.
		var fleet *workload
		var hits, lookups int64
		cells = append(cells, func() passResult {
			cache := jitqueue.NewCache(nil)
			fleet = mutated(w, func(p *program) { p.cfg.Cache = cache })
			return runPass(fleet, nil, nil)
		}, func() passResult {
			p := runPass(fleet, nil, nil)
			hits += p.counts[tCacheHits]
			lookups += p.counts[tCacheHits] + p.counts[tCacheMisses]
			return p
		})
		r := roundRobin(cells, reps, total)
		m["jitqueue.async.run_ratio"] = r(1, 0)
		m["jitqueue.cache.run_ratio"] = r(3, 2)
		m["jitqueue.cache.hit_ratio"] = ratio(float64(hits), float64(lookups))
	}
	return derived, nil
}

var contrastNames = []string{
	"engine.nomc.run_ratio", "engine.nofuse.run_ratio",
	"engine.jb0.run_ratio", "engine.jb1.run_ratio", "engine.jb4.run_ratio",
	"engine.osr_off.run_ratio",
	"jitqueue.async.run_ratio", "jitqueue.cache.run_ratio", "jitqueue.cache.hit_ratio",
}

// tracedResult is everything a traced run reports.
type tracedResult struct {
	metrics   map[string]float64
	coverage  float64 // median ledger coverage of the traced passes
	tracedS   dist    // traced pass times
	untracedS dist    // interleaved untraced pass times
	derived   []string
	traceFile string
	total     passResult
	failures  []string
	beyondP99 int
}

// effort sizes a traced run: at least pairs traced/untraced pass pairs and
// then more until two thirds of budget are spent, stageReps compilations of
// every stage kernel, and cellPasses rounds of the contrast cells.
type effort struct {
	budget     time.Duration
	pairs      int
	stageReps  int
	cellPasses int
}

// fullEffort is what a driver run spends: about two thirds of the asked
// time on the alternating passes, the rest on stage kernels and cells.
func fullEffort(budget time.Duration) effort {
	return effort{budget: budget, pairs: 3, stageReps: 40, cellPasses: 2}
}

// tracedRun runs the traced mode of one workload.
func tracedRun(w *workload, ef effort, outDir string) (*tracedResult, error) {
	res := &tracedResult{}
	runPass(w, nil, nil) // process warm-up, discarded

	l := newLedger()
	s := newSamples(w)
	var perPass []map[string]float64
	var traced, untraced []passResult
	var coverage []float64
	start := time.Now()
	for len(traced) < ef.pairs || time.Since(start) < ef.budget*2/3 {
		r, pm := tracedPass(w, l, s)
		perPass = append(perPass, pm)
		coverage = append(coverage, ledgerCoverage(pm, r.wall))
		traced = append(traced, r)
		untraced = append(untraced, runPass(w, nil, s))
	}
	for _, r := range append(traced, untraced...) {
		res.total.absorb(r)
	}
	res.failures = s.failures
	res.coverage = median(coverage)
	res.tracedS = summarise(wallSeconds(traced))
	res.untracedS = summarise(wallSeconds(untraced))

	// Every line is the median over the traced passes; counts are the same
	// in every pass, so their median is their value.
	m := map[string]float64{}
	for name := range perPass[0] {
		vals := make([]float64, len(perPass))
		for i, pm := range perPass {
			vals[i] = pm[name]
		}
		m[name] = median(vals)
	}
	m["bench.trace_overhead_ratio"] = ratio(res.tracedS.Median, res.untracedS.Median)

	var all []float64
	for _, ps := range s.perProgram {
		all = append(all, ps...)
	}
	m["vulndb.script.p50_ms"], _ = percentile(all, 50)
	m["vulndb.script.p99_ms"], res.beyondP99 = percentile(all, 99)

	st, err := measureStages(ef.stageReps, 3)
	if err != nil {
		return nil, err
	}
	st.metrics(m)
	if len(st.mismatches) > 0 {
		res.total.failed += len(st.mismatches)
		res.failures = append(res.failures, "stage kernels: "+strings.Join(st.mismatches, "; "))
	}

	// Two rounds of the cells; one where a pass is so long that two would
	// double the run.
	if res.untracedS.Median > 1.8 {
		ef.cellPasses = 1
	}
	if res.derived, err = contrastCells(w, ef.cellPasses, m, &res.total); err != nil {
		return nil, err
	}
	if res.traceFile, err = l.writeTrace(outDir, w.name); err != nil {
		return nil, err
	}
	res.metrics = m
	return res, nil
}
