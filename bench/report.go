package main

// Metric definitions (the Go side of BENCHMARK.json; a test keeps the two
// identical), the result line the driver reads, and the report file that
// -compare reads.

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"

	"github.com/jitbull/jitbull/internal/mc"
)

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the engine sees, with the share of the
// baseline median each may worsen by before a change is a regression.
// fail_ratio is the fifth: it is 0 on a healthy tree, so it travels as the
// attempted/failed counts of the result line and any increase is a
// regression.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"run_s", "s", "lower", 0.25},
	{"geomean_prog_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
}

// setupFloorS is the absolute slack of setup_s in -compare: a 30 ms set-up
// may move by a quarter of a second before it counts.
const setupFloorS = 0.25

func workloadWhy() []map[string]string {
	return []map[string]string{
		{"name": "octane_jit", "why": "15 Octane analogues, JIT on, no policy: execution-bound, native/mc/lir-fuse do the work and core does none (Fig. 5 JIT baseline)"},
		{"name": "octane_jitbull8", "why": "same sources inside a window: all 8 bugs active, DB #8 installed; the paper's headline overhead and false-positive configuration"},
		{"name": "octane_nojit", "why": "same corpus with the JIT disabled: only lexer, parser, compiler and interpreter work, every JIT layer idle (the paper's NoJIT strawman)"},
		{"name": "compile_storm", "why": "seeded 8-function progen programs, DB #8: compile-bound on the DNA miss path (snapshots, delta extraction, index probes, back end)"},
		{"name": "vuln_window", "why": "the 33 CVE demonstrator variants with DB #8: the DNA hit path (matches, disable-pass recompiles, NoJIT) and the security oracle"},
		{"name": "osr_loops", "why": "seeded hot-loop progen programs with OSR and speculation: entry at loop headers and exit through deopt instead of call-boundary entry"},
	}
}

// perLayer lists every per-layer metric, in report order.
func perLayer() []metricDef {
	higher := map[string]bool{
		"engine.nr_jit": true, "engine.tier_mc": true, "engine.osr_entries": true,
		"lir.fuse.supers": true, "lir.fuse.fused_ops": true, "jitqueue.cache.hit_ratio": true,
	}
	var out []metricDef
	add := func(unit string, names ...string) {
		for _, n := range names {
			better := "lower"
			if higher[n] {
				better = "higher"
			}
			out = append(out, metricDef{Name: n, Unit: unit, Better: better})
		}
	}
	add("ms", "lexer.busy_ms")
	add("count", "lexer.tokens")
	add("ms", "parser.busy_ms")
	add("count", "parser.funcs")
	add("ms", "compiler.busy_ms")
	add("count", "compiler.bytecode_ops")
	add("ns/step", "interp.ns_per_step")
	add("count", "engine.steps", "engine.compiles", "engine.recompiles", "engine.nr_jit", "engine.nr_disjit",
		"engine.nr_nojit", "engine.bailouts", "engine.osr_entries", "engine.deopt_exits", "engine.compile_errors",
		"engine.tier_mc", "engine.tier_fused", "engine.tier_switch")
	add("ratio", "engine.false_positive_ratio")
	add("ms", "engine.compile.busy_ms")
	add("us", "engine.compile.mean_us")
	add("ms", "engine.compile.backend_ms", "engine.exec_ms")
	add("us", "engine.osr_entry.mean_us")
	add("ms", "passes.busy_ms")
	add("count", "passes.runs", "passes.instrs_in", "passes.instrs_out")
	for _, p := range passNames {
		add("ms", "passes."+p+".busy_ms")
		out = append(out, metricDef{Name: "passes." + p + ".applied", Unit: "count", Better: "higher"})
	}
	add("ms", "core.extract.busy_ms")
	add("count", "core.extract.calls")
	add("ms", "core.decide.busy_ms")
	add("count", "core.decide.calls", "core.matches", "core.verdict_go", "core.verdict_disable_pass",
		"core.verdict_nojit", "core.db_vdcs", "core.delta_chains", "core.index_probes")
	add("ns/instr", "mirbuild.ns_per_instr")
	add("count", "mirbuild.instrs")
	add("ns/op", "lir.lower.ns_per_op")
	add("count", "lir.ops")
	add("ns/op", "regalloc.ns_per_op")
	add("count", "regalloc.num_regs")
	add("ns/op", "lir.fuse.ns_per_op")
	add("count", "lir.fuse.supers", "lir.fuse.fused_ops")
	add("ns/op", "mc.lower.ns_per_op")
	add("bytes", "mc.code_bytes")
	add("us/unit", "mc.install.us_per_unit", "mc.release.us_per_unit")
	add("ns/step", "native.switch.ns_per_step", "native.fused.ns_per_step", "mc.exec.ns_per_step")
	add("count", "native.kernel_steps")
	add("ratio", contrastNames...)
	add("ms", "vulndb.script.p50_ms", "vulndb.script.p99_ms")
	add("ratio", "bench.trace_overhead_ratio")
	return out
}

// isCount reports whether a metric is a count made by the program, which
// must repeat exactly from run to run (see -selfcheck).
func isCount(d metricDef) bool { return d.Unit == "count" || d.Unit == "bytes" }

// runSeconds is how long one driver run measures.
const runSeconds = 10

// benchmarkJSON renders BENCHMARK.json from the tables above.
func benchmarkJSON() ([]byte, error) {
	doc := struct {
		Command    []string            `json:"command"`
		Paths      []string            `json:"paths"`
		RunSeconds int                 `json:"run_seconds"`
		Workloads  []map[string]string `json:"workloads"`
		EndToEnd   []metricDef         `json:"end_to_end"`
		PerLayer   []metricDef         `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloadWhy(),
		EndToEnd:   endToEnd,
		PerLayer:   perLayer(),
	}
	data, err := json.MarshalIndent(&doc, "", "  ")
	return append(data, '\n'), err
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runRecord is one run of one workload: the driver's result line plus what
// -compare needs.
type runRecord struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	Workload string `json:"workload,omitempty"`
	Trace    int    `json:"trace,omitempty"`
	RunS     *dist  `json:"run_s_passes,omitempty"`
}

// resultLine is the last line of standard output: exactly the keys the
// driver reads.
func (r *runRecord) resultLine() string {
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		fatalf("encode result: %v", err)
	}
	return string(line)
}

func toMetrics(defs []metricDef, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s is measured but not declared", name)
		}
	}
	return out, nil
}

// provenance is the header of a report file. Two files are comparable only
// if everything but the revision agrees.
type provenance struct {
	GitRev      string `json:"git_rev"`
	Go          string `json:"go"`
	GOARCH      string `json:"goarch"`
	NumCPU      int    `json:"nproc"`
	MCSupported bool   `json:"mc_supported"`
	Seed        int64  `json:"seed"`
	Seconds     int    `json:"seconds"`
	Sizes       sizes  `json:"sizes"`
}

func newProvenance(seed int64, seconds int, sz sizes) provenance {
	p := provenance{GitRev: "unknown", Go: runtime.Version(), GOARCH: runtime.GOARCH, NumCPU: runtime.NumCPU(),
		MCSupported: mc.Supported(), Seed: seed, Seconds: seconds, Sizes: sz}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				p.GitRev = s.Value
			}
		}
	}
	return p
}

// comparable ignores the revision: comparing two revisions is the point.
func (p provenance) comparable(q provenance) bool {
	p.GitRev, q.GitRev = "", ""
	return p == q
}

type reportFile struct {
	Provenance provenance  `json:"provenance"`
	Runs       []runRecord `json:"runs"`
}

func readReport(path string) (*reportFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f reportFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// appendRun adds one run to the report file at path, creating it with the
// given header or refusing a file measured under a different one.
func appendRun(path string, prov provenance, r runRecord) error {
	f := &reportFile{Provenance: prov}
	if old, err := readReport(path); err == nil {
		if !old.Provenance.comparable(prov) {
			return fmt.Errorf("%s was measured under a different provenance header; use a new file", path)
		}
		f = old
	} else if !os.IsNotExist(err) {
		return err
	}
	f.Runs = append(f.Runs, r)
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
