package main

// The six workloads. Each is a list of programs (source text + engine
// configuration + reference) run once per pass on a fresh engine.New, so
// parse, bytecode compile, warm-up and JIT compile are inside the timed
// region exactly as on every script load. bench/README.md records why each
// workload exists and which layers it exercises.

import (
	"fmt"
	"math/rand"

	"github.com/jitbull/jitbull/internal/core"
	"github.com/jitbull/jitbull/internal/engine"
	"github.com/jitbull/jitbull/internal/octane"
	"github.com/jitbull/jitbull/internal/passes"
	"github.com/jitbull/jitbull/internal/progen"
	"github.com/jitbull/jitbull/internal/variants"
	"github.com/jitbull/jitbull/internal/vulndb"
)

// ionThreshold is the benchmark's Ion threshold: the corpus analogues are
// sized so 100 gives the steady-state tier mix of the paper's 1500 in far
// less wall time, and the VDC database is fingerprinted at the same value.
const ionThreshold = 100

// sizes are the workload dimensions. They are part of the provenance
// header: -compare refuses files measured at different sizes.
type sizes struct {
	OctaneScale   int `json:"octane_scale"`   // octane_jit, octane_jitbull8
	NoJITScale    int `json:"nojit_scale"`    // octane_nojit
	StormPrograms int `json:"storm_programs"` // compile_storm
	VulnRounds    int `json:"vuln_rounds"`    // vuln_window: rounds of the 33 scripts per pass
	OSRPrograms   int `json:"osr_programs"`   // osr_loops
	HotIters      int `json:"hot_iters"`      // osr_loops
}

// fullSizes make one pass 0.9-1.5 s on the reference box (2 cores, go1.24,
// amd64) — 2.2 s on compile_storm — so ten seconds of measurement is 5-11
// timed passes.
var fullSizes = sizes{OctaneScale: 4, NoJITScale: 1, StormPrograms: 48, VulnRounds: 12, OSRPrograms: 30, HotIters: 20000}

// progenBase is the progen seed of a generated corpus's first program.
const progenBase = 1000

var workloadNames = []string{"octane_jit", "octane_jitbull8", "octane_nojit", "compile_storm", "vuln_window", "osr_loops"}

// expect is the reference a run is checked against.
type expect struct {
	Result    string `json:"result"`        // the `result` global, rendered
	OutputSHA string `json:"output_sha256"` // digest of everything printed
	Error     string `json:"error"`         // error text ("" = clean finish)
	// Verdict pins the go/no-go outcome of a vuln_window script
	// ("disable-pass" or "nojit"); empty elsewhere.
	Verdict string `json:"verdict,omitempty"`
}

// program is one script load of a workload.
type program struct {
	name string
	src  string
	cfg  engine.Config
	db   *core.Database // nil = no policy installed
	want expect
	// vuln marks a demonstrator script: besides matching the reference it
	// must not be exploited and must record at least one DNA match.
	vuln bool
}

type workload struct {
	name     string
	programs []program
	rounds   int // each pass runs the program list this many times
}

// windowDB fingerprints the first n CVEs and returns the bug set of an
// engine inside those vulnerability windows.
func windowDB(n int) (*core.Database, passes.BugSet, error) {
	db, err := vulndb.BuildDatabase(vulndb.All()[:n], ionThreshold)
	if err != nil {
		return nil, nil, err
	}
	bugs := passes.BugSet{}
	for _, c := range db.CVEs() {
		bugs[c] = true
	}
	return db, bugs, nil
}

// vulnScript is one demonstrator variant of one CVE.
type vulnScript struct {
	cve, variant, src string
}

// vulnScripts renders the 33 demonstrator scripts: every CVE's original,
// renamed and minified form, the primary CVEs' reorder/split variants and
// the one alternative implementation.
func vulnScripts() ([]vulnScript, error) {
	var out []vulnScript
	for _, v := range vulndb.All() {
		renamed, err := variants.Rename(v.Demonstrator)
		if err != nil {
			return nil, err
		}
		minified, err := variants.Minify(v.Demonstrator)
		if err != nil {
			return nil, err
		}
		for _, s := range []vulnScript{
			{v.CVE, "original", v.Demonstrator},
			{v.CVE, "rename", renamed},
			{v.CVE, "minify", minified},
			{v.CVE, "reorder", v.ReorderVariant},
			{v.CVE, "split", v.SplitVariant},
			{v.CVE, "alt", v.AltImplementation},
		} {
			if s.src != "" {
				out = append(out, s)
			}
		}
	}
	return out, nil
}

func stormOptions() progen.Options { return progen.Options{Funcs: 8, MaxStmts: 10, Train: 130} }

func stormConfig(bugs passes.BugSet) engine.Config {
	return engine.Config{IonThreshold: ionThreshold, Bugs: bugs}
}

func osrConfig() engine.Config {
	return engine.Config{IonThreshold: ionThreshold, OSR: true, Speculate: true}
}

func osrOptions(sz sizes) progen.Options {
	return progen.Options{HotLoops: true, HotIters: sz.HotIters, HotCalls: 3, Train: 10}
}

// setup builds one workload from the seed: render or generate the sources,
// fingerprint the VDC database, and load (Octane, demonstrators) or compute
// with the interpreter (generated programs) every reference. Its wall time
// is the setup_s metric.
func setup(name string, seed int64, sz sizes, oracle *expectedFile) (*workload, error) {
	w := &workload{name: name, rounds: 1}
	octaneCorpus := func(scale int, cfg engine.Config, db *core.Database) error {
		for _, b := range octane.All() {
			want, ok := oracle.Octane[octaneKey(b.Name, scale)]
			if !ok {
				return fmt.Errorf("expected.json has no entry %s (run -regen-expected)", octaneKey(b.Name, scale))
			}
			w.programs = append(w.programs, program{name: b.Name, src: b.Source(scale), cfg: cfg, db: db, want: want})
		}
		return nil
	}
	// generated appends the corpus of n seeded progen programs, each checked
	// against the interpreter's run of the same source. The corpus is fixed
	// and the run's seed only orders it: per-program cost is so heavy-tailed
	// (one compile_storm program costs twice as much as the other forty-five
	// together, all of it in Δ extraction) that drawing the programs per seed
	// would make run_s a property of the draw. Programs listed in
	// expected.json as not surviving the configuration under test at HEAD are
	// left out: a workload must be one on which nothing fails.
	generated := func(n int, skip map[string]string, opts progen.Options, cfg engine.Config, db *core.Database) error {
		for i := 0; i < n; i++ {
			ps := int64(progenBase + i)
			if _, skipped := skip[fmt.Sprint(ps)]; skipped {
				continue
			}
			p := program{name: fmt.Sprintf("progen-%d", ps), src: progen.Generate(ps, opts), cfg: cfg, db: db}
			ref := runProgram(&program{src: p.src, cfg: engine.Config{DisableJIT: true}}, nil)
			if ref.err != nil {
				return fmt.Errorf("%s: interpreter reference: %w", p.name, ref.err)
			}
			p.want = ref.got
			w.programs = append(w.programs, p)
		}
		return nil
	}

	var err error
	switch name {
	case "octane_jit":
		err = octaneCorpus(sz.OctaneScale, engine.Config{IonThreshold: ionThreshold}, nil)
	case "octane_jitbull8":
		db, bugs, derr := windowDB(8)
		if derr != nil {
			return nil, derr
		}
		err = octaneCorpus(sz.OctaneScale, engine.Config{IonThreshold: ionThreshold, Bugs: bugs}, db)
	case "octane_nojit":
		err = octaneCorpus(sz.NoJITScale, engine.Config{DisableJIT: true}, nil)
	case "compile_storm":
		db, bugs, derr := windowDB(8)
		if derr != nil {
			return nil, derr
		}
		err = generated(sz.StormPrograms, oracle.StormSkip, stormOptions(), stormConfig(bugs), db)
	case "vuln_window":
		db, _, derr := windowDB(8)
		if derr != nil {
			return nil, derr
		}
		scripts, serr := vulnScripts()
		if serr != nil {
			return nil, serr
		}
		w.rounds = sz.VulnRounds
		for _, s := range scripts {
			want, ok := oracle.Vuln[vulnKey(s)]
			if !ok {
				return nil, fmt.Errorf("expected.json has no entry %s (run -regen-expected)", vulnKey(s))
			}
			w.programs = append(w.programs, program{
				name: vulnKey(s), src: s.src, db: db, want: want, vuln: true,
				cfg: engine.Config{IonThreshold: ionThreshold, Bugs: passes.BugSet{s.cve: true}},
			})
		}
	case "osr_loops":
		err = generated(sz.OSRPrograms, oracle.OSRSkip, osrOptions(sz), osrConfig(), &core.Database{})
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	if err != nil {
		return nil, err
	}
	// The seed fixes the visiting order, so layout and cache effects of one
	// particular order are not baked into the numbers.
	rand.New(rand.NewSource(seed)).Shuffle(len(w.programs), func(i, j int) {
		w.programs[i], w.programs[j] = w.programs[j], w.programs[i]
	})
	return w, nil
}

func octaneKey(name string, scale int) string { return fmt.Sprintf("%s@%d", name, scale) }
func vulnKey(s vulnScript) string             { return s.cve + "/" + s.variant }
