// Package experiments reproduces every table and figure of the paper's
// evaluation (§VI): the §VI-B security matrix, Figure 4 (false-positive
// rates), Figure 5 (execution times for NoJIT / JIT / JITBULL with 0, 1
// and 4 VDCs), Figure 6 (scalability from 1 to 8 VDCs), plus the Table I
// survey and the §III-C vulnerability-window statistics. It is the library
// behind cmd/jitbull-bench and nothing else: what it times is printed in
// the paper's table shapes for reading side by side with the paper.
// Timings that gate or compare anything come from bench/ (checked outputs,
// one schema, contrast cells measured in one process).
//
// See EXPERIMENTS.md for paper-vs-measured results.
package experiments

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"github.com/jitbull/jitbull/internal/core"
	"github.com/jitbull/jitbull/internal/engine"
	"github.com/jitbull/jitbull/internal/octane"
	"github.com/jitbull/jitbull/internal/variants"
	"github.com/jitbull/jitbull/internal/vulndb"
)

// Config parameterizes the experiment harness.
type Config struct {
	// IonThreshold for benchmark runs. The paper's engine uses 1500; the
	// corpus analogues are sized so a lower threshold (default 100) gives
	// the same steady-state tier mix in far less wall time.
	IonThreshold int
	// Repeats per timing measurement (minimum is reported).
	Repeats int
	// Scale multiplies the benchmarks' outer-loop iteration counts for
	// timing experiments, amortizing one-time compilation exactly as the
	// multi-second real Octane runs do.
	Scale int
	// Workers is the size of the worker pool the corpus experiments
	// (FalsePositives, Performance, Scalability) fan their independent
	// engine runs across. Zero or negative selects GOMAXPROCS. Timing
	// comparisons should use Workers=1 to avoid cross-run scheduler noise.
	Workers int
}

// Defaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.IonThreshold <= 0 {
		c.IonThreshold = 100
	}
	if c.Repeats <= 0 {
		c.Repeats = 3
	}
	if c.Scale <= 0 {
		c.Scale = 1
	}
	return c
}

// ---- §VI-B security matrix ----

// SecurityRow is one (CVE, variant) cell of the paper's detection matrix.
type SecurityRow struct {
	CVE                  string
	Variant              string
	ExploitedUnprotected bool
	NeutralizedByJITBULL bool
	MatchedPasses        []string
}

// SecurityMatrix reproduces §VI-B: for each primary CVE, generate the four
// variants and test them against a database holding only the original
// demonstrator's DNA. The paper reports 100% detection.
func SecurityMatrix(cfg Config) ([]SecurityRow, error) {
	cfg = cfg.withDefaults()
	var rows []SecurityRow
	for _, v := range vulndb.Primary() {
		vdc, err := vulndb.ExtractVDC(v, cfg.IonThreshold)
		if err != nil {
			return nil, err
		}
		db := &core.Database{}
		db.Add(vdc)
		renamed, err := variants.Rename(v.Demonstrator)
		if err != nil {
			return nil, err
		}
		minified, err := variants.Minify(v.Demonstrator)
		if err != nil {
			return nil, err
		}
		set := []struct{ name, src string }{
			{"rename", renamed},
			{"minify", minified},
			{"reorder", v.ReorderVariant},
			{"split", v.SplitVariant},
		}
		for _, variant := range set {
			un := vulndb.Run(variant.src, v.Bug(), nil, cfg.IonThreshold)
			prot := vulndb.Run(variant.src, v.Bug(), db, cfg.IonThreshold)
			rows = append(rows, SecurityRow{
				CVE:                  v.CVE,
				Variant:              variant.name,
				ExploitedUnprotected: un.Exploited(),
				NeutralizedByJITBULL: !prot.Exploited() && len(prot.Matches) > 0,
				MatchedPasses:        prot.MatchedPasses(),
			})
		}
	}
	return rows, nil
}

// DetectionRate returns detected/total over the matrix.
func DetectionRate(rows []SecurityRow) (detected, total int) {
	for _, r := range rows {
		total++
		if r.ExploitedUnprotected && r.NeutralizedByJITBULL {
			detected++
		}
	}
	return detected, total
}

// ---- Figure 4: false positives ----

// FPRow is one benchmark bar of Figure 4.
type FPRow struct {
	Benchmark  string
	NrJIT      int
	NrDisJIT   int
	NrNoJIT    int
	PctSafe    float64
	PctPassDis float64
	PctNoJIT   float64
}

// FalsePositives reproduces Figure 4: run the (benign) Octane corpus on an
// engine in a vulnerability window with dbSize VDC fingerprints installed,
// and report the proportion of JITed functions JITBULL wrongly considered
// dangerous.
func FalsePositives(dbSize int, cfg Config) ([]FPRow, error) {
	cfg = cfg.withDefaults()
	db, bugs, err := vulndb.BuildDB(dbSize, cfg.IonThreshold)
	if err != nil {
		return nil, err
	}
	benches := octane.Suite()
	specs := make([]RunSpec, len(benches))
	for i, b := range benches {
		specs[i] = RunSpec{
			Name:   b.Name,
			Source: b.Source(cfg.Scale),
			Engine: engine.Config{IonThreshold: cfg.IonThreshold, Bugs: bugs},
			DB:     db,
		}
	}
	var rows []FPRow
	for _, oc := range RunParallel(specs, cfg.Workers) {
		if oc.Err != nil {
			return nil, fmt.Errorf("%s under #%d: %w", oc.Name, dbSize, oc.Err)
		}
		row := FPRow{
			Benchmark: oc.Name,
			NrJIT:     oc.Stats.NrJIT,
			NrDisJIT:  oc.Stats.NrDisJIT,
			NrNoJIT:   oc.Stats.NrNoJIT,
		}
		if row.NrJIT > 0 {
			row.PctPassDis = 100 * float64(row.NrDisJIT) / float64(row.NrJIT)
			row.PctNoJIT = 100 * float64(row.NrNoJIT) / float64(row.NrJIT)
			row.PctSafe = 100 - row.PctPassDis - row.PctNoJIT
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// ---- Figure 5: execution times ----

// PerfRow is one benchmark group of Figure 5: execution times under the
// five configurations.
type PerfRow struct {
	Benchmark string
	NoJIT     time.Duration
	JIT       time.Duration
	JB0       time.Duration // JITBULL installed, empty DB
	JB1       time.Duration // 1 VDC
	JB4       time.Duration // 4 VDCs
}

// Overhead returns (t/base - 1) as a percentage.
func Overhead(t, base time.Duration) float64 {
	if base == 0 {
		return 0
	}
	return 100 * (float64(t)/float64(base) - 1)
}

// Performance reproduces Figure 5 over the given benchmarks (nil means the
// whole corpus including the two micro-benchmarks).
func Performance(benches []octane.Benchmark, cfg Config) ([]PerfRow, error) {
	cfg = cfg.withDefaults()
	if benches == nil {
		benches = octane.All()
	}
	db1, bugs1, err := vulndb.BuildDB(1, cfg.IonThreshold)
	if err != nil {
		return nil, err
	}
	db4, bugs4, err := vulndb.BuildDB(4, cfg.IonThreshold)
	if err != nil {
		return nil, err
	}
	emptyDB := &core.Database{}
	// Five configurations per benchmark, fanned out as independent runs.
	// With Workers=1 the measurement discipline is identical to the old
	// serial loop (same order, same best-of-Repeats timing).
	const nCfg = 5
	specs := make([]RunSpec, 0, nCfg*len(benches))
	for _, b := range benches {
		src := b.Source(cfg.Scale)
		base := engine.Config{IonThreshold: cfg.IonThreshold}
		specs = append(specs,
			RunSpec{Name: b.Name + " NoJIT", Source: src, Engine: engine.Config{DisableJIT: true}, Repeats: cfg.Repeats},
			RunSpec{Name: b.Name + " JIT", Source: src, Engine: base, Repeats: cfg.Repeats},
			RunSpec{Name: b.Name + " JB#0", Source: src, Engine: base, DB: emptyDB, Repeats: cfg.Repeats},
			RunSpec{Name: b.Name + " JB#1", Source: src, Engine: engine.Config{IonThreshold: cfg.IonThreshold, Bugs: bugs1}, DB: db1, Repeats: cfg.Repeats},
			RunSpec{Name: b.Name + " JB#4", Source: src, Engine: engine.Config{IonThreshold: cfg.IonThreshold, Bugs: bugs4}, DB: db4, Repeats: cfg.Repeats},
		)
	}
	outcomes := RunParallel(specs, cfg.Workers)
	var rows []PerfRow
	for i, b := range benches {
		group := outcomes[i*nCfg : (i+1)*nCfg]
		for _, oc := range group {
			if oc.Err != nil {
				return nil, fmt.Errorf("%s: %w", oc.Name, oc.Err)
			}
		}
		rows = append(rows, PerfRow{
			Benchmark: b.Name,
			NoJIT:     group[0].Elapsed,
			JIT:       group[1].Elapsed,
			JB0:       group[2].Elapsed,
			JB1:       group[3].Elapsed,
			JB4:       group[4].Elapsed,
		})
	}
	return rows, nil
}

// ---- Figure 6: scalability ----

// ScaleRow is one benchmark series of Figure 6: execution time with #1..#8
// VDCs installed.
type ScaleRow struct {
	Benchmark string
	JIT       time.Duration
	Times     []time.Duration // index i => i+1 VDCs
}

// Scalability reproduces Figure 6 over the given benchmarks (nil = suite).
func Scalability(benches []octane.Benchmark, maxVDCs int, cfg Config) ([]ScaleRow, error) {
	cfg = cfg.withDefaults()
	if benches == nil {
		benches = octane.Suite()
	}
	if maxVDCs <= 0 || maxVDCs > len(vulndb.All()) {
		maxVDCs = len(vulndb.All())
	}
	// Per benchmark: the JIT cell, then #1..#maxVDCs.
	protected := make([]RunSpec, maxVDCs)
	for n := 1; n <= maxVDCs; n++ {
		db, bugs, err := vulndb.BuildDB(n, cfg.IonThreshold)
		if err != nil {
			return nil, err
		}
		protected[n-1] = RunSpec{
			Name:    fmt.Sprintf("#%d", n),
			Engine:  engine.Config{IonThreshold: cfg.IonThreshold, Bugs: bugs},
			DB:      db,
			Repeats: cfg.Repeats,
		}
	}
	perBench := 1 + maxVDCs
	specs := make([]RunSpec, 0, perBench*len(benches))
	for _, b := range benches {
		src := b.Source(cfg.Scale)
		specs = append(specs, RunSpec{Name: b.Name + " JIT", Source: src,
			Engine: engine.Config{IonThreshold: cfg.IonThreshold}, Repeats: cfg.Repeats})
		for _, spec := range protected {
			spec.Name, spec.Source = b.Name+" "+spec.Name, src
			specs = append(specs, spec)
		}
	}
	outcomes := RunParallel(specs, cfg.Workers)
	var rows []ScaleRow
	for i, b := range benches {
		group := outcomes[i*perBench : (i+1)*perBench]
		row := ScaleRow{Benchmark: b.Name, JIT: group[0].Elapsed, Times: make([]time.Duration, maxVDCs)}
		for j, oc := range group {
			if oc.Err != nil {
				return nil, fmt.Errorf("%s: %w", oc.Name, oc.Err)
			}
			if j > 0 {
				row.Times[j-1] = oc.Elapsed
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// ---- Tables and reports ----

// TableI renders the vulnerability survey in the paper's Table I format
// (VDC-available entries marked with *).
func TableI() string {
	var sb strings.Builder
	sb.WriteString("Table I: vulnerabilities in the JIT engines of V8, SpiderMonkey and Chakra (2015-2021)\n")
	sb.WriteString("(* = demonstrator code or write-up available; these are bold in the paper)\n\n")
	byTarget := map[string][]vulndb.CatalogEntry{}
	var order []string
	for _, e := range vulndb.Catalog() {
		if _, ok := byTarget[e.Target]; !ok {
			order = append(order, e.Target)
		}
		byTarget[e.Target] = append(byTarget[e.Target], e)
	}
	for _, target := range order {
		fmt.Fprintf(&sb, "%-12s", target)
		for i, e := range byTarget[target] {
			if i > 0 && i%3 == 0 {
				sb.WriteString("\n            ")
			}
			mark := " "
			if e.HasVDC {
				mark = "*"
			}
			fmt.Fprintf(&sb, " %s%s", e.CVE, mark)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// TableII reports the execution environment, the reproduction's equivalent
// of the paper's hardware table.
func TableII() string {
	var sb strings.Builder
	sb.WriteString("Table II: execution environment (reproduction)\n\n")
	fmt.Fprintf(&sb, "  %-10s %s/%s\n", "Platform", runtime.GOOS, runtime.GOARCH)
	fmt.Fprintf(&sb, "  %-10s %d logical CPUs\n", "CPU", runtime.NumCPU())
	fmt.Fprintf(&sb, "  %-10s %s\n", "Runtime", runtime.Version())
	fmt.Fprintf(&sb, "  %-10s simulated tiered engine (interp -> baseline -> ion)\n", "Engine")
	return sb.String()
}

// WindowReport renders the §III-C / §VI-D vulnerability-window analysis.
func WindowReport() string {
	var sb strings.Builder
	sb.WriteString("Vulnerability windows (report date -> patch availability):\n\n")
	vulns := vulndb.All()
	sort.Slice(vulns, func(i, j int) bool { return vulns[i].Reported < vulns[j].Reported })
	for _, v := range vulns {
		fmt.Fprintf(&sb, "  %-16s %s -> %s  (%2d days, %s via %s)\n",
			v.CVE, v.Reported, v.Patched, v.Window(), v.Outcome, v.HostPass)
	}
	fmt.Fprintf(&sb, "\n  average window: %.1f days (paper: ~9 days)\n", vulndb.AverageWindowDays())
	n, cves := vulndb.MaxOverlap(2019)
	sort.Strings(cves)
	fmt.Fprintf(&sb, "  max simultaneous windows in 2019: %d (%s) (paper: 2)\n", n, strings.Join(cves, ", "))
	return sb.String()
}
