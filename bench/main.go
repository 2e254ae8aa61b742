// Command bench is the repository's end-to-end benchmark: six workloads
// through the public engine API, every output and verdict checked against a
// reference, five end-to-end metrics with tracing off, and a traced mode
// that fills a per-layer ledger. See bench/README.md and BENCHMARK.json.
//
//	bash bench/run.sh --workload octane_jit --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh --workload all --runs 5 --out A.json
//	bash bench/run.sh --compare A.json B.json
//	bash bench/run.sh --selfcheck
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"time"
)

func main() {
	workloadFlag := flag.String("workload", "all", "workload to run, or all (one child process per workload)")
	seed := flag.Int64("seed", 1, "fixes the order in which a pass visits the workload's programs")
	seconds := flag.Int("seconds", runSeconds, "how long to measure")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer ledger")
	out := flag.String("out", "", "append this run to a report file for -compare")
	runs := flag.Int("runs", 1, "with -workload all: how many times to run every workload")
	selfcheck := flag.Bool("selfcheck", false, "run every workload's counts twice and fail on any difference")
	compare := flag.Bool("compare", false, "compare two report files: -compare A.json B.json")
	regen := flag.Bool("regen-expected", false, "rebuild bench/expected.json with the interpreter")
	printJSON := flag.Bool("benchmark-json", false, "print BENCHMARK.json as generated from the metric tables")
	flag.Parse()

	switch {
	case *printJSON:
		data, err := benchmarkJSON()
		if err != nil {
			fatalf("%v", err)
		}
		os.Stdout.Write(data)
	case *regen:
		if err := regenExpected("bench/expected.json", fullSizes); err != nil {
			fatalf("regen-expected: %v", err)
		}
		fmt.Println("wrote bench/expected.json; review the diff by hand")
	case *compare:
		if flag.NArg() != 2 {
			fatalf("-compare wants two report files")
		}
		if !compareReports(flag.Arg(0), flag.Arg(1)) {
			os.Exit(1)
		}
	case *selfcheck:
		if !selfCheck(*seed, fullSizes) {
			os.Exit(1)
		}
	case *workloadFlag == "all":
		runAll(*seed, *seconds, *trace, *out, *runs)
	default:
		prov := newProvenance(*seed, *seconds, fullSizes)
		budget := time.Duration(*seconds) * time.Second
		var rec *runRecord
		var err error
		if *trace == 0 {
			rec, err = untracedRun(*workloadFlag, *seed, fullSizes, budget)
		} else {
			rec, err = tracedReport(*workloadFlag, *seed, fullSizes, budget)
		}
		if err != nil {
			fatalf("%s: %v", *workloadFlag, err)
		}
		if *out != "" {
			if err := appendRun(*out, prov, *rec); err != nil {
				fatalf("%v", err)
			}
		}
		fmt.Println(rec.resultLine())
	}
}

// runAll runs every workload in a child process of its own, so that
// peak_rss_mb is per workload, `runs` times over.
func runAll(seed int64, seconds, trace int, out string, runs int) {
	self, err := os.Executable()
	if err != nil {
		fatalf("%v", err)
	}
	for r := 0; r < runs; r++ {
		for _, name := range workloadNames {
			args := []string{"-workload", name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace)}
			if out != "" {
				args = append(args, "-out", out)
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fatalf("%s: %v", name, err)
			}
		}
	}
	fmt.Println(`{"claim": null}`)
}

// untracedRun measures the end-to-end metrics of one workload: set-up
// (several times, median), one discarded warm-up pass, then timed passes
// for the asked time and never fewer than five.
func untracedRun(name string, seed int64, sz sizes, budget time.Duration) (*runRecord, error) {
	w, setupS, err := timedSetup(name, seed, sz, time.Second)
	if err != nil {
		return nil, err
	}
	runPass(w, nil, nil) // process warm-up, discarded
	s := newSamples(w)
	rs := runPasses(w, nil, s, 5, budget)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}

	runS := summarise(wallSeconds(rs))
	var total passResult
	for _, r := range rs {
		total.absorb(r)
	}
	counts := rs[0].counts // the same every pass; -selfcheck verifies it
	rec := &runRecord{Workload: name, RunS: &runS, Attempted: total.attempted, Failed: total.failed, Correct: total.failed == 0}
	values := map[string]float64{
		"setup_s":         setupS.Median,
		"run_s":           runS.Median,
		"geomean_prog_ms": geomeanOfMedians(s.perProgram),
		"peak_rss_mb":     rss,
	}
	if rec.Metrics, err = toMetrics(endToEnd, values); err != nil {
		return nil, err
	}

	fmt.Printf("workload %s  seed %d  tracing off  programs %d x %d rounds\n", name, seed, len(w.programs), w.rounds)
	fmt.Printf("  %-18s %10.4f s    %s\n", "setup_s", setupS.Median, setupS)
	fmt.Printf("  %-18s %10.4f s    %s\n", "run_s", runS.Median, runS)
	fmt.Printf("  %-18s %10.4f ms\n", "geomean_prog_ms", values["geomean_prog_ms"])
	fmt.Printf("  %-18s %10.2f MB\n", "peak_rss_mb", rss)
	fmt.Printf("  %-18s %10.6f ratio  failed %d of %d attempted\n", "fail_ratio",
		ratio(float64(rec.Failed), float64(rec.Attempted)), rec.Failed, rec.Attempted)
	compile := time.Duration(counts[tCompileNs])
	fmt.Printf("  per pass: %d steps, %d compiles (%.1f%% of run_s), verdicts jit/disjit/nojit %d/%d/%d, %d matches, osr %d, deopt %d\n",
		counts[tSteps], counts[tCompiles], 100*ratio(compile.Seconds(), runS.Median),
		counts[tNrJIT], counts[tNrDisJIT], counts[tNrNoJIT], counts[tMatches], counts[tOSREntries], counts[tDeoptExits])
	if name == "vuln_window" {
		fmt.Printf("  security oracle: %d of %d script runs neutralised with >= 1 match\n",
			rec.Attempted-rec.Failed, rec.Attempted)
	}
	printFailures(s.failures)
	return rec, nil
}

// tracedReport runs the traced mode and prints the ledger.
func tracedReport(name string, seed int64, sz sizes, budget time.Duration) (*runRecord, error) {
	w, _, err := timedSetup(name, seed, sz, 0)
	if err != nil {
		return nil, err
	}
	res, err := tracedRun(w, fullEffort(budget), "bench/out")
	if err != nil {
		return nil, err
	}
	rec := &runRecord{Workload: name, Trace: 1, Attempted: res.total.attempted, Failed: res.total.failed,
		Correct: res.total.failed == 0}
	defs := perLayer()
	if rec.Metrics, err = toMetrics(defs, res.metrics); err != nil {
		return nil, err
	}

	fmt.Printf("workload %s  seed %d  tracing on  programs %d x %d rounds\n", name, seed, len(w.programs), w.rounds)
	fmt.Printf("  traced pass   %s s\n  untraced pass %s s\n", res.tracedS, res.untracedS)
	fmt.Printf("  ledger lines cover %.1f%% of the traced pass time; spans in %s\n", 100*res.coverage, res.traceFile)
	absent := map[string]bool{}
	for _, n := range contrastNames {
		absent[n] = res.metrics[n] == 0
	}
	for _, n := range []string{"mc.install.us_per_unit", "mc.release.us_per_unit", "mc.exec.ns_per_step"} {
		absent[n] = res.metrics[n] == 0
	}
	for _, d := range defs {
		if absent[d.Name] {
			fmt.Printf("  %-42s %14s %s\n", d.Name, "absent", d.Unit)
			continue
		}
		if isCount(d) {
			fmt.Printf("  %-42s %14.0f %s\n", d.Name, res.metrics[d.Name], d.Unit)
			continue
		}
		fmt.Printf("  %-42s %14.6g %s\n", d.Name, res.metrics[d.Name], d.Unit)
	}
	fmt.Printf("  vulndb.script.p99_ms has %d samples beyond it\n", res.beyondP99)
	for _, line := range res.derived {
		fmt.Printf("  derived (not a metric): %s\n", line)
	}
	fmt.Printf("  failed %d of %d attempted\n", rec.Failed, rec.Attempted)
	printFailures(res.failures)
	return rec, nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(1)
}

func printFailures(failures []string) {
	for _, f := range failures {
		fmt.Printf("  FAILED %s\n", f)
	}
}
