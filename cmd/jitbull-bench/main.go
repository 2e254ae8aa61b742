// Command jitbull-bench regenerates the tables and figures of the paper's
// evaluation as text, in the paper's shapes. With no flags it prints all
// of them.
//
//	jitbull-bench -table1 -table2 -window    # static tables
//	jitbull-bench -security                  # §VI-B detection matrix
//	jitbull-bench -fig4                      # false-positive rates
//	jitbull-bench -fig5 -scale 5 -repeats 3  # execution times
//	jitbull-bench -fig6                      # scalability #1..#8
//	jitbull-bench -ablation                  # comparator Thr/Ratio sweep
//
// Corpus experiments fan out across -workers engines. Nothing here gates
// or records: timings that are compared against anything come from bench/
// (bash bench/run.sh), which checks every output and measures each
// contrast inside one process.
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/jitbull/jitbull/internal/experiments"
)

func main() {
	var (
		table1   = flag.Bool("table1", false, "print the Table I vulnerability survey")
		table2   = flag.Bool("table2", false, "print the execution environment (Table II)")
		window   = flag.Bool("window", false, "print the vulnerability-window analysis (§III-C/§VI-D)")
		security = flag.Bool("security", false, "run the §VI-B security matrix")
		fig4     = flag.Bool("fig4", false, "run the Figure 4 false-positive experiment")
		fig5     = flag.Bool("fig5", false, "run the Figure 5 execution-time experiment")
		fig6     = flag.Bool("fig6", false, "run the Figure 6 scalability experiment")
		ablation = flag.Bool("ablation", false, "sweep the comparator's Thr/Ratio settings")
		scale    = flag.Int("scale", 4, "benchmark iteration scale for timing experiments")
		repeats  = flag.Int("repeats", 3, "timing repetitions (minimum reported)")
		thr      = flag.Int("threshold", 100, "Ion compilation threshold for benchmark runs")
		workers  = flag.Int("workers", 1, "worker pool size for corpus experiments (0 = GOMAXPROCS)")
	)
	flag.Parse()
	all := !(*table1 || *table2 || *window || *security || *fig4 || *fig5 || *fig6 || *ablation)
	cfg := experiments.Config{IonThreshold: *thr, Repeats: *repeats, Scale: *scale, Workers: *workers}

	if err := run(all, *table1, *table2, *window, *security, *fig4, *fig5, *fig6, *ablation, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "jitbull-bench:", err)
		os.Exit(1)
	}
}

func run(all, table1, table2, window, security, fig4, fig5, fig6, ablation bool, cfg experiments.Config) error {
	if all || table2 {
		fmt.Println(experiments.TableII())
	}
	if all || table1 {
		fmt.Println(experiments.TableI())
	}
	if all || window {
		fmt.Println(experiments.WindowReport())
	}
	if all || security {
		secCfg := cfg
		secCfg.IonThreshold = 300 // demonstrators train 2000+ calls
		rows, err := experiments.SecurityMatrix(secCfg)
		if err != nil {
			return fmt.Errorf("security matrix: %w", err)
		}
		fmt.Println(experiments.RenderSecurityMatrix(rows))
	}
	if all || fig4 {
		for _, n := range []int{1, 4} {
			rows, err := experiments.FalsePositives(n, cfg)
			if err != nil {
				return fmt.Errorf("figure 4 (#%d): %w", n, err)
			}
			fmt.Println(experiments.RenderFalsePositives(n, rows))
		}
	}
	if all || fig5 {
		rows, err := experiments.Performance(nil, cfg)
		if err != nil {
			return fmt.Errorf("figure 5: %w", err)
		}
		fmt.Println(experiments.RenderPerformance(rows))
	}
	if all || fig6 {
		rows, err := experiments.Scalability(nil, 8, cfg)
		if err != nil {
			return fmt.Errorf("figure 6: %w", err)
		}
		fmt.Println(experiments.RenderScalability(rows))
	}
	if all || ablation {
		ablCfg := cfg
		ablCfg.IonThreshold = 300 // demonstrators train 2000+ calls
		rows, err := experiments.ThresholdAblation(ablCfg)
		if err != nil {
			return fmt.Errorf("ablation: %w", err)
		}
		fmt.Println(experiments.RenderAblation(rows))
	}
	return nil
}
