package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/jitbull/jitbull/internal/difftest"
	"github.com/jitbull/jitbull/internal/progen"
)

// cmdDiff runs the differential-execution oracle: one script (or a range of
// generated programs) under the full configuration matrix, reporting any
// divergence from the interpreter — and, for the NoMC/NoFuse executor
// cells, any step-count or verdict divergence from their twin — and
// optionally shrinking the offending program to a minimal reproducer.
func cmdDiff(args []string) error {
	fs := flag.NewFlagSet("diff", flag.ContinueOnError)
	seed := fs.Int64("seed", -1, "run the generated program with this seed")
	seeds := fs.Int("seeds", 0, "sweep generated seeds 0..N-1")
	bugsFlag := fs.String("bugs", "", "comma-separated CVE ids of injected bugs to activate in the JIT cells")
	shrink := fs.Bool("shrink", false, "minimize a diverging program before printing it")
	withJitbull := fs.Bool("jitbull", false, "add a JITBULL-protected cell (builds a VDC database first; slow)")
	variants := fs.Bool("variants", true, "add renamed and minified source-transform cells")
	checkIR := fs.Bool("checkir", true, "add a cell that runs the SSA verifier after every pass")
	if err := fs.Parse(args); err != nil {
		return err
	}
	configs := difftest.Matrix(difftest.Options{
		Bugs:     parseBugs(*bugsFlag),
		JITBULL:  *withJitbull,
		Variants: *variants,
		CheckIR:  *checkIR,
		Fusion:   true,
		MC:       true,
	})

	type prog struct {
		label string
		src   string
	}
	var progs []prog
	switch {
	case fs.NArg() == 1:
		src, err := os.ReadFile(fs.Arg(0))
		if err != nil {
			return err
		}
		progs = append(progs, prog{fs.Arg(0), string(src)})
	case fs.NArg() != 0:
		return fmt.Errorf("diff: at most one script expected")
	case *seed >= 0:
		progs = append(progs, prog{fmt.Sprintf("seed %d", *seed), progen.Generate(*seed, progen.Options{})})
	case *seeds > 0:
		for s := int64(0); s < int64(*seeds); s++ {
			progs = append(progs, prog{fmt.Sprintf("seed %d", s), progen.Generate(s, progen.Options{})})
		}
	default:
		return fmt.Errorf("diff: need a script, -seed, or -seeds")
	}
	fmt.Printf("matrix: %d configurations, reference %s\n", len(configs), configs[0].Name)

	diverged := 0
	for _, p := range progs {
		_, divs := difftest.Diff(p.src, configs)
		if len(divs) == 0 {
			fmt.Printf("%s: ok\n", p.label)
			continue
		}
		diverged++
		fmt.Print(difftest.Report(p.label, divs))
		src := p.src
		if *shrink {
			min, minDivs := difftest.ShrinkDivergence(src, configs)
			fmt.Printf("shrunk %d -> %d statements\n", difftest.StatementCount(src), difftest.StatementCount(min))
			fmt.Print(difftest.Report(p.label+" (shrunk)", minDivs))
			src = min
		}
		fmt.Printf("program:\n%s\n", src)
	}
	if diverged > 0 {
		return fmt.Errorf("%d of %d programs diverged", diverged, len(progs))
	}
	fmt.Printf("%d program(s), no divergences\n", len(progs))
	return nil
}
