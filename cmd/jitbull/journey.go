package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/jitbull/jitbull"
	"github.com/jitbull/jitbull/internal/obs"
)

// cmdJourney renders tier-journey timelines: the per-function answer to
// "why is this function in this tier, and what happened along the way?".
// It has two modes. Given a journey.json file (written by
// `jitbull run -journey file`) it renders the saved journal. Given a
// script or -octane name it runs the program with a journal attached and
// renders the result directly — the one-command path for interactive
// triage.
func cmdJourney(args []string) error {
	fs := flag.NewFlagSet("journey", flag.ContinueOnError)
	fn := fs.String("fn", "", "render only this function's timeline")
	jsonOut := fs.Bool("json", false, "emit the journal as JSON instead of ASCII timelines")
	threshold := fs.Int("threshold", 0, "Ion compilation threshold for run mode (default 1500)")
	osr := fs.Bool("osr", false, "run mode: enable loop-header on-stack replacement")
	speculate := fs.Bool("speculate", false, "run mode: enable type speculation")
	async := fs.Bool("async", false, "run mode: compile off-thread")
	octaneName := fs.String("octane", "", "run a built-in benchmark instead of reading a file")
	scale := fs.Int("scale", 1, "outer-loop scale for -octane")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var journal *jitbull.Journal
	switch {
	case *octaneName != "":
		if fs.NArg() != 0 {
			return fmt.Errorf("journey: -octane and a file argument are mutually exclusive")
		}
		b, err := benchByName(*octaneName)
		if err != nil {
			return err
		}
		journal, err = journeyRun(b.Source(*scale), *threshold, *osr, *speculate, *async)
		if err != nil {
			return err
		}
	case fs.NArg() == 1:
		path := fs.Arg(0)
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		// A saved journal is a JSON object; anything else is a script to run.
		if strings.HasSuffix(path, ".json") {
			f, err := os.Open(path)
			if err != nil {
				return err
			}
			journal, err = obs.DecodeJourney(f)
			f.Close()
			if err != nil {
				return fmt.Errorf("journey: %s: %w", path, err)
			}
		} else {
			if journal, err = journeyRun(string(data), *threshold, *osr, *speculate, *async); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("journey: exactly one input (journey.json, script.js, or -octane name) expected")
	}

	if *jsonOut {
		if *fn != "" {
			return fmt.Errorf("journey: -fn and -json are mutually exclusive (filter the JSON downstream)")
		}
		return journal.WriteJSON(os.Stdout)
	}
	if *fn != "" {
		tl := journal.RenderTimeline(*fn)
		if tl == "" {
			return fmt.Errorf("journey: no events recorded for function %q (known: %s)",
				*fn, strings.Join(journal.Funcs(), ", "))
		}
		fmt.Print(tl)
		return nil
	}
	if out := journal.RenderAll(); out != "" {
		fmt.Print(out)
		return nil
	}
	fmt.Println("journey: no events recorded (nothing got warm enough to tier?)")
	return nil
}

// journeyRun executes src with a journal attached and returns the
// journal. Script output is suppressed — the timelines are the product.
func journeyRun(src string, threshold int, osr, speculate, async bool) (*jitbull.Journal, error) {
	journal := jitbull.NewJournal(0)
	cfg := jitbull.Config{
		IonThreshold: threshold,
		OSR:          osr,
		Speculate:    speculate,
		Tracer:       jitbull.NewTracer(journal),
	}
	if async {
		queue := jitbull.NewQueue(0, 0, nil)
		defer queue.Close()
		cfg.Queue = queue
	}
	eng, err := jitbull.New(src, cfg)
	if err != nil {
		return nil, err
	}
	if _, err := eng.Run(); err != nil && !jitbull.IsHijack(err) && !jitbull.IsCrash(err) {
		fmt.Fprintf(os.Stderr, "journey: script error: %v\n", err)
	}
	return journal, nil
}
