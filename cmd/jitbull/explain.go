package main

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"github.com/jitbull/jitbull/internal/obs"
)

// explain renders fn's lifecycle as the ring kept it: one line per fact
// with its offset from the first, its tier and its other arguments, the
// duration of a compile, decide or osr.enter span, and under every decide
// one line per match (CVE, VDC function, pass, side, witness chain). It is
// a reading of the stream `run -trace` exports, not a store of its own.
func explain(w io.Writer, ring *obs.Ring, fn string) error {
	byFunc := obs.Lifecycles(ring.Events())
	facts := byFunc[fn]
	if len(facts) == 0 {
		known := make([]string, 0, len(byFunc))
		for name := range byFunc {
			known = append(known, name)
		}
		sort.Strings(known)
		return fmt.Errorf("explain: no facts recorded for function %q (known: %s)", fn, strings.Join(known, ", "))
	}
	fmt.Fprintf(w, "%s — %d fact(s)\n", fn, len(facts))
	if d := ring.Dropped(); d > 0 {
		fmt.Fprintf(w, "  note: the ring dropped its %d oldest event(s); %s's earliest facts may be missing\n", d, fn)
	}
	base := facts[0].TS + facts[0].Dur
	for _, ev := range facts {
		tier := ev.Str("tier")
		if tier == "" {
			tier = "-"
		}
		line := fmt.Sprintf("  %10.3fms  %-18s tier=%-9s %s", float64(ev.TS+ev.Dur-base)/1e6, ev.Name, tier, details(ev))
		fmt.Fprintln(w, strings.TrimRight(line, " "))
		if ev.Decision == nil {
			continue
		}
		for _, m := range ev.Decision.Matches {
			witness := "no witness chain"
			if m.Chain != "" {
				witness = m.Side + " chain " + m.Chain
			}
			fmt.Fprintf(w, "                match %s vdc=%s pass=%s %s\n", m.CVE, m.VDCFunc, m.Pass, witness)
		}
	}
	return nil
}

// details renders a fact's duration where it measures work (compile,
// decide, osr.enter) and its arguments, the tier apart, as "k=v k=v"; a
// reason is free text and stands without its key, as does a decision's.
func details(ev obs.Event) string {
	var parts []string
	switch ev.Name {
	case obs.FactCompile, obs.FactDecide, obs.FactOSREnter:
		parts = append(parts, fmt.Sprintf("dur=%.3fms", float64(ev.Dur)/1e6))
	}
	for _, a := range ev.Args[:ev.NArgs] {
		switch {
		case a.Key == "tier":
		case a.Key == "reason":
			parts = append(parts, a.Str)
		case a.IsStr:
			parts = append(parts, a.Key+"="+a.Str)
		default:
			parts = append(parts, fmt.Sprintf("%s=%d", a.Key, a.Val))
		}
	}
	if d := ev.Decision; d != nil {
		if len(d.DisabledPasses) > 0 {
			parts = append(parts, "passes=["+strings.Join(d.DisabledPasses, ",")+"]")
		}
		if d.Reason != "" {
			parts = append(parts, d.Reason)
		}
	}
	return strings.Join(parts, " ")
}
