package main

// Offline integrity tooling: `jitbull dna verify` for the VDC DNA
// database, `jitbull store verify` for the persistent artifact/verdict
// store, and `jitbull store chaos` for the disk-fault campaign. All three
// exit non-zero when they find corruption (or an invariant violation), so
// CI and operators can gate on them directly.

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"github.com/jitbull/jitbull/internal/core"
	"github.com/jitbull/jitbull/internal/difftest"
	"github.com/jitbull/jitbull/internal/store"
)

// cmdDNAVerify loads a DNA database through the full envelope discipline
// (format, version, crc32c) plus structural validation, and reports what
// it found. Any failure — unreadable, corrupt, version-skewed, or
// structurally invalid — is an error, i.e. a non-zero exit.
func cmdDNAVerify(args []string) error {
	fs := flag.NewFlagSet("dna verify", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("dna verify: exactly one database file expected")
	}
	path := fs.Arg(0)
	db, err := core.LoadDatabase(path)
	if err != nil {
		return fmt.Errorf("dna verify: %s: %w", path, err)
	}
	if err := db.Validate(); err != nil {
		return fmt.Errorf("dna verify: %s: %w", path, err)
	}
	nDNAs := 0
	for _, v := range db.VDCs {
		nDNAs += len(v.DNAs)
	}
	fmt.Printf("dna verify: %s OK (%d VDCs, %d function DNAs, fingerprint %016x)\n",
		path, db.Size(), nDNAs, db.Fingerprint())
	return nil
}

// cmdStore dispatches the store subcommands.
func cmdStore(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("store: missing subcommand (verify, chaos)")
	}
	switch args[0] {
	case "verify":
		return cmdStoreVerify(args[1:])
	case "chaos":
		return cmdStoreChaos(args[1:])
	default:
		return fmt.Errorf("store: unknown subcommand %q", args[0])
	}
}

// cmdStoreVerify runs the offline integrity scan over a store directory.
// With -quarantine, untrustworthy records are moved aside (the same
// degradation a live Get applies); without it the scan is read-only.
// Any problem found exits non-zero.
func cmdStoreVerify(args []string) error {
	fs := flag.NewFlagSet("store verify", flag.ContinueOnError)
	quar := fs.Bool("quarantine", false, "move untrustworthy records into the quarantine directory instead of only reporting them")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("store verify: exactly one store directory expected")
	}
	dir := fs.Arg(0)
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return fmt.Errorf("store verify: %w", err)
	}
	rep, err := st.Verify(*quar)
	if err != nil {
		return fmt.Errorf("store verify: %w", err)
	}
	for _, p := range rep.Problems {
		fmt.Printf("store verify: BAD %s: %s\n", p.Path, p.Reason)
	}
	fmt.Printf("store verify: %s: %d record(s) checked, %d OK, %d problem(s), %d quarantined\n",
		dir, rep.Checked, rep.OK, len(rep.Problems), rep.Quarantined)
	if len(rep.Problems) > 0 {
		return fmt.Errorf("store verify: %d corrupt record(s)", len(rep.Problems))
	}
	return nil
}

// cmdStoreChaos runs the disk-fault chaos campaign: every (store point ×
// fault kind) cell swept deterministically, each run checked for escaped
// panics, interpreter divergence, wrong verdicts, 1:1 fault accounting
// and surviving corrupt records. Failures are written as JSON
// reproducers compatible with the compile-path campaign's format.
func cmdStoreChaos(args []string) error {
	fs := flag.NewFlagSet("store chaos", flag.ContinueOnError)
	runs := fs.Int("runs", 208, "number of runs (208 = 13 full point-by-kind sweeps)")
	seed := fs.Int64("seed", 1, "base seed (run i uses seed+i for program and schedule)")
	out := fs.String("out", "", "write failure reproducers (JSON) to this file")
	dir := fs.String("dir", "", "scratch root for the per-run store directories (default: a temp dir, removed afterwards)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("store chaos: unexpected arguments %v", fs.Args())
	}
	scratch := *dir
	if scratch == "" {
		tmp, err := os.MkdirTemp("", "jitbull-store-chaos-")
		if err != nil {
			return fmt.Errorf("store chaos: %w", err)
		}
		defer os.RemoveAll(tmp)
		scratch = tmp
	} else if err := os.MkdirAll(scratch, 0o755); err != nil {
		return fmt.Errorf("store chaos: %w", err)
	}
	res := difftest.StoreChaos(difftest.StoreChaosOptions{Seed: *seed, Runs: *runs, Dir: scratch})
	fmt.Printf("store chaos: %s\n", res.Summary())
	for i, f := range res.Failures {
		if i >= 5 {
			fmt.Printf("  ... and %d more\n", len(res.Failures)-i)
			break
		}
		fmt.Printf("  %s\n", f)
	}
	if *out != "" && len(res.Failures) > 0 {
		data, err := json.MarshalIndent(res.Failures, "", "  ")
		if err != nil {
			return fmt.Errorf("store chaos: marshal reproducers: %w", err)
		}
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			return fmt.Errorf("store chaos: write reproducers: %w", err)
		}
		fmt.Printf("store chaos: wrote %d reproducer(s) to %s\n", len(res.Failures), *out)
	}
	if res.FaultsFired == 0 {
		return fmt.Errorf("store chaos: no faults fired — the store boundary was never exercised")
	}
	if !res.OK() {
		return fmt.Errorf("store chaos: %d run(s) violated an invariant", len(res.Failures))
	}
	return nil
}
