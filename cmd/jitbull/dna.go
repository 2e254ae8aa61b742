package main

// `jitbull dna`: extract and inspect JIT DNA (extract, diff, passes) and
// check a DNA database's integrity (verify).

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"github.com/jitbull/jitbull"
	"github.com/jitbull/jitbull/internal/core"
)

// cmdDNA dispatches the dna subcommands.
func cmdDNA(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("dna: missing subcommand (extract, diff, passes, verify)")
	}
	switch args[0] {
	case "extract":
		return cmdDNAExtract(args[1:])
	case "diff":
		return cmdDNADiff(args[1:])
	case "passes":
		for i, name := range jitbull.PassNames() {
			fmt.Printf("%2d  %s\n", i+1, name)
		}
		return nil
	case "verify":
		return cmdDNAVerify(args[1:])
	default:
		return fmt.Errorf("dna: unknown subcommand %q", args[0])
	}
}

// cmdDNAExtract compiles a script hot and prints the DNA of every JITed
// function as JSON.
func cmdDNAExtract(args []string) error {
	fs := flag.NewFlagSet("dna extract", flag.ContinueOnError)
	bugsFlag := fs.String("bugs", "", "comma-separated CVE ids to activate during compilation")
	threshold := fs.Int("threshold", 0, "Ion compilation threshold")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("dna extract: one script expected")
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	vdc, err := jitbull.Fingerprint("(extract)", string(src), parseBugs(*bugsFlag), *threshold)
	if err != nil {
		return err
	}
	out, err := json.MarshalIndent(vdc.DNAs, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// cmdDNADiff compares two extract dumps function by function and prints
// one MATCH line per pass at which the detector would call them similar.
func cmdDNADiff(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("dna diff: two DNA dump files expected")
	}
	a, err := loadDNADump(args[0])
	if err != nil {
		return err
	}
	b, err := loadDNADump(args[1])
	if err != nil {
		return err
	}
	for _, da := range a {
		for _, db := range b {
			var passNames []string
			for p := range da.Passes {
				if _, ok := db.Passes[p]; ok {
					passNames = append(passNames, p)
				}
			}
			sort.Strings(passNames)
			for _, p := range passNames {
				if core.SimilarDeltas(da.Passes[p], db.Passes[p], core.DefaultRatio, core.DefaultThr) {
					fmt.Printf("MATCH %s(%s) ~ %s(%s) at pass %s\n",
						args[0], da.FuncName, args[1], db.FuncName, p)
				}
			}
		}
	}
	return nil
}

func loadDNADump(path string) ([]core.DNA, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var dnas []core.DNA
	if err := json.Unmarshal(data, &dnas); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return dnas, nil
}

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
	db, err := core.LoadDatabase(path) // validates what it loads
	if err != nil {
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
