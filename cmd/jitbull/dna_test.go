package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/jitbull/jitbull"
	"github.com/jitbull/jitbull/internal/core"
)

// runToFile runs one jitbull command line with stdout redirected to path.
func runToFile(t *testing.T, path string, args ...string) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = f
	err = run(args)
	os.Stdout = stdout
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatalf("jitbull %s: %v", strings.Join(args, " "), err)
	}
}

// TestDNAExtractAndDiff drives `jitbull dna extract` and `dna diff` on the
// CVE-2019-9813 demonstrator. Compiled by a patched engine the
// demonstrator leaves no Δ the comparator calls similar, so two such dumps
// are byte-identical and their diff prints nothing; compiled with the bug
// active, the miscompilation leaves the Δ a VDC is made of, and the diff
// prints the pass it shows up at.
func TestDNAExtractAndDiff(t *testing.T) {
	const cve = "CVE-2019-9813"
	demo, err := jitbull.VulnerabilityByID(cve)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	in := func(name string) string { return filepath.Join(dir, name) }
	if err := os.WriteFile(in("demo.js"), []byte(demo.Demonstrator), 0o644); err != nil {
		t.Fatal(err)
	}
	read := func(name string) string {
		data, err := os.ReadFile(in(name))
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}

	runToFile(t, in("a.json"), "dna", "extract", "-threshold", "300", in("demo.js"))
	runToFile(t, in("b.json"), "dna", "extract", "-threshold", "300", in("demo.js"))
	if a := read("a.json"); a != read("b.json") || !strings.Contains(a, `"func"`) {
		t.Fatalf("two extractions of one script differ, or extracted nothing:\n%s", a)
	}
	runToFile(t, in("patched.diff"), "dna", "diff", in("a.json"), in("b.json"))
	if out := read("patched.diff"); out != "" {
		t.Errorf("patched engine: dna diff printed\n%swant nothing", out)
	}

	runToFile(t, in("c.json"), "dna", "extract", "-threshold", "300", "-bugs", cve, in("demo.js"))
	runToFile(t, in("window.diff"), "dna", "diff", in("c.json"), in("c.json"))
	if out := read("window.diff"); !strings.HasPrefix(out, "MATCH ") {
		t.Errorf("bug active: dna diff printed %q, want a MATCH line", out)
	}
}

// TestDNAVerifyAndFailSafe drives the checksummed DNA database file through
// the CLI: `dna verify` accepts a freshly fingerprinted database, and once
// one payload byte is flipped it refuses the file as corrupt, while `run
// -db` on the damaged file fails safe — the demonstrator's hot function is
// judged NoJIT instead of running unprotected.
func TestDNAVerifyAndFailSafe(t *testing.T) {
	const cve = "CVE-2019-17026"
	demo, err := jitbull.VulnerabilityByID(cve)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	in := func(name string) string { return filepath.Join(dir, name) }
	if err := os.WriteFile(in("demo.js"), []byte(demo.Demonstrator), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := runStderr(t, "fingerprint", "-cve", cve, "-db", in("db.json"), in("demo.js")); err != nil {
		t.Fatalf("fingerprint: %v", err)
	}
	out, _, err := runCaptured(t, "dna", "verify", in("db.json"))
	if err != nil || !strings.Contains(out, "dna verify: "+in("db.json")+" OK (1 VDCs") {
		t.Fatalf("dna verify of a fresh database: err %v, printed %q", err, out)
	}

	// Flip one byte of the payload: a digit of the CVE name, so the file
	// still parses and only the checksum can tell.
	data, err := os.ReadFile(in("db.json"))
	if err != nil {
		t.Fatal(err)
	}
	payload := strings.Index(string(data), `"payload"`)
	at := strings.Index(string(data[payload:]), cve)
	if payload < 0 || at < 0 {
		t.Fatalf("no %s in the payload of\n%s", cve, data)
	}
	data[payload+at+len("CVE-")] ^= 1
	if err := os.WriteFile(in("db.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := runCaptured(t, "dna", "verify", in("db.json")); !core.IsCorrupt(err) || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("dna verify of a flipped byte: %v, want a checksum CorruptError", err)
	}

	stderr, err := runStderr(t, "run", "-bugs", cve, "-db", in("db.json"), "-stats", in("demo.js"))
	if err != nil {
		t.Fatalf("run -db on a damaged database: %v\n%s", err, stderr)
	}
	for _, want := range []string{"failing safe", "NrJIT:1 NrDisJIT:0 NrNoJIT:1 "} {
		if !strings.Contains(stderr, want) {
			t.Errorf("run -db on a damaged database lacks %q:\n%s", want, stderr)
		}
	}
}
