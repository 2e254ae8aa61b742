package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/jitbull/jitbull"
)

// runCaptured runs one jitbull command line and returns what it wrote to
// stdout and to stderr, and its error.
func runCaptured(t *testing.T, args ...string) (stdout, stderr string, err error) {
	t.Helper()
	dir := t.TempDir()
	outf, err := os.Create(filepath.Join(dir, "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	errf, err := os.Create(filepath.Join(dir, "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	saveOut, saveErr := os.Stdout, os.Stderr
	os.Stdout, os.Stderr = outf, errf
	runErr := run(args)
	os.Stdout, os.Stderr = saveOut, saveErr
	outf.Close()
	errf.Close()
	read := func(f *os.File) string {
		data, err := os.ReadFile(f.Name())
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	return read(outf), read(errf), runErr
}

// runStderr is runCaptured with stdout discarded.
func runStderr(t *testing.T, args ...string) (string, error) {
	t.Helper()
	_, stderr, err := runCaptured(t, args...)
	return stderr, err
}

// TestRunExplain drives `jitbull run -explain`: under a database holding
// the CVE-2019-17026 fingerprint, the victim function's decide fact
// explains its disable-pass verdict with the CVE, the pass and the witness
// chain; on the deopt-storm script the storming function's lifecycle shows
// the OSR entry, the eight deopts and the requalification; an unknown
// function is an error that names the known ones.
func TestRunExplain(t *testing.T) {
	const cve = "CVE-2019-17026"
	demo, err := jitbull.VulnerabilityByID(cve)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	in := func(name string) string { return filepath.Join(dir, name) }
	write := func(name, src string) {
		if err := os.WriteFile(in(name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("demo.js", demo.Demonstrator)
	if _, err := runStderr(t, "fingerprint", "-cve", cve, "-db", in("db.json"), in("demo.js")); err != nil {
		t.Fatalf("fingerprint: %v", err)
	}
	out, err := runStderr(t, "run", "-bugs", cve, "-db", in("db.json"), "-explain", "oob", in("demo.js"))
	if err != nil {
		t.Fatalf("run -explain oob: %v\n%s", err, out)
	}
	var chain string
	for _, line := range strings.Split(out, "\n") {
		if _, c, ok := strings.Cut(line, " chain "); ok && strings.Contains(line, "match "+cve) {
			chain = c
		}
	}
	for _, want := range []string{"decide", "disable-pass", "match " + cve, "pass=GVN"} {
		if !strings.Contains(out, want) {
			t.Errorf("explain oob lacks %q:\n%s", want, out)
		}
	}
	if chain == "" || !strings.Contains(chain, "→") {
		t.Errorf("explain oob names no witness chain:\n%s", out)
	}

	write("storm.js", stormScript)
	out, err = runStderr(t, "run", "-threshold", "10", "-osr", "-speculate", "-explain", "hot", in("storm.js"))
	if err != nil {
		t.Fatalf("run -explain hot: %v\n%s", err, out)
	}
	facts := map[string]int{}
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) > 1 && strings.HasSuffix(f[0], "ms") {
			facts[f[1]]++
		}
	}
	if facts["osr.enter"] == 0 || facts["deopt"] != 8 || facts["requalified"] != 1 {
		t.Errorf("explain hot: osr.enter ×%d, deopt ×%d, requalified ×%d; want ≥1, 8, 1:\n%s",
			facts["osr.enter"], facts["deopt"], facts["requalified"], out)
	}

	_, err = runStderr(t, "run", "-explain", "nope", in("storm.js"))
	if err == nil || !strings.Contains(err.Error(), `"nope"`) || !strings.Contains(err.Error(), "hot") {
		t.Errorf("unknown function: err = %v, want one naming it and the known functions", err)
	}
}

// stormScript is the deopt-storm program of the CI obs job: hot's
// speculation on flip's result fails eight times, the engine's deopt-storm
// requalification threshold, and hot is requalified without
// TypeSpeculation.
const stormScript = `
function flip(p, q) { if (p < 300) { return (q + p * 2) % 1000003; } return; }
function hot(n) { var s = 0; var i = 0; while (i < n) { var c = flip(i, s); if (c) { s = (s + c) % 1000003; } i = i + 1; } return s; }
var result = 0; for (var r = 0; r < 24; r++) { result = (result + hot(600)) % 1000003; } print(result);
`
