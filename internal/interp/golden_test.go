package interp_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"github.com/jitbull/jitbull/internal/engine"
	"github.com/jitbull/jitbull/internal/octane"
	"github.com/jitbull/jitbull/internal/progen"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.json from the current interpreter")

// goldenRun is what one interpreted program must reproduce bit for bit:
// the `result` global, a digest of everything printed, the error text (if
// any) and the exact number of bytecode instructions executed.
type goldenRun struct {
	Name   string `json:"name"`
	Result string `json:"result"`
	Output string `json:"output_sha256"`
	Err    string `json:"err,omitempty"`
	Steps  int64  `json:"steps"`
}

// goldenCorpus is the 15 Octane analogues at Source(1) and progen seeds
// 1000–1063 with default options.
func goldenCorpus() (names, srcs []string) {
	for _, b := range octane.All() {
		names = append(names, b.Name)
		srcs = append(srcs, b.Source(1))
	}
	for seed := int64(1000); seed < 1064; seed++ {
		names = append(names, fmt.Sprintf("progen-%d", seed))
		srcs = append(srcs, progen.Generate(seed, progen.Options{}))
	}
	return names, srcs
}

// TestGoldenInterpreterRuns pins the interpreter's observable behaviour —
// result, output and step count — on the benign corpora. The golden file
// was written before the interpreter loop was rewritten; interpreter steps
// are exact, so any drift in step charging or semantics shows here.
func TestGoldenInterpreterRuns(t *testing.T) {
	names, srcs := goldenCorpus()
	got := make([]goldenRun, len(names))
	for i, src := range srcs {
		var out bytes.Buffer
		e, _, err := engine.RunScript(src, engine.Config{DisableJIT: true, Out: &out})
		if e == nil {
			t.Fatalf("%s: %v", names[i], err)
		}
		sum := sha256.Sum256(out.Bytes())
		got[i] = goldenRun{
			Name:   names[i],
			Result: e.Global("result").ToString(),
			Output: hex.EncodeToString(sum[:]),
			Steps:  e.VM.Steps(),
		}
		if err != nil {
			got[i].Err = err.Error()
		}
	}

	const path = "testdata/golden.json"
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenRun
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(want) != len(got) {
		t.Fatalf("%s has %d runs, the corpus has %d (rerun with -update only if the corpus changed)", path, len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s:\n got  %+v\n want %+v", got[i].Name, got[i], want[i])
		}
	}
}
