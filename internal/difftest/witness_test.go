package difftest

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/jitbull/jitbull/internal/core"
	"github.com/jitbull/jitbull/internal/vulndb"
)

// witnessDBEnv names the database file the re-executed child of
// TestWitnessIndependentOfInterningHistory loads.
const witnessDBEnv = "JITBULL_WITNESS_DB"

// witnessLine prefixes the child's one line of output.
const witnessLine = "witnesses: "

// demonstratorWitnesses runs every demonstrator under db and renders each
// run's matches with their witness chains by text.
func demonstratorWitnesses(db *core.Database) map[string][]string {
	out := map[string][]string{}
	for _, v := range vulndb.All() {
		var ms []string
		for _, m := range vulndb.Run(v.Demonstrator, v.Bug(), db, 0).Matches {
			ms = append(ms, fmt.Sprintf("%s %s/%s %s %s", m.CVE, m.VDCFunc, m.Pass, m.Side, m.Chain))
		}
		out[v.CVE] = ms
	}
	return out
}

// TestWitnessIndependentOfInterningHistory: a match's witness chain is a
// function of the DNA and the database contents, not of the order in
// which this process happened to intern chains. DB #8 built here and the
// same database loaded from disk into a fresh process (a re-executed test
// binary, whose interner has seen nothing else) must name the same
// witnesses for every demonstrator; otherwise the same verdict would name
// different witnesses depending on how its database was built.
func TestWitnessIndependentOfInterningHistory(t *testing.T) {
	if path := os.Getenv(witnessDBEnv); path != "" {
		db, err := core.LoadDatabase(path)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(demonstratorWitnesses(db))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Println(witnessLine + string(data))
		return
	}
	if testing.Short() {
		t.Skip("re-executes the test binary over every demonstrator")
	}
	db, _, err := vulndb.BuildDB(8, 0)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "db.json")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	built := demonstratorWitnesses(db)

	cmd := exec.Command(os.Args[0], "-test.run=^TestWitnessIndependentOfInterningHistory$")
	cmd.Env = append(os.Environ(), witnessDBEnv+"="+path)
	stdout, err := cmd.Output()
	if err != nil {
		t.Fatalf("child: %v\n%s", err, stdout)
	}
	var loaded map[string][]string
	for sc := bufio.NewScanner(bytes.NewReader(stdout)); sc.Scan(); {
		if rest, ok := strings.CutPrefix(sc.Text(), witnessLine); ok {
			if err := json.Unmarshal([]byte(rest), &loaded); err != nil {
				t.Fatal(err)
			}
		}
	}
	if loaded == nil {
		t.Fatalf("child printed no witnesses:\n%s", stdout)
	}
	matched := 0
	for cve, want := range built {
		matched += len(want)
		if got := loaded[cve]; !reflect.DeepEqual(got, want) {
			t.Errorf("%s: loaded database names\n%q\nthe built one\n%q", cve, got, want)
		}
	}
	if matched == 0 {
		t.Fatal("no demonstrator matched: the test pins nothing")
	}
}
