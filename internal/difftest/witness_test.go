package difftest

import (
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/jitbull/jitbull/internal/core"
	"github.com/jitbull/jitbull/internal/vulndb"
)

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
// function of the DNA and the database contents, not of how the database
// came to be. DB #8 built here and the same database loaded back from
// disk must name the same witnesses for every demonstrator; otherwise the
// same verdict would name different witnesses depending on how its
// database was built.
func TestWitnessIndependentOfInterningHistory(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every demonstrator under two databases")
	}
	db, _, err := vulndb.BuildDB(8, 0)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "db.json")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	loadedDB, err := core.LoadDatabase(path)
	if err != nil {
		t.Fatal(err)
	}
	built, loaded := demonstratorWitnesses(db), demonstratorWitnesses(loadedDB)
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
