package core_test

// Chain and token IDs belong to the database's match index: what a
// compile numbers beyond it is its own, and a database's IDs depend on
// its contents alone.

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/jitbull/jitbull/internal/core"
	"github.com/jitbull/jitbull/internal/mirbuild"
	"github.com/jitbull/jitbull/internal/passes"
	"github.com/jitbull/jitbull/internal/vulndb"
)

// postedChains returns the chains db posts at thr — every chain of a delta
// side holding at least thr of them — and their tokens, each sorted.
func postedChains(db *core.Database, thr int) (chains, toks []string) {
	cs, ts := map[string]bool{}, map[string]bool{}
	for _, v := range db.VDCs {
		for _, dna := range v.DNAs {
			for _, d := range dna.Passes {
				for _, side := range [][]string{d.Removed, d.Added} {
					if len(side) < max(thr, 1) {
						continue
					}
					for _, c := range side {
						cs[c] = true
						for _, t := range strings.Split(c, "→") {
							ts[t] = true
						}
					}
				}
			}
		}
	}
	sorted := func(m map[string]bool) []string {
		out := make([]string, 0, len(m))
		for k := range m {
			out = append(out, k)
		}
		slices.Sort(out)
		return out
	}
	return sorted(cs), sorted(ts)
}

// checkVocabulary holds db's index at thr to the chains db posts.
func checkVocabulary(t *testing.T, db *core.Database, thr int) {
	t.Helper()
	wantChains, wantToks := postedChains(db, thr)
	chains, toks := db.Index(thr).Vocabulary()
	if !reflect.DeepEqual(chains, wantChains) {
		t.Errorf("index chains:\n%q\nposted:\n%q", chains, wantChains)
	}
	if !reflect.DeepEqual(toks, wantToks) {
		t.Errorf("index tokens:\n%q\nposted:\n%q", toks, wantToks)
	}
}

// TestIndexVocabularyIsTheDatabases: after a judged compile of every storm
// function under DB #8, the index vocabulary is exactly the chains DB #8
// posts at Thr 3 and their tokens — nothing a compile met joins it — and
// the extractor each compile released holds no compile-local token or
// chain.
func TestIndexVocabularyIsTheDatabases(t *testing.T) {
	funcs, err := stormFuncs()
	if err != nil {
		t.Fatal(err)
	}
	db, bugs, err := vulndb.BuildDB(8, benchIonThreshold)
	if err != nil {
		t.Fatal(err)
	}
	det := core.NewDetector(db)
	checkVocabulary(t, db, det.Thr)
	reused := 0
	for _, f := range funcs {
		g, err := mirbuild.Build(f.prog, f.fd, f.opts)
		if err != nil {
			t.Fatal(err)
		}
		observe, finish := det.BeginCompile(f.fd.Name)
		if err := passes.RunWith(g, passes.RunOptions{Bugs: bugs, Observer: observe, Watch: det.Watches}); err != nil {
			t.Fatal(err)
		}
		finish()
		toks, chains, used := core.PooledExtractorLocals()
		if toks+chains != 0 {
			t.Fatalf("%s: a released extractor holds %d local tokens and %d local chains", f.fd.Name, toks, chains)
		}
		if used {
			reused++
		}
	}
	checkVocabulary(t, db, det.Thr)
	chains, toks := db.Index(det.Thr).Vocabulary()
	t.Logf("%d storm functions: the vocabulary holds %d chains and %d tokens; %d released extractors checked",
		len(funcs), len(chains), len(toks), reused)
	if reused == 0 {
		t.Error("the pool never handed a released extractor back: nothing was checked")
	}
}

// TestIDsFollowContentNotHistory: two databases holding the same VDCs,
// added in opposite orders, number their chains alike and give the same
// verdicts, witnesses included, for every VDC function's own DNA.
func TestIDsFollowContentNotHistory(t *testing.T) {
	db, _, err := vulndb.BuildDB(8, benchIonThreshold)
	if err != nil {
		t.Fatal(err)
	}
	rev := &core.Database{}
	for i := len(db.VDCs) - 1; i >= 0; i-- {
		rev.Add(db.VDCs[i])
	}
	a, b := db.Index(core.DefaultThr), rev.Index(core.DefaultThr)
	ac, at := a.Vocabulary()
	bc, bt := b.Vocabulary()
	if !reflect.DeepEqual(ac, bc) || !reflect.DeepEqual(at, bt) {
		t.Fatal("the two orders number their chains or tokens differently")
	}
	da, dr := core.NewDetector(db), core.NewDetector(rev)
	matched := 0
	for _, v := range db.VDCs {
		for i := range v.DNAs {
			want, got := da.Decide(&v.DNAs[i]), dr.Decide(&v.DNAs[i])
			if !reflect.DeepEqual(want, got) {
				t.Errorf("%s/%s: verdicts differ:\n%+v\n%+v", v.CVE, v.DNAs[i].FuncName, want, got)
			}
			matched += len(want.Matches)
		}
	}
	if matched == 0 {
		t.Fatal("no VDC DNA matched: the test compares no witness")
	}
}

// TestRemoveFreesItsChains: after a Remove the index posts the remaining
// VDCs' chains only; the removed CVE's own chains are gone from it.
func TestRemoveFreesItsChains(t *testing.T) {
	db, _, err := vulndb.BuildDB(8, benchIonThreshold)
	if err != nil {
		t.Fatal(err)
	}
	before, _ := db.Index(core.DefaultThr).Vocabulary()
	cve := db.VDCs[0].CVE
	if !db.Remove(cve) {
		t.Fatalf("Remove(%s) found nothing", cve)
	}
	checkVocabulary(t, db, core.DefaultThr)
	after, _ := db.Index(core.DefaultThr).Vocabulary()
	if len(after) >= len(before) {
		t.Errorf("removing %s left %d of %d chains: it posted none of its own", cve, len(after), len(before))
	}
}
