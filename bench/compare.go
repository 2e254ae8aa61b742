package main

// -compare and -selfcheck: the two tools later changes rest their claims
// on. -compare applies each end-to-end metric's bound per (metric,
// workload) row of two report files; -selfcheck establishes which counts
// repeat exactly.

import (
	"fmt"
	"math"
)

// compareReports prints one row per (workload, end-to-end metric) of two
// report files A (baseline) and B, and the exact counts that differ. It
// returns false if any row is worse, any exact count differs, or failures
// increased.
func compareReports(pathA, pathB string) bool {
	a, err := readReport(pathA)
	if err != nil {
		fatalf("%v", err)
	}
	b, err := readReport(pathB)
	if err != nil {
		fatalf("%v", err)
	}
	if !a.Provenance.comparable(b.Provenance) {
		fatalf("refusing to compare: provenance differs\n  %s: %+v\n  %s: %+v", pathA, a.Provenance, pathB, b.Provenance)
	}
	fmt.Printf("A = %s (rev %s)   B = %s (rev %s)\n", pathA, a.Provenance.GitRev, pathB, b.Provenance.GitRev)
	fmt.Printf("%-16s %-16s %12s %12s %8s %7s %7s %6s  %s\n",
		"workload", "metric", "A median", "B median", "B vs A", "A iqr", "B iqr", "bound", "verdict")
	ok := true
	for _, wl := range workloadNames {
		ra, rb := selectRuns(a, wl, 0), selectRuns(b, wl, 0)
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, d := range endToEnd {
			da, db := summarise(metricValues(ra, d.Name)), summarise(metricValues(rb, d.Name))
			// Every end-to-end metric is lower-is-better.
			delta := ratio(db.Median-da.Median, da.Median)
			iqrA, iqrB := math.Abs(da.Q3-da.Q1), math.Abs(db.Q3-db.Q1)
			allowed := d.Bound * da.Median
			if d.Name == "setup_s" {
				allowed = math.Max(allowed, setupFloorS)
			}
			verdict := "same"
			switch {
			case iqrA > allowed || iqrB > allowed:
				verdict = "unresolved"
			case db.Median-da.Median > allowed:
				verdict = "WORSE"
				ok = false
			case da.Median-db.Median > iqrA:
				verdict = "better"
			}
			fmt.Printf("%-16s %-16s %12.5g %12.5g %+7.1f%% %6.1f%% %6.1f%% %5.0f%%  %s\n",
				wl, d.Name, da.Median, db.Median, 100*delta, 100*ratio(iqrA, da.Median), 100*ratio(iqrB, db.Median), 100*d.Bound, verdict)
		}
		fa, fb := failRatio(ra), failRatio(rb)
		verdict := "same"
		if fb > fa {
			verdict, ok = "WORSE", false
		}
		fmt.Printf("%-16s %-16s %12.5g %12.5g %37s %s\n", wl, "fail_ratio", fa, fb, "", verdict)

		// Exact counts of the traced runs.
		ta, tb := selectRuns(a, wl, 1), selectRuns(b, wl, 1)
		if len(ta) == 0 || len(tb) == 0 {
			continue
		}
		for _, d := range perLayer() {
			if !isCount(d) {
				continue
			}
			if va, vb := ta[0].Metrics[d.Name].Value, tb[0].Metrics[d.Name].Value; va != vb {
				fmt.Printf("%-16s %-32s exact count differs: A %v, B %v\n", wl, d.Name, va, vb)
				ok = false
			}
		}
	}
	return ok
}

func selectRuns(f *reportFile, workload string, trace int) []runRecord {
	var out []runRecord
	for _, r := range f.Runs {
		if r.Workload == workload && r.Trace == trace {
			out = append(out, r)
		}
	}
	return out
}

func metricValues(rs []runRecord, name string) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.Metrics[name].Value
	}
	return out
}

func failRatio(rs []runRecord) float64 {
	var failed, attempted int
	for _, r := range rs {
		failed += r.Failed
		attempted += r.Attempted
	}
	return ratio(float64(failed), float64(attempted))
}

// selfCheck runs one traced pass of every workload and the stage kernels
// twice and compares every count. It returns false if any differs: every
// count the benchmark reports is meant to be exact, so that a later change
// may rest a claim on it.
func selfCheck(seed int64, sz sizes) bool {
	oracle, err := loadExpected()
	if err != nil {
		fatalf("%v", err)
	}
	defs := perLayer()
	ok := true
	report := func(scope string, a, b map[string]float64) {
		exact, differing := 0, 0
		for _, d := range defs {
			va, measured := a[d.Name]
			if !isCount(d) || !measured {
				continue
			}
			if va == b[d.Name] {
				exact++
				continue
			}
			fmt.Printf("%-16s %-32s DIFFERS: %v vs %v\n", scope, d.Name, va, b[d.Name])
			differing++
			ok = false
		}
		fmt.Printf("%-16s %d counts repeat exactly, %d differ\n", scope, exact, differing)
	}
	for _, name := range workloadNames {
		w, err := setup(name, seed, sz, oracle)
		if err != nil {
			fatalf("%s: %v", name, err)
		}
		var twice [2]map[string]float64
		for i := range twice {
			var r passResult
			r, twice[i] = tracedPass(w, newLedger(), nil)
			if r.failed > 0 {
				fmt.Printf("%-16s %d of %d runs failed their reference\n", name, r.failed, r.attempted)
				ok = false
			}
		}
		report(name, twice[0], twice[1])
	}
	var twice [2]map[string]float64
	for i := range twice {
		st, err := measureStages(2, 1)
		if err != nil {
			fatalf("stage kernels: %v", err)
		}
		twice[i] = map[string]float64{}
		st.metrics(twice[i])
	}
	report("stage_kernels", twice[0], twice[1])
	return ok
}
