package main

// Passes and the statistics over them. A pass runs every program of the
// workload once (vuln_window: every script `rounds` times), serially, on
// one goroutine: a closed loop with one client.

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// passResult is one pass over the workload.
type passResult struct {
	wall      time.Duration
	attempted int
	failed    int
	counts    tally
}

// samples collects per-program wall times (ms) over passes; failures keeps
// the first few failure reasons for the report.
type samples struct {
	perProgram [][]float64
	failures   []string
}

func newSamples(w *workload) *samples {
	return &samples{perProgram: make([][]float64, len(w.programs))}
}

// runPass runs one pass. A failed run is recovered, counted and the pass
// continues.
func runPass(w *workload, l *ledger, s *samples) passResult {
	var r passResult
	start := time.Now()
	for round := 0; round < w.rounds; round++ {
		for i := range w.programs {
			p := &w.programs[i]
			o := runProgram(p, l)
			r.attempted++
			r.counts.add(&o.counts)
			if why := check(p, &o); why != "" {
				r.failed++
				if s != nil && len(s.failures) < 5 {
					s.failures = append(s.failures, p.name+": "+why)
				}
				continue
			}
			if s != nil {
				s.perProgram[i] = append(s.perProgram[i], float64(o.wall)/1e6)
			}
		}
	}
	r.wall = time.Since(start)
	return r
}

// runPasses repeats runPass until both min passes and the time budget are
// spent.
func runPasses(w *workload, l *ledger, s *samples, min int, budget time.Duration) []passResult {
	var out []passResult
	start := time.Now()
	for len(out) < min || time.Since(start) < budget {
		out = append(out, runPass(w, l, s))
	}
	return out
}

// dist summarises a sample: what the report prints beside every median.
type dist struct {
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	Max    float64 `json:"max"`
}

// summarise computes the quartiles the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), so the
// spreads -compare prints are the ones the acceptance rule is stated in.
func summarise(values []float64) dist {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	n := len(v)
	if n == 0 {
		return dist{}
	}
	q := func(k int) float64 {
		if n == 1 {
			return v[0]
		}
		j, delta := k*(n+1)/4, k*(n+1)%4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return (v[j-1]*float64(4-delta) + v[j]*float64(delta)) / 4
	}
	return dist{N: n, Min: v[0], Q1: q(1), Median: q(2), Q3: q(3), Max: v[n-1]}
}

func median(values []float64) float64 { return summarise(values).Median }

func (d dist) String() string {
	return fmt.Sprintf("n=%d min=%.4g q1=%.4g median=%.4g q3=%.4g max=%.4g", d.N, d.Min, d.Q1, d.Median, d.Q3, d.Max)
}

// percentile returns the p-th percentile (nearest rank) and how many
// samples lie beyond it.
func percentile(values []float64, p float64) (float64, int) {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	if len(v) == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(v))))
	if rank < 1 {
		rank = 1
	}
	return v[rank-1], len(v) - rank
}

// geomeanOfMedians is geomean_prog_ms: the geometric mean over programs of
// each program's median wall time, so a 3 ms CodeLoad run weighs as much as
// a 200 ms TypeScript run.
func geomeanOfMedians(perProgram [][]float64) float64 {
	var logSum float64
	n := 0
	for _, s := range perProgram {
		if len(s) == 0 {
			continue // every run of this program failed; fail_ratio reports it
		}
		logSum += math.Log(median(s))
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}

func wallSeconds(rs []passResult) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.wall.Seconds()
	}
	return out
}

// peakRSSMB is getrusage's max resident set size of this process.
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	if runtime.GOOS == "darwin" {
		return float64(ru.Maxrss) / (1 << 20), nil // bytes there, KiB elsewhere
	}
	return float64(ru.Maxrss) / 1024, nil
}

// timedSetup builds the workload repeatedly — at least twice, then until
// budget is spent or a thousand builds are done — and reports the median
// wall time: the first build alone carries page faults and lazy
// initialisation that the others do not, and a sub-millisecond set-up needs
// many samples to have a steady median. A zero budget builds once.
func timedSetup(name string, seed int64, sz sizes, budget time.Duration) (*workload, dist, error) {
	var w *workload
	var times []float64
	begin := time.Now()
	for {
		start := time.Now()
		oracle, err := loadExpected()
		if err != nil {
			return nil, dist{}, err
		}
		if w, err = setup(name, seed, sz, oracle); err != nil {
			return nil, dist{}, err
		}
		times = append(times, time.Since(start).Seconds())
		if n := len(times); budget == 0 || (n >= 2 && (time.Since(begin) >= budget || n >= 1000)) {
			return w, summarise(times), nil
		}
	}
}
