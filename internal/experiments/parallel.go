package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/jitbull/jitbull/internal/core"
	"github.com/jitbull/jitbull/internal/engine"
	"github.com/jitbull/jitbull/internal/obs"
)

// RunSpec describes one engine run for the parallel harness: a program, an
// engine configuration, and optionally a VDC database to enforce (nil runs
// without a policy). Repeats > 1 re-runs the program on fresh engines and
// reports the best wall time, like the serial harness.
type RunSpec struct {
	Name    string
	Source  string
	Engine  engine.Config
	DB      *core.Database
	Repeats int
}

// RunOutcome is the result of one RunSpec.
type RunOutcome struct {
	Name    string
	Stats   engine.Stats
	Elapsed time.Duration // best of Repeats
	Matches []obs.Match   // distinct DNA matches, when a DB was installed
	Err     error
}

// RunParallel executes the specs across a pool of workers, each with its
// own engine instances, and returns outcomes in spec order. The specs may
// share one Database: detectors only read it, the compiled match index is
// built once under the database's internal lock, and the chain interner is
// concurrency-safe — so the fan-out is race-free by construction (the
// -race CI job runs experiment tests through this path).
//
// workers <= 0 selects GOMAXPROCS.
func RunParallel(specs []RunSpec, workers int) []RunOutcome {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(specs) {
		workers = len(specs)
	}
	out := make([]RunOutcome, len(specs))
	if len(specs) == 0 {
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(specs) {
					return
				}
				out[i] = runOne(specs[i])
			}
		}()
	}
	wg.Wait()
	return out
}

// runOne executes a single spec (Repeats fresh engines, best wall time).
// A panic anywhere in the cell — engine construction, the run itself, a
// user-supplied Out writer — is contained into the cell's outcome instead
// of crashing the worker (and with it the process and every other cell
// of the fan-out).
func runOne(spec RunSpec) (oc RunOutcome) {
	defer func() {
		if r := recover(); r != nil {
			oc.Err = fmt.Errorf("experiment cell %s panicked: %v", spec.Name, r)
		}
	}()
	oc = RunOutcome{Name: spec.Name}
	repeats := spec.Repeats
	if repeats <= 0 {
		repeats = 1
	}
	for r := 0; r < repeats; r++ {
		e, err := engine.New(spec.Source, spec.Engine)
		if err != nil {
			oc.Err = err
			return oc
		}
		var det *core.Detector
		if spec.DB != nil {
			det = core.NewDetector(spec.DB)
			e.SetPolicy(det)
		}
		start := time.Now()
		if _, err := e.Run(); err != nil {
			oc.Err = err
			return oc
		}
		d := time.Since(start)
		if oc.Elapsed == 0 || d < oc.Elapsed {
			oc.Elapsed = d
		}
		oc.Stats = e.Stats()
		if det != nil {
			oc.Matches = det.Matches
		}
	}
	return oc
}
