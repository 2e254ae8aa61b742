package obs_test

// An external test package: the engine imports obs, so only a test outside
// package obs can drive a whole compile through it.

import (
	"testing"

	"github.com/jitbull/jitbull/internal/engine"
	"github.com/jitbull/jitbull/internal/obs"
	"github.com/jitbull/jitbull/internal/octane"
)

// BenchmarkObsCompileOctane measures one compile-heavy corpus program per
// iteration on a fresh engine: observability off, with a ring tracer, and
// with the full stack (ring tracer + shared registry + audit log).
func BenchmarkObsCompileOctane(b *testing.B) {
	bench, err := octane.ByName("Richards")
	if err != nil {
		b.Fatal(err)
	}
	src := bench.Source(1)
	run := func(mk func() engine.Config) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e, err := engine.New(src, mk())
				if err != nil {
					b.Fatal(err)
				}
				if _, err := e.Run(); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("off", run(func() engine.Config {
		return engine.Config{IonThreshold: 100}
	}))
	b.Run("traced", run(func() engine.Config {
		return engine.Config{IonThreshold: 100, Tracer: obs.NewTracer(obs.NewRing(0))}
	}))
	b.Run("full", run(func() engine.Config {
		return engine.Config{
			IonThreshold: 100,
			Tracer:       obs.NewTracer(obs.MultiSink{obs.NewAuditLog(nil), obs.NewRing(0)}),
			Metrics:      obs.NewRegistry(),
		}
	}))
}
