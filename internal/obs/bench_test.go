package obs

// Micro-benchmarks of the obs primitives, probe disabled and enabled, and
// of the exporters. Handles for go test -bench, not gates: the disabled
// probes' deterministic property (no allocation) is
// TestDisabledProbesDoNotAllocate, and what the probes cost a compile is
// in the benchmark's run_s (bench/).

import (
	"io"
	"testing"
)

// BenchmarkSpan measures a trace span begin/end pair: on a nil tracer (the
// price every compile pays when tracing is off) and into a ring.
func BenchmarkSpan(b *testing.B) {
	span := func(tr *Tracer) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sp := tr.Begin(CatPass, "GVN", "hot")
				sp.End(I("index", 1))
			}
		}
	}
	b.Run("disabled", span(nil))
	b.Run("ring", span(NewTracer(NewRing(0))))
}

func BenchmarkInstantDisabled(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Instant(CatEngine, FactBailout, "hot", I("steps", 9))
	}
}

// BenchmarkViewRecord measures what one fact costs in each view: a
// finished compile, which the ring keeps and the audit log lets pass.
func BenchmarkViewRecord(b *testing.B) {
	compiled := fact(FactCompile, "hot", S("result", "ok"), S("source", "inline"), S("tier", "interp"))
	record := func(s Sink) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Record(compiled)
			}
		}
	}
	b.Run("ring", record(NewRing(0)))
	b.Run("audit-pass", record(NewAuditLog(nil)))
}

func BenchmarkCounter(b *testing.B) {
	c := NewRegistry().Counter("engine.compiles")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogram(b *testing.B) {
	b.Run("observe", func(b *testing.B) {
		h := NewRegistry().Histogram("compile.pass_ns", LatencyBucketsNs)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Observe(int64(i)&0xffff + 1)
		}
	})
	b.Run("exemplar", func(b *testing.B) {
		h := NewRegistry().Histogram("compile.pass_ns", LatencyBucketsNs)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.ObserveEx(int64(i)&0xffff+1, uint64(i)+1)
		}
	})
}

func BenchmarkAuditRecord(b *testing.B) {
	log := NewAuditLog(nil)
	ev := fact(FactDecide, "victim")
	ev.Decision = &Decision{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		log.Record(ev)
	}
}

func BenchmarkPromExport(b *testing.B) {
	reg := NewRegistry()
	reg.Counter("engine.compiles").Add(42)
	h := reg.Histogram("compile.pass_ns", LatencyBucketsNs)
	for i := 0; i < 4096; i++ {
		h.ObserveEx(int64(i)&0xffff+1, uint64(i)+1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := reg.WriteProm(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChromeExport writes a 4096-event buffer of pass spans.
func BenchmarkChromeExport(b *testing.B) {
	const n = 4096
	ring := NewRing(n)
	tr := NewTracer(ring)
	for i := 0; i < n/2; i++ {
		sp := tr.Begin(CatPass, "GVN", "hot")
		sp.End(I("index", int64(i)), I("instrs_in", 70), I("instrs_out", 60))
	}
	events := ring.Events()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteChromeTrace(io.Discard, events); err != nil {
			b.Fatal(err)
		}
	}
}
