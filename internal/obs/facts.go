package obs

// Fact names: the closed vocabulary of lifecycle facts. The engine states
// each one with a single Tracer call — an Instant, or the End
// of the span that measures it — and every view renders it from there.
// Compile-pipeline spans (mirbuild, each pass, dna.extract, lir, regalloc,
// native.fuse) and fault.injected instants share the stream under their own
// names; no view but the whole-stream ones reads those.
const (
	FactInterp       = "interp"             // first call of a function
	FactHotInterp    = "hot-interp"         // a policy-pinned (NoJIT) function keeps getting hot
	FactTrigger      = "compile.trigger"    // warmup trigger: a compilation is wanted
	FactCacheHit     = "cache-hit"          // artifact and verdict served by the shared cache
	FactCacheMiss    = "cache-miss"         // a cacheable trigger has to compile
	FactEnqueue      = "compile.enqueue"    // request offered to the background queue
	FactQueueWait    = "compile.queue_wait" // span: enqueue → worker pickup, or result=rejected
	FactCompile      = "compile"            // span: one supervised pipeline attempt, result=ok|fail
	FactDecide       = "decide"             // span: one policy verdict, decided or replayed
	FactTier         = "tier"               // which executor serves the installed artifact
	FactInstall      = "native.install"     // artifact installed at a safe point
	FactRequalified  = "requalified"        // quarantine or deopt storm lifted
	FactQuarantined  = "quarantined"        // function, or its machine-code tier, parked
	FactPermanent    = "permanent"          // function pinned to the interpreter
	FactCompileError = "compile-error"      // one contained JIT-tier failure
	FactOSREnter     = "osr.enter"          // span: mid-loop transfer, result=declined when refused
	FactDeopt        = "deopt"              // speculation guard failed, frame reconstructed
	FactBailout      = "bailout"            // guard bailout, the call re-runs in the interpreter
)

// Fact is one row of the vocabulary: what the selective view calls the
// fact. Ring retains every event whatever its name.
type Fact struct {
	Name string
	// Verdict is the AuditLog's verdict ("" = not audited). A decide fact
	// is audited under the verdict of the Decision it carries.
	Verdict Verdict
}

// Facts is the vocabulary. The verdict spellings are a wire format (audit
// JSONL) and predate the shared names.
var Facts = []Fact{
	{Name: FactInterp},
	{Name: FactHotInterp},
	{Name: FactTrigger},
	{Name: FactCacheHit},
	{Name: FactCacheMiss},
	{Name: FactEnqueue},
	{Name: FactQueueWait},
	{Name: FactCompile},
	{Name: FactDecide},
	{Name: FactTier},
	{Name: FactInstall},
	{Name: FactRequalified, Verdict: "requalify"},
	{Name: FactQuarantined, Verdict: "quarantine"},
	{Name: FactPermanent, Verdict: "permanent"},
	{Name: FactCompileError, Verdict: "compile-error"},
	{Name: FactOSREnter},
	{Name: FactDeopt},
	{Name: FactBailout},
}

var factByName = func() map[string]Fact {
	m := make(map[string]Fact, len(Facts))
	for _, f := range Facts {
		m[f.Name] = f
	}
	return m
}()

// Lifecycles groups the facts evs (a Ring's events) states about functions
// by function, each group in recording order: a function's life under the
// engine, every decide with its Decision. Pipeline spans and fault instants
// are not facts.
func Lifecycles(evs []Event) map[string][]Event {
	out := map[string][]Event{}
	for _, ev := range evs {
		if _, ok := factByName[ev.Name]; ok && ev.Func != "" {
			out[ev.Func] = append(out[ev.Func], ev)
		}
	}
	return out
}
