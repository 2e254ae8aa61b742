package obs

// Fact names: the closed vocabulary of lifecycle facts. The engine and the
// store state each one with a single Tracer call — an Instant, or the End
// of the span that measures it — and every view renders it from there.
// Compile-pipeline spans (mirbuild, each pass, dna.extract, lir, regalloc,
// native.fuse) and fault.injected instants share the stream under their own
// names; no view but the whole-stream ones reads those.
const (
	FactInterp       = "interp"             // first call of a function
	FactWarm         = "warm"               // crossed the baseline threshold
	FactHotInterp    = "hot-interp"         // a policy-pinned (NoJIT) function keeps getting hot
	FactTrigger      = "compile.trigger"    // warmup trigger: a compilation is wanted
	FactCacheHit     = "cache-hit"          // artifact and verdict served by the shared cache
	FactStoreHit     = "store-hit"          // the same, promoted from the persistent store
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
	FactCompileError = "compile-error"      // one contained JIT-tier or store failure
	FactOSREnter     = "osr.enter"          // span: mid-loop transfer, result=declined when refused
	FactDeopt        = "deopt"              // speculation guard failed, frame reconstructed
	FactBailout      = "bailout"            // guard bailout, the call re-runs in the interpreter
	FactStoreGet     = "store.get"          // span: one store read
	FactStorePut     = "store.put"          // span: one store write
	FactStoreCorrupt = "store-corrupt"      // an untrustworthy record quarantined
	FactAnomaly      = "anomaly"            // a watchdog detector fired
)

// Fact is one row of the vocabulary: what each selective view calls the
// fact. Ring and FlightRecorder retain every event whatever its name.
type Fact struct {
	Name    string
	Stage   string  // the Journal's waypoint name ("" = not a waypoint)
	Verdict Verdict // the AuditLog's verdict ("" = not audited)
	Watch   bool    // the Watchdog counts it as a signal
}

// Facts is the vocabulary. The stage and verdict spellings are wire
// formats (journey dumps, audit JSONL) and predate the shared names.
var Facts = []Fact{
	{Name: FactInterp, Stage: "interp"},
	{Name: FactWarm, Stage: "warm"},
	{Name: FactHotInterp, Watch: true},
	{Name: FactTrigger},
	{Name: FactCacheHit, Stage: "cache-hit", Watch: true},
	{Name: FactStoreHit, Stage: "store-hit", Watch: true},
	{Name: FactCacheMiss, Watch: true},
	{Name: FactEnqueue, Stage: "enqueued"},
	{Name: FactQueueWait, Watch: true},
	{Name: FactCompile, Stage: "compiled", Watch: true},
	{Name: FactDecide, Watch: true},
	{Name: FactTier, Stage: "tier"},
	{Name: FactInstall, Stage: "installed"},
	{Name: FactRequalified, Stage: "requalified", Verdict: "requalify"},
	{Name: FactQuarantined, Stage: "quarantined", Verdict: "quarantine", Watch: true},
	{Name: FactPermanent, Stage: "permanent", Verdict: "permanent"},
	{Name: FactCompileError, Verdict: "compile-error"},
	{Name: FactOSREnter, Stage: "osr-entry"},
	{Name: FactDeopt, Stage: "deopt", Watch: true},
	{Name: FactBailout, Stage: "bailout"},
	{Name: FactStoreGet},
	{Name: FactStorePut},
	{Name: FactStoreCorrupt, Verdict: "quarantine", Watch: true},
	{Name: FactAnomaly, Verdict: "anomaly"},
}

var factByName = func() map[string]Fact {
	m := make(map[string]Fact, len(Facts))
	for _, f := range Facts {
		m[f.Name] = f
	}
	return m
}()
