// Command jitbull runs nanojs scripts on the simulated tiered engine, with
// optional injected vulnerabilities (a simulated vulnerability window) and
// optional JITBULL protection from a VDC DNA database.
//
// Examples:
//
//	jitbull run script.js
//	jitbull run -bugs CVE-2019-17026 exploit.js          # vulnerable engine
//	jitbull fingerprint -cve CVE-2019-17026 -db db.json poc.js
//	jitbull run -bugs CVE-2019-17026 -db db.json exploit.js  # protected
//	jitbull vulns                                        # list built-in CVEs
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/jitbull/jitbull"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "jitbull:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		usage()
		return fmt.Errorf("missing subcommand")
	}
	switch args[0] {
	case "run":
		return cmdRun(args[1:])
	case "fingerprint":
		return cmdFingerprint(args[1:])
	case "diff":
		return cmdDiff(args[1:])
	case "chaos":
		return cmdChaos(args[1:])
	case "audit":
		return cmdAudit(args[1:])
	case "dna":
		return cmdDNA(args[1:])
	case "store":
		return cmdStore(args[1:])
	case "journey":
		return cmdJourney(args[1:])
	case "vulns":
		return cmdVulns()
	case "help", "-h", "--help":
		usage()
		return nil
	default:
		usage()
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  jitbull run [-nojit] [-nofuse] [-nomc] [-osr] [-speculate] [-threshold N] [-bugs CVE,...]
              [-db file] [-stats] [-async [-jit-workers N]] [-cache] [-store dir]
              [-trace file] [-audit file] [-metrics] [-metrics-addr addr]
              [-journey file] [-flight dir] [-watchdog]
              [-octane name [-scale N]] [script.js]
  jitbull journey [-fn name] [-json] journey.json
  jitbull journey [-fn name] [-json] [-threshold N] [-osr] [-speculate] [-async]
                  (-octane name [-scale N] | script.js)
  jitbull fingerprint -cve CVE-... [-bugs CVE,...] [-threshold N] -db file script.js
  jitbull diff [-seed N | -seeds N] [-bugs CVE,...] [-shrink] [-jitbull] script.js
  jitbull chaos [-runs N] [-seed N] [-rules N] [-points p,...] [-osr]
                [-out reproducers.json] [-replay reproducers.json] [-trace dir]
  jitbull audit [-verdict v] [-func name] [-cve CVE] [-json] audit.jsonl
  jitbull dna extract [-bugs CVE,...] [-threshold N] script.js
  jitbull dna diff a.json b.json
  jitbull dna passes
  jitbull dna verify db.json
  jitbull store verify [-quarantine] dir
  jitbull store chaos [-runs N] [-seed N] [-out reproducers.json] [-dir scratch]
  jitbull vulns`)
}

// benchByName resolves a -octane name case-insensitively.
func benchByName(name string) (jitbull.Benchmark, error) {
	for _, b := range jitbull.Benchmarks() {
		if strings.EqualFold(b.Name, name) {
			return b, nil
		}
	}
	return jitbull.BenchmarkByName(name) // exact lookup's error text lists nothing extra
}

func parseBugs(list string) jitbull.BugSet {
	bugs := jitbull.BugSet{}
	for _, c := range strings.Split(list, ",") {
		if c = strings.TrimSpace(c); c != "" {
			bugs[c] = true
		}
	}
	return bugs
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	noJIT := fs.Bool("nojit", false, "disable the JIT (interpreter only)")
	noFuse := fs.Bool("nofuse", false, "disable superinstruction fusion: Ion runs on the unfused per-op native tier")
	noMC := fs.Bool("nomc", false, "disable the machine-code tier: Ion stays on the threaded dispatch tiers (default off on supported amd64 hosts)")
	threshold := fs.Int("threshold", 0, "Ion compilation threshold (default 1500)")
	bugsFlag := fs.String("bugs", "", "comma-separated CVE ids of injected bugs to activate")
	dbPath := fs.String("db", "", "VDC DNA database to protect with")
	stats := fs.Bool("stats", false, "print engine statistics after the run")
	tracePath := fs.String("trace", "", "write a Chrome trace_event JSON of the compile path to this file")
	auditPath := fs.String("audit", "", "stream the policy-decision audit log (JSONL) to this file ('-' for stderr)")
	metrics := fs.Bool("metrics", false, "print the metrics registry (JSON) to stderr after the run")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics, /audit.json and /debug/pprof on this address during the run")
	octaneName := fs.String("octane", "", "run a built-in benchmark instead of a script file")
	scale := fs.Int("scale", 1, "outer-loop scale for -octane")
	osr := fs.Bool("osr", false, "enable loop-header on-stack replacement: hot loops tier up mid-flight instead of at the next call boundary")
	speculate := fs.Bool("speculate", false, "enable type speculation: guarded fast paths that deoptimize back to the interpreter when an assumption breaks")
	async := fs.Bool("async", false, "compile off-thread: keep executing in the baseline tier while Ion runs on a background worker")
	jitWorkers := fs.Int("jit-workers", 0, "background compile workers for -async (0 = GOMAXPROCS)")
	cacheFlag := fs.Bool("cache", false, "enable the shared compilation cache (artifact + JITBULL verdict, keyed by canonical bytecode hash)")
	storeDir := fs.String("store", "", "persist the compilation cache in this directory (implies -cache): artifacts and verdicts survive restarts")
	journeyPath := fs.String("journey", "", "record tier-journey waypoints; write them as JSON to this file after the run ('-' renders ASCII timelines to stderr)")
	flightDir := fs.String("flight", "", "arm the tail-sampling flight recorder: anomalous episodes (p99 compile outliers, faults, watchdog anomalies) are dumped as Chrome traces into this directory")
	watchdogFlag := fs.Bool("watchdog", false, "arm the anomaly watchdog (deopt storms, quarantine spikes, cache-miss regressions, verdict-rate shifts, perf divergence)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var src string
	switch {
	case *octaneName != "":
		if fs.NArg() != 0 {
			return fmt.Errorf("run: -octane and a script file are mutually exclusive")
		}
		b, err := benchByName(*octaneName)
		if err != nil {
			return err
		}
		src = b.Source(*scale)
	case fs.NArg() == 1:
		data, err := os.ReadFile(fs.Arg(0))
		if err != nil {
			return err
		}
		src = string(data)
	default:
		return fmt.Errorf("run: exactly one script (or -octane name) expected")
	}

	cfg := jitbull.Config{
		DisableJIT:   *noJIT,
		NoFuse:       *noFuse,
		NoMC:         *noMC,
		IonThreshold: *threshold,
		OSR:          *osr,
		Speculate:    *speculate,
		Bugs:         parseBugs(*bugsFlag),
		Out:          os.Stdout,
	}
	// The queue/cache metrics live in a shared registry so -stats can
	// report them after the run.
	var jitReg *jitbull.Registry
	if *async || *cacheFlag || *storeDir != "" || *watchdogFlag {
		jitReg = jitbull.NewRegistry()
		cfg.Metrics = jitReg
	}
	if *async {
		queue := jitbull.NewQueue(*jitWorkers, 0, jitReg)
		defer queue.Close()
		cfg.Queue = queue
	}
	var codeCache *jitbull.CodeCache
	if *cacheFlag || *storeDir != "" {
		codeCache = jitbull.NewCodeCache(jitReg)
		cfg.Cache = codeCache
	}
	// One event stream, and a view of it per flag. The watchdog goes last:
	// the anomaly it states then follows its cause in every other view.
	var (
		sinks   jitbull.MultiSink
		ring    *jitbull.Ring
		journal *jitbull.Journal
		audit   *jitbull.AuditLog
		flight  *jitbull.FlightRecorder
		wdog    *jitbull.Watchdog
	)
	if *tracePath != "" {
		ring = jitbull.NewRing(0)
		sinks = append(sinks, ring)
	}
	if *journeyPath != "" {
		journal = jitbull.NewJournal(0)
		sinks = append(sinks, journal)
	}
	var auditFile *os.File
	switch {
	case *auditPath == "-":
		audit = jitbull.NewAuditLog(os.Stderr)
	case *auditPath != "":
		f, err := os.Create(*auditPath)
		if err != nil {
			return err
		}
		auditFile = f
		audit = jitbull.NewAuditLog(f)
	case *watchdogFlag:
		// Anomalies should be served at /audit.json even without -audit.
		audit = jitbull.NewAuditLog(nil)
	}
	if audit != nil {
		sinks = append(sinks, audit)
	}
	if *flightDir != "" {
		flight = jitbull.NewFlightRecorder(*flightDir, jitbull.FlightOptions{})
		sinks = append(sinks, flight)
	}
	if *watchdogFlag {
		wdog = jitbull.NewWatchdog(jitbull.WatchdogOptions{Metrics: jitReg})
		sinks = append(sinks, wdog)
	}
	if len(sinks) > 0 {
		cfg.Tracer = jitbull.NewTracer(sinks)
		wdog.SetTracer(cfg.Tracer)
	}
	eng, err := jitbull.New(src, cfg)
	if err != nil {
		return err
	}
	if *metricsAddr != "" {
		srv, addr, err := jitbull.StartOpsServer(*metricsAddr, jitbull.OpsState{
			Reg:      eng.MetricsSink(),
			Audit:    audit,
			Watchdog: wdog,
			Journal:  journal,
			Flight:   flight,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "jitbull: ops server on http://%s/ (/metrics, /metrics.prom, /healthz, /audit.json, /journey.json, /flight.json, /debug/pprof/)\n", addr)
		defer srv.Close()
	}
	var det *jitbull.Detector
	if *dbPath != "" {
		db, err := jitbull.LoadDatabaseFailSafe(*dbPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "jitbull: DNA database unusable (%v)\njitbull: failing safe: JIT disabled for every function\n", err)
		}
		det = jitbull.Protect(eng, db)
		det.Audit = audit
	}
	if *storeDir != "" {
		st, err := jitbull.OpenStore(*storeDir, jitbull.StoreOptions{
			Metrics: eng.MetricsSink(),
			Tracer:  cfg.Tracer,
		})
		if err != nil {
			return err
		}
		jitbull.AttachStore(codeCache, st)
	}
	_, runErr := eng.Run()
	switch {
	case jitbull.IsHijack(runErr):
		fmt.Fprintf(os.Stderr, "!! PAYLOAD EXECUTED: %v\n", runErr)
	case jitbull.IsCrash(runErr):
		fmt.Fprintf(os.Stderr, "!! ENGINE CRASH: %v\n", runErr)
	case runErr != nil:
		fmt.Fprintf(os.Stderr, "script error: %v\n", runErr)
	}
	if *stats {
		fmt.Fprintf(os.Stderr, "stats: %+v\n", eng.Stats())
		sink := eng.MetricsSink()
		fmt.Fprintf(os.Stderr, "native tier: fused_ops=%d fuse_supers=%d block_budget_checks=%d\n",
			sink.Counter("native.fused_ops").Value(),
			sink.Counter("native.fuse_supers").Value(),
			sink.Counter("native.block_budget_checks").Value())
		fmt.Fprintf(os.Stderr, "top-tier attribution: mc=%d fused=%d switch=%d (functions by installed executor)\n",
			sink.Counter("native.tier.mc").Value(),
			sink.Counter("native.tier.fused").Value(),
			sink.Counter("native.tier.switch").Value())
		fmt.Fprintf(os.Stderr, "machine code: mc.pages_live=%d bytes mapped r-x (retired units are unmapped at GC)\n",
			sink.Gauge("mc.pages_live").Value())
		fmt.Fprintf(os.Stderr, "machine code: mc.direct_calls=%d mc.call_unwinds=%d (calls that stayed in generated code; of those, callees Go had to finish)\n",
			sink.Counter("mc.direct_calls").Value(), sink.Counter("mc.call_unwinds").Value())
		if jitReg != nil {
			fmt.Fprintf(os.Stderr, "jit queue/cache: cache.hits=%d cache.misses=%d jit.queue_depth_hwm=%d jit.queue_enqueued=%d\n",
				jitReg.Counter("cache.hits").Value(), jitReg.Counter("cache.misses").Value(),
				jitReg.Gauge("jit.queue_depth_hwm").Value(), jitReg.Counter("jit.queue_enqueued").Value())
		}
		if *storeDir != "" {
			fmt.Fprintf(os.Stderr, "store: hits=%d misses=%d puts=%d put_drops=%d quarantined=%d retries=%d faults_injected=%d tier_hits=%d tier_encode_drops=%d\n",
				sink.Counter("store.hits").Value(), sink.Counter("store.misses").Value(),
				sink.Counter("store.puts").Value(), sink.Counter("store.put_drops").Value(),
				sink.Counter("store.quarantined").Value(), sink.Counter("store.retries").Value(),
				sink.Counter("store.faults_injected").Value(), sink.Counter("cache.tier_hits").Value(),
				sink.Counter("cache.tier_encode_drops").Value())
		}
		if wdog != nil {
			fmt.Fprintln(os.Stderr, wdog.Summary())
		}
		if journal != nil {
			fmt.Fprintf(os.Stderr, "journey: %d event(s) across %d function(s)\n",
				journal.Total(), len(journal.Funcs()))
		}
		if det != nil && len(det.Matches) > 0 {
			fmt.Fprintf(os.Stderr, "jitbull matches:\n")
			for _, m := range det.Matches {
				attr := ""
				if m.Chain != "" {
					attr = fmt.Sprintf(" via %s chain %s", m.Side, m.Chain)
				}
				fmt.Fprintf(os.Stderr, "  %s (VDC fn %s) matched pass %s%s\n", m.CVE, m.VDCFunc, m.Pass, attr)
			}
		}
	}
	if *tracePath != "" {
		if err := jitbull.SaveChromeTrace(*tracePath, ring.Events()); err != nil {
			return fmt.Errorf("run: save trace: %w", err)
		}
		fmt.Fprintf(os.Stderr, "jitbull: wrote %d trace event(s) to %s (open in chrome://tracing)\n",
			ring.Len(), *tracePath)
	}
	if flight != nil {
		if err := flight.Err(); err != nil {
			fmt.Fprintf(os.Stderr, "jitbull: flight recorder dump error: %v\n", err)
		}
		fmt.Fprintf(os.Stderr, "jitbull: flight recorder dumped %d episode(s) to %s\n",
			len(flight.Episodes()), *flightDir)
	}
	if *journeyPath != "" {
		if *journeyPath == "-" {
			fmt.Fprint(os.Stderr, journal.RenderAll())
		} else {
			f, err := os.Create(*journeyPath)
			if err != nil {
				return fmt.Errorf("run: save journey: %w", err)
			}
			werr := journal.WriteJSON(f)
			if cerr := f.Close(); werr == nil {
				werr = cerr
			}
			if werr != nil {
				return fmt.Errorf("run: save journey: %w", werr)
			}
			fmt.Fprintf(os.Stderr, "jitbull: wrote %d journey event(s) to %s (render with: jitbull journey %s)\n",
				journal.Total(), *journeyPath, *journeyPath)
		}
	}
	if *metrics {
		if err := eng.MetricsSink().WriteJSON(os.Stderr); err != nil {
			return fmt.Errorf("run: write metrics: %w", err)
		}
	}
	if auditFile != nil {
		if err := auditFile.Close(); err != nil {
			return fmt.Errorf("run: close audit log: %w", err)
		}
		if err := audit.WriteErr(); err != nil {
			return fmt.Errorf("run: audit log stream: %w", err)
		}
	}
	if runErr != nil && !jitbull.IsHijack(runErr) && !jitbull.IsCrash(runErr) {
		return nil // script-level errors already reported
	}
	return nil
}

func cmdFingerprint(args []string) error {
	fs := flag.NewFlagSet("fingerprint", flag.ContinueOnError)
	cve := fs.String("cve", "", "CVE identifier for the fingerprint")
	bugsFlag := fs.String("bugs", "", "injected bugs active during extraction (defaults to the CVE itself)")
	threshold := fs.Int("threshold", 0, "Ion compilation threshold")
	dbPath := fs.String("db", "", "database file to create or update")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cve == "" || *dbPath == "" || fs.NArg() != 1 {
		return fmt.Errorf("fingerprint: need -cve, -db and one script")
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	bugs := parseBugs(*bugsFlag)
	if len(bugs) == 0 {
		bugs = jitbull.BugSet{*cve: true}
	}
	vdc, err := jitbull.Fingerprint(*cve, string(src), bugs, *threshold)
	if err != nil {
		return err
	}
	db := &jitbull.Database{}
	if _, statErr := os.Stat(*dbPath); statErr == nil {
		if db, err = jitbull.LoadDatabase(*dbPath); err != nil {
			return err
		}
	}
	db.Add(vdc)
	if err := db.Save(*dbPath); err != nil {
		return err
	}
	fmt.Printf("fingerprinted %s (%d JITed functions) into %s (%d VDCs total)\n",
		*cve, len(vdc.DNAs), *dbPath, db.Size())
	return nil
}

func cmdVulns() error {
	fmt.Println("Implemented vulnerabilities (injectable with -bugs):")
	for _, v := range jitbull.Vulnerabilities() {
		fmt.Printf("  %-16s %-10s CVSS %.1f  %-8s window %s..%s  host pass %s\n",
			v.CVE, v.Engine, v.CVSS, v.Outcome, v.Reported, v.Patched, v.HostPass)
	}
	return nil
}
