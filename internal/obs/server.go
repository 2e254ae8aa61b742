package obs

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
)

// OpsState bundles everything the operational HTTP surface can serve.
// Any field may be nil; the corresponding endpoint then serves an empty
// document (or, for /healthz without a watchdog, unconditional ready).
type OpsState struct {
	Reg      *Registry
	Audit    *AuditLog
	Watchdog *Watchdog
	Journal  *Journal
	Flight   *FlightRecorder
}

// NewOpsMux builds the full operational HTTP handler:
//
//	/metrics        expvar-style "name value" text
//	/metrics.json   one JSON object of every metric
//	/metrics.prom   Prometheus/OpenMetrics text exposition with exemplars
//	/healthz        200 "ready" / 503 "degraded" from the anomaly watchdog
//	/audit.json     recorded audit events as a JSON array
//	/journey.json   per-function tier-journey timelines
//	/flight.json    declared flight-recorder episodes and dump paths
//	/debug/pprof/   CPU/heap/goroutine/... profiles
func NewOpsMux(s OpsState) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		s.Reg.WriteText(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if s.Reg == nil {
			w.Write([]byte("{}\n"))
			return
		}
		s.Reg.WriteJSON(w)
	})
	mux.HandleFunc("/metrics.prom", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.Reg.WriteProm(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		state, why := s.Watchdog.Health()
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if state != HealthReady {
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte(state + "\n" + why + "\n"))
			return
		}
		w.Write([]byte(state + "\n"))
	})
	mux.HandleFunc("/audit.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(s.Audit.Events())
	})
	mux.HandleFunc("/journey.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		s.Journal.WriteJSON(w)
	})
	mux.HandleFunc("/flight.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(s.Flight.Episodes())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// StartOpsServer listens on addr and serves the full operational mux in
// a background goroutine, returning the server (for Close) and the bound
// address (useful with ":0"). The pprof endpoints make any long jitbull
// run profileable with the stock `go tool pprof` workflow.
func StartOpsServer(addr string, s OpsState) (*http.Server, net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	srv := &http.Server{Handler: NewOpsMux(s)}
	go srv.Serve(ln)
	return srv, ln.Addr(), nil
}
