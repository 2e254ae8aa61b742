package obs

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
)

// OpsState bundles everything the operational HTTP surface can serve.
// Either field may be nil; the corresponding endpoint then serves an empty
// document.
type OpsState struct {
	Reg   *Registry
	Audit *AuditLog
}

// NewOpsMux builds the full operational HTTP handler:
//
//	/metrics        expvar-style "name value" text
//	/metrics.json   one JSON object of every metric
//	/metrics.prom   Prometheus/OpenMetrics text exposition with exemplars
//	/audit.json     recorded audit events as a JSON array
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
	mux.HandleFunc("/audit.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(s.Audit.Events())
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
