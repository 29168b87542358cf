package telemetry

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"

	"fedrlnas/internal/tensor"
)

// Endpoint is an extra handler mounted on the debug mux, e.g. a
// deployment-specific status page such as the RPC server's per-participant
// lifecycle view.
type Endpoint struct {
	Path    string
	Handler http.Handler
}

// NewDebugMux builds the debug HTTP handler tree:
//
//	/metrics       Prometheus text exposition of reg (empty body if nil)
//	/healthz       liveness probe: {"status":"ok","kernel":{…}} with the
//	               detected CPU features and selected GEMM kernel variants,
//	               so a fleet's hosts can be compared at a glance
//	/debug/vars    expvar (memstats, cmdline, …)
//	/debug/pprof/  net/http/pprof profiles
//
// plus any extra endpoints (e.g. the RPC server's participant view).
func NewDebugMux(reg *Registry, extras ...Endpoint) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := reg.WritePrometheus(w); err != nil {
			// Headers are already out; nothing useful left to do.
			return
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(struct {
			Status string                `json:"status"`
			Kernel tensor.KernelFeatures `json:"kernel"`
		}{Status: "ok", Kernel: tensor.KernelInfo()})
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	for _, e := range extras {
		mux.Handle(e.Path, e.Handler)
	}
	return mux
}

// DebugServer is a running debug HTTP endpoint.
type DebugServer struct {
	srv *http.Server
	ln  net.Listener
}

// StartDebugServer listens on addr (e.g. "127.0.0.1:6060", port 0 picks a
// free port) and serves the debug mux in the background until Close.
func StartDebugServer(addr string, reg *Registry, extras ...Endpoint) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: debug listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: NewDebugMux(reg, extras...)}
	go func() { _ = srv.Serve(ln) }()
	return &DebugServer{srv: srv, ln: ln}, nil
}

// Addr returns the bound address (useful with port 0).
func (d *DebugServer) Addr() string {
	if d == nil {
		return ""
	}
	return d.ln.Addr().String()
}

// Close shuts the server down immediately.
func (d *DebugServer) Close() error {
	if d == nil {
		return nil
	}
	return d.srv.Close()
}
