package telemetry

import (
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// DebugServer is the -debug-addr HTTP endpoint: live /metrics (Prometheus
// text), /stats.json (Snapshot JSON), /debug/vars (expvar) and
// /debug/pprof/* (CPU, heap, goroutine, block profiles) for the registry
// it serves.
type DebugServer struct {
	ln  net.Listener
	srv *http.Server
}

// Read-side bounds for the tools' long-running HTTP servers (this debug
// endpoint and sfs-serve): a client has readHeaderTimeout to send its
// request headers, and a keep-alive connection idle for idleTimeout is
// closed, so stalled or abandoned clients cannot pin connections. There
// is no WriteTimeout: sfs-serve streams a running job's records as live
// NDJSON for as long as the job runs, and a pprof profile answers only
// when its sampling window ends.
var readHeaderTimeout = 10 * time.Second // tests shorten it

const idleTimeout = 2 * time.Minute

// NewHTTPServer returns a server for h with the read-side bounds above.
func NewHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

// ServeDebug starts the debug HTTP server on addr (e.g. "localhost:6060";
// ":0" picks a free port — read it back with Addr). The server runs until
// Close; handler errors never affect the instrumented run. /stats.json
// and /metrics serve reg; /debug/vars is the process's expvar page
// (memstats, cmdline).
func ServeDebug(addr string, reg *Registry, h Header) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprintf(w, "%s debug endpoint\n\n/metrics\n/stats.json\n/debug/vars\n/debug/pprof/\n", h.Tool)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		reg.WritePrometheus(w)
	})
	mux.HandleFunc("/stats.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		reg.WriteJSON(w, h)
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	ds := &DebugServer{ln: ln, srv: NewHTTPServer(mux)}
	go ds.srv.Serve(ln)
	return ds, nil
}

// Addr returns the server's bound address (resolves ":0").
func (d *DebugServer) Addr() string { return d.ln.Addr().String() }

// Close shuts the server down immediately.
func (d *DebugServer) Close() error { return d.srv.Close() }
