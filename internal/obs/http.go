package obs

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// NewMux builds the exposition mux for a registry:
//
//	/metrics       Prometheus text format (live, scrape-consistent)
//	/debug/pprof/  the standard Go profiling endpoints
//
// The registry stays live — series registered after the mux is built appear
// on the next scrape.
func NewMux(reg *Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w) //nolint:errcheck // client went away
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, "znscache observability\n\n/metrics\n/debug/pprof/\n")
	})
	return mux
}

// Server is a started exposition server.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// StartServer listens on addr (e.g. ":8080" or "127.0.0.1:0") and serves the
// exposition mux in a background goroutine. The caller owns shutdown via
// Close; bench binaries typically let process exit take it down. Go runtime
// telemetry (GC pauses, heap bytes, goroutines, GOGC) registers on reg here,
// so every binary that exposes a -metrics-addr exports it without its own
// wiring.
func StartServer(addr string, reg *Registry) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	RuntimeMetricsInto(reg, nil)
	s := &Server{ln: ln, srv: &http.Server{Handler: NewMux(reg)}}
	go s.srv.Serve(ln) //nolint:errcheck // ErrServerClosed on Close
	return s, nil
}

// Addr returns the bound address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// closeGrace is how long Close lets in-flight scrapes finish before their
// connections are hard-closed.
const closeGrace = 2 * time.Second

// Shutdown stops the server gracefully: the listener closes immediately so
// no new scrape starts, but requests already being served get until ctx's
// deadline to complete. It returns ctx.Err() if the deadline expires first.
func (s *Server) Shutdown(ctx context.Context) error {
	return s.srv.Shutdown(ctx)
}

// Close stops the server, letting in-flight scrapes complete within a short
// grace period. A Prometheus scrape racing a cacheserver shutdown gets its
// full body instead of a severed connection; only scrapes still running
// after the grace are hard-closed.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), closeGrace)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		return s.srv.Close()
	}
	return nil
}
