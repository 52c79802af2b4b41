package live

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"

	"proger/internal/obs"
)

// NewHandler returns the status server's route table over a live Run
// and the process metrics registry:
//
//	/healthz         liveness + run state (running/done/failed; 503 once failed)
//	/progress        ProgressSnapshot JSON: recall-so-far, ETA in cost units
//	/tasks           TaskRow JSON array: task table with per-task skew
//	/fleet           FleetSnapshot JSON: per-worker lease ledger + telemetry
//	/membudget       membudget.Stats JSON: live budget pressure
//	/metrics         Prometheus text scrape of reg (live, not post-run)
//	/debug/pprof/    the standard runtime profiles
//
// Both r and reg may be nil; the endpoints then serve empty snapshots,
// so the handler is always safe to mount.
func NewHandler(r *Run, reg *obs.Registry) http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("/healthz", func(w http.ResponseWriter, req *http.Request) {
		state := "running"
		failed := false
		if r != nil && r.done.Load() {
			state = "done"
			if r.failed.Load() {
				state, failed = "failed", true
			}
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if failed {
			// Orchestrator probes act on status codes, not bodies: a
			// failed run must read as unhealthy.
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		fmt.Fprintf(w, "ok %s\n", state)
	})

	mux.HandleFunc("/progress", func(w http.ResponseWriter, req *http.Request) {
		writeJSON(w, r.Progress())
	})

	mux.HandleFunc("/tasks", func(w http.ResponseWriter, req *http.Request) {
		rows := r.Tasks()
		if rows == nil {
			rows = []TaskRow{}
		}
		writeJSON(w, rows)
	})

	mux.HandleFunc("/fleet", func(w http.ResponseWriter, req *http.Request) {
		fs := r.Fleet()
		if fs.Workers == nil {
			fs.Workers = []FleetWorker{}
		}
		writeJSON(w, fs)
	})

	mux.HandleFunc("/membudget", func(w http.ResponseWriter, req *http.Request) {
		writeJSON(w, r.Budget())
	})

	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := reg.WritePrometheus(w); err != nil {
			// Headers are gone; all we can do is drop the connection.
			return
		}
	})

	// The standard profiles, mounted explicitly on this mux rather than
	// by blank-importing net/http/pprof (which would pollute the global
	// DefaultServeMux).
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		paths := []string{"/healthz", "/progress", "/tasks", "/fleet", "/membudget", "/metrics", "/debug/pprof/"}
		sort.Strings(paths)
		fmt.Fprintln(w, "proger status server")
		for _, p := range paths {
			fmt.Fprintln(w, " ", p)
		}
	})

	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// Server is a running status server.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve binds addr (host:port; port 0 picks a free one) and serves the
// status handler in a background goroutine. The listener is bound
// synchronously, so once Serve returns the endpoints are reachable at
// Addr() — callers can print the address before the run starts.
func Serve(addr string, r *Run, reg *obs.Registry) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("live: status server listen %s: %w", addr, err)
	}
	s := &Server{ln: ln, srv: &http.Server{Handler: NewHandler(r, reg)}}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Addr returns the bound listen address (useful with port 0).
func (s *Server) Addr() string {
	if s == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the server. In-flight scrapes are cut, not drained: the
// status surface is advisory and must never delay run completion.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	return s.srv.Close()
}
