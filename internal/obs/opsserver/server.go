// Package opsserver is the live ops plane: an embeddable debug HTTP
// server that any catdb process can attach with one flag (-listen).
// It exposes the process's observability state while a run is in
// flight — Prometheus metrics, pprof profiles, the live span tree
// (in-flight spans included), flamegraph and critical-path exports,
// and the persistent run ledger.
//
// This is deliberately the ONLY place in the repo that registers
// net/http handlers (`make lint-http` enforces it): the server is a
// read-only window onto state owned by internal/obs and
// internal/obs/ledger, never a control surface, so run results are
// byte-identical with the server attached or not.
package opsserver

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"catdb/internal/obs"
	"catdb/internal/obs/ledger"
)

// Options selects what the server exposes. Any field may be nil/empty:
// the corresponding endpoint then reports "not enabled" rather than
// panicking, so callers wire up whatever subset they have.
type Options struct {
	Registry   *obs.Registry // /metrics
	Tracer     *obs.Tracer   // /api/spans, /api/flame, /api/critical-path
	LedgerPath string        // /api/runs
}

// NewHandler builds the ops-plane handler on a private mux (never the
// DefaultServeMux, which pprof's package import side-effects would
// otherwise pollute process-wide).
func NewHandler(opts Options) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, `catdb ops plane
  /metrics            Prometheus exposition
  /api/spans          live span tree (JSON; running spans included)
  /api/flame          folded-stacks flamegraph (flamegraph.pl / speedscope input)
  /api/critical-path  wall-time critical path report
  /api/runs           run ledger records (JSON; ?last=N)
  /debug/pprof/       pprof index
`)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if opts.Registry == nil {
			http.Error(w, "metrics not enabled", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = opts.Registry.WriteProm(w)
	})
	mux.HandleFunc("/api/spans", func(w http.ResponseWriter, r *http.Request) {
		if opts.Tracer == nil {
			http.Error(w, "tracing not enabled", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		writeJSON(w, spanTree(opts.Tracer.Snapshot()))
	})
	mux.HandleFunc("/api/flame", func(w http.ResponseWriter, r *http.Request) {
		if opts.Tracer == nil {
			http.Error(w, "tracing not enabled", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = opts.Tracer.WriteFolded(w)
	})
	mux.HandleFunc("/api/critical-path", func(w http.ResponseWriter, r *http.Request) {
		if opts.Tracer == nil {
			http.Error(w, "tracing not enabled", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = opts.Tracer.WriteCriticalPath(w)
	})
	mux.HandleFunc("/api/runs", func(w http.ResponseWriter, r *http.Request) {
		if opts.LedgerPath == "" {
			http.Error(w, "run ledger not enabled", http.StatusNotFound)
			return
		}
		// last=N keeps the N newest records (all of them when N exceeds
		// the ledger). Anything but a non-negative int, empty included, is
		// a 400: never a silent full dump.
		last := -1
		if q := r.URL.Query(); q.Has("last") {
			n, err := strconv.Atoi(q.Get("last"))
			if err != nil || n < 0 {
				http.Error(w, fmt.Sprintf("last must be a non-negative integer, got %q", q.Get("last")), http.StatusBadRequest)
				return
			}
			last = n
		}
		records, err := ledger.ReadFile(opts.LedgerPath)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		if last >= 0 && last < len(records) {
			records = records[len(records)-last:]
		}
		if records == nil {
			records = []ledger.Record{}
		}
		w.Header().Set("Content-Type", "application/json")
		writeJSON(w, records)
	})
	// pprof goes on the private mux via the named handler funcs, not the
	// `_ "net/http/pprof"` import that registers on DefaultServeMux.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// spanNode is the /api/spans wire form: the span tree nested the way a
// UI wants to render it, with running spans carrying elapsed-so-far
// durations.
type spanNode struct {
	ID       int            `json:"id"`
	Name     string         `json:"name"`
	StartNS  int64          `json:"start_ns"`
	DurNS    int64          `json:"dur_ns"`
	Running  bool           `json:"running,omitempty"`
	Attrs    map[string]any `json:"attrs,omitempty"`
	Children []*spanNode    `json:"children,omitempty"`
}

// spanTree nests a snapshot into root nodes. Orphans (parent missing
// from the snapshot) surface as roots, mirroring WriteTree; children
// keep snapshot (start) order.
func spanTree(spans []obs.SpanData) []*spanNode {
	nodes := make(map[int]*spanNode, len(spans))
	for _, d := range spans {
		nodes[d.ID] = &spanNode{
			ID: d.ID, Name: d.Name,
			StartNS: d.Start.Nanoseconds(), DurNS: d.Dur.Nanoseconds(),
			Running: d.Running, Attrs: d.Attrs,
		}
	}
	roots := []*spanNode{}
	for _, d := range spans { // snapshot order = start order, keeps children sorted
		if p, ok := nodes[d.Parent]; ok && d.Parent != d.ID {
			p.Children = append(p.Children, nodes[d.ID])
		} else {
			roots = append(roots, nodes[d.ID])
		}
	}
	return roots
}

// Server is a running ops-plane listener.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Start listens on addr (use "127.0.0.1:0" for an ephemeral port) and
// serves the ops plane in a background goroutine.
func Start(addr string, opts Options) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("opsserver: listen %s: %w", addr, err)
	}
	s := &Server{
		ln: ln,
		srv: &http.Server{
			Handler:           NewHandler(opts),
			ReadHeaderTimeout: 10 * time.Second,
		},
	}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Addr returns the bound address ("" on nil), resolving ":0" requests.
func (s *Server) Addr() string {
	if s == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// URL returns the http base URL ("" on nil).
func (s *Server) URL() string {
	if s == nil {
		return ""
	}
	return "http://" + s.Addr()
}

// Close stops the listener. A nil server closes cleanly, so callers can
// `defer srv.Close()` unconditionally.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	return s.srv.Close()
}
