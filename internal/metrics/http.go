package metrics

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
)

// Handler returns the observability endpoint served by
// `prlcd serve -metrics <addr>`:
//
//	/metrics       Prometheus text exposition
//	/metrics.json  JSON snapshot (what `prlcd metrics` renders)
//	/debug/pprof/  the standard net/http/pprof profiles
//	/              a plain-text index of the above
//
// The registry may be nil; the endpoints then serve empty documents,
// keeping pprof available on uninstrumented daemons.
func Handler(r *Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := r.WritePrometheus(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := r.WriteJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
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
		fmt.Fprintln(w, "prlcd observability endpoint")
		fmt.Fprintln(w, "  /metrics       Prometheus text format")
		fmt.Fprintln(w, "  /metrics.json  JSON snapshot")
		fmt.Fprintln(w, "  /debug/pprof/  runtime profiles")
	})
	return mux
}

// Fetch GETs the /metrics.json snapshot a Handler serves at addr (the
// `prlcd serve -metrics` address). It is the one way a daemon's counts
// are read back: `prlcd metrics` renders the snapshot, and the load
// harness cross-checks its own counts against it.
func Fetch(ctx context.Context, addr string) (Snapshot, error) {
	var snap Snapshot
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addr+"/metrics.json", nil)
	if err != nil {
		return snap, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return snap, fmt.Errorf("metrics: fetch %s: %w", addr, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("metrics: %s returned %s", addr, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return snap, fmt.Errorf("metrics: decode snapshot from %s: %w", addr, err)
	}
	return snap, nil
}
