package obs

import (
	"encoding/json"
	"net/http"
	httppprof "net/http/pprof"
	"runtime"
	"time"
)

// NewAdminMux builds the cliod admin HTTP surface:
//
//	/metrics         Prometheus text exposition of reg
//	/statusz         JSON from statusFn (volumes, tail, sessions, batching)
//	/tracez          JSON recent + slow traces from tracer
//	/debug/pprof/*   the standard runtime profiles
//
// tracer and statusFn may be nil; their endpoints then report as disabled.
func NewAdminMux(reg *Registry, tracer *Tracer, statusFn func() any) *http.ServeMux {
	mux := http.NewServeMux()

	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WriteProm(w)
	})

	mux.HandleFunc("/statusz", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if statusFn == nil {
			_ = enc.Encode(map[string]string{"status": "no status source registered"})
			return
		}
		_ = enc.Encode(statusFn())
	})

	mux.HandleFunc("/tracez", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if tracer == nil {
			_ = enc.Encode(map[string]string{"status": "tracing disabled"})
			return
		}
		_ = enc.Encode(struct {
			SlowThreshold time.Duration `json:"slow_threshold_ns"`
			Recent        []TraceRecord `json:"recent"`
			Slow          []TraceRecord `json:"slow"`
		}{tracer.SlowThreshold(), tracer.Recent(), tracer.Slow()})
	})

	mux.HandleFunc("/debug/pprof/", httppprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)

	return mux
}

// processStats is one scrape's reading of the Go runtime.
type processStats struct {
	Goroutines int `metric:"clio_go_goroutines" help:"Number of live goroutines."`
	HeapAlloc  int `metric:"clio_go_heap_alloc_bytes" help:"Bytes of allocated heap objects."`
	GCCycles   int `metric:"clio_go_gc_cycles_total" help:"Completed GC cycles."`
}

// RegisterProcessMetrics adds Go runtime gauges to reg — the minimum needed
// to correlate service counters with process health from one scrape. A
// scrape reads the runtime once: one ReadMemStats (which stops the world),
// so the heap and GC-cycle series come from the same instant.
func RegisterProcessMetrics(reg *Registry) {
	RegisterStruct(reg, func() processStats {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return processStats{Goroutines: runtime.NumGoroutine(), HeapAlloc: int(ms.HeapAlloc), GCCycles: int(ms.NumGC)}
	})
}
