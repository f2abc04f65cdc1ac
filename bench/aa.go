package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// benchmarkSpec is the part of BENCHMARK.json the A/A check reads.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// aaRuns is the number of runs per workload in each A/A set, as many as the
// benchmark's driver makes.
const aaRuns = 10

// runAA is the benchmark's check on itself, the same one its driver makes:
// `sets` complete sets of the same code back to back, each of aaRuns
// measured runs per workload with seeds seed, seed+1, …. Per metric and
// workload it prints every set's median and spread (quartile distance as a
// share of the median) and the largest relative difference between set
// medians, next to the metric's bound from BENCHMARK.json. It reports
// false if a difference or — setup_s apart — a spread exceeds its bound,
// or if any run failed a check.
func runAA(b *bench, todo []*workload, sets int, seed int64, seconds float64) bool {
	raw, err := os.ReadFile(filepath.Join(b.repo, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return false
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		fmt.Fprintf(os.Stderr, "bench: BENCHMARK.json: %v\n", err)
		return false
	}

	// values[set][workload][metric] = one value per run.
	values := make([]map[string]map[string][]float64, sets)
	ok := true
	for s := range values {
		values[s] = map[string]map[string][]float64{}
		for _, w := range todo {
			values[s][w.name] = map[string][]float64{}
			for i := 0; i < aaRuns; i++ {
				r, err := b.runWorkload(w, seed+int64(i), seconds, false)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: set %d %s run %d: %v\n", s+1, w.name, i+1, err)
					return false
				}
				if r.failed > 0 {
					ok = false
				}
				fmt.Printf("run set=%d workload=%s seed=%d wall_s=%.1f failed=%d round_trip_us=%.2f steal_pct=%.1f window_spread_pct=%.1f reran=%t", s+1, w.name, seed+int64(i), r.wall.Seconds(), r.failed, r.roundTripUS, r.stealPct, r.spreadPct, r.reran)
				for _, name := range r.order {
					values[s][w.name][name] = append(values[s][w.name][name], r.metrics[name].Value)
					fmt.Printf(" %s=%.6g", name, r.metrics[name].Value)
				}
				fmt.Println()
			}
		}
	}

	fmt.Printf("\n| workload | metric | set medians | set spreads %% | max diff %% | bound %% | verdict |\n|---|---|---|---|---|---|---|\n")
	for _, w := range todo {
		for _, m := range spec.EndToEnd {
			var meds, spreads []float64
			for s := range values {
				v := values[s][w.name][m.Name]
				meds = append(meds, median(v))
				spreads = append(spreads, 100*iqrShare(v))
			}
			worstDiff, worstSpread := 0.0, 0.0
			for i := range meds {
				worstSpread = max(worstSpread, spreads[i])
				for j := 0; j < i; j++ {
					worstDiff = max(worstDiff, 100*relDiff(meds[i], meds[j]), 100*relDiff(meds[j], meds[i]))
				}
			}
			verdict := "ok"
			if worstDiff > 100*m.Bound || (m.Name != "setup_s" && worstSpread > 100*m.Bound) {
				verdict, ok = "EXCEEDS BOUND", false
			}
			fmt.Printf("| %s | %s | %s | %s | %.2f | %.0f | %s |\n", w.name, m.Name,
				fmtFloats("%.4g", meds), fmtFloats("%.4g", spreads), worstDiff, 100*m.Bound, verdict)
		}
	}
	return ok
}
