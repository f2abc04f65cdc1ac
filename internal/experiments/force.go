package experiments

import (
	"encoding/json"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"

	"clio/internal/core"
	"clio/internal/faults"
	"clio/internal/wodev"
)

// The force experiment measures the synchronous-write hot path in REAL time
// (unlike the paper-table experiments, which run on the virtual clock): each
// cell runs W closed-loop writers issuing forced appends against a device
// with a real injected write latency, and reports the force sojourn
// percentiles, throughput, seal amplification and group-commit batch shape.
// Cells differ in writer count, NVRAM presence and — where there is an
// NVRAM, the only place core's commit path still branches — whether seals
// are written inline or pipelined behind the ack. Every cell runs the same
// adaptive gather policy, so inline vs pipelined isolates the pipeline; the
// output is the perf trajectory ISSUE/CI track across commits.

// ForceRow is one measured cell of the force experiment.
type ForceRow struct {
	Writers int    `json:"writers"`
	Mode    string `json:"mode"` // "inline" (synchronous seals) or "pipelined" (NVRAM only)
	NVRAM   bool   `json:"nvram"`
	Shards  int    `json:"shards"`
	// Paced marks an open-loop cell: writers issue forces on a fixed
	// schedule at RateOpsPerSec total (0.7× the inline mode's closed-loop
	// capacity), and sojourn time is measured from the scheduled arrival, so
	// queueing delay is charged to the laggard (no coordinated omission).
	// Closed-loop cells (Paced=false) self-throttle to the store's capacity
	// and are what the seal-amplification gate reads.
	Paced         bool    `json:"paced"`
	RateOpsPerSec float64 `json:"rate_ops_per_sec,omitempty"`

	Ops       int64   `json:"ops"`
	Seconds   float64 `json:"seconds"`
	OpsPerSec float64 `json:"ops_per_sec"`

	P50Micros float64 `json:"p50_us"`
	P95Micros float64 `json:"p95_us"`
	P99Micros float64 `json:"p99_us"`

	Seals         int64   `json:"seals"`
	SealsPerForce float64 `json:"seals_per_force"`
	Commits       int64   `json:"commits"`
	MeanBatch     float64 `json:"mean_batch"`
	// BatchHist counts commit batches in power-of-two entry buckets
	// (index i = batches of 2^i .. 2^(i+1)-1 forced entries).
	BatchHist []int64 `json:"batch_hist"`
}

// ForceReport is the JSON artifact (BENCH_force.json) the CI bench job
// uploads and gates on.
type ForceReport struct {
	GOMAXPROCS        int        `json:"gomaxprocs"`
	DeviceWriteMicros int64      `json:"device_write_us"`
	CellSeconds       float64    `json:"cell_seconds"`
	Rows              []ForceRow `json:"rows"`
}

// ForceConfig parameterizes RunForce; zero values take the defaults noted.
type ForceConfig struct {
	Writers     []int         // default {1, 4, 16, 64}
	CellSeconds float64       // measured duration per cell; default 0.4
	DeviceWrite time.Duration // injected device write latency; default 200µs
	MaxShards   int           // extra shards cells at the top writer count; default 4, <=1 disables
}

func (c *ForceConfig) defaults() {
	if len(c.Writers) == 0 {
		c.Writers = []int{1, 4, 16, 64}
	}
	if c.CellSeconds <= 0 {
		c.CellSeconds = 0.4
	}
	if c.DeviceWrite == 0 {
		c.DeviceWrite = 200 * time.Microsecond
	}
	if c.MaxShards == 0 {
		c.MaxShards = 4
	}
}

// forceModes returns the seal modes that exist for a cell: without an NVRAM
// there is nothing to stage a sealed block in, so only inline.
func forceModes(nvram bool) []string {
	if nvram {
		return []string{"inline", "pipelined"}
	}
	return []string{"inline"}
}

// RunForce runs the full force-latency grid. For each (writers, NVRAM) cell
// it measures every mode closed-loop (capacity, seal amplification), then
// replays them open-loop at 0.7× the inline mode's measured capacity — the
// same offered load for both, so the paced p99 columns compare how each
// seal path absorbs an external arrival rate rather than how fast it
// self-throttles. One-shard cells cover the writer sweep; MaxShards cells
// rerun the top writer count sharded.
func RunForce(cfg ForceConfig) (*ForceReport, error) {
	cfg.defaults()
	rep := &ForceReport{
		GOMAXPROCS:        runtime.GOMAXPROCS(0),
		DeviceWriteMicros: cfg.DeviceWrite.Microseconds(),
		CellSeconds:       cfg.CellSeconds,
	}
	dur := time.Duration(cfg.CellSeconds * float64(time.Second))
	// run measures one cell in every mode it has and returns the inline
	// mode's throughput (forceModes lists inline first).
	run := func(writers, shards int, nvram bool, rate float64) (float64, error) {
		first := len(rep.Rows)
		for _, mode := range forceModes(nvram) {
			row, err := runForceCell(writers, shards, nvram, mode, dur, cfg.DeviceWrite, rate)
			if err != nil {
				return 0, err
			}
			rep.Rows = append(rep.Rows, row)
		}
		return rep.Rows[first].OpsPerSec, nil
	}
	for _, nvram := range []bool{false, true} {
		for _, w := range cfg.Writers {
			capacity, err := run(w, 1, nvram, 0)
			if err != nil {
				return nil, err
			}
			if capacity <= 0 {
				continue
			}
			if _, err := run(w, 1, nvram, 0.7*capacity); err != nil {
				return nil, err
			}
		}
	}
	if cfg.MaxShards > 1 {
		if _, err := run(cfg.Writers[len(cfg.Writers)-1], cfg.MaxShards, true, 0); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// newForceService builds one real-time service on a latency-injecting
// in-memory device.
func newForceService(nvram bool, mode string, devLat time.Duration) (*core.Service, error) {
	mem := wodev.NewMem(wodev.MemOptions{BlockSize: 2048, Capacity: 1 << 16})
	var dev wodev.Device = mem
	if devLat > 0 {
		reg := faults.NewRegistry(0)
		reg.Arm("dev.write", faults.Fault{Delay: devLat})
		reg.Arm("dev.invalidate", faults.Fault{Delay: devLat})
		dev = wodev.Inject(mem, reg, "dev")
	}
	var nv core.NVRAM
	if nvram {
		nv = core.NewMemNVRAM()
		if mode == "inline" {
			nv = inlineNVRAM(nv)
		}
	}
	return core.New(dev, core.Options{
		BlockSize:   2048,
		Degree:      16,
		CacheBlocks: -1,
		NVRAM:       nv,
	})
}

// runForceCell measures one cell: `writers` goroutines spread round-robin
// over `shards` independent services, each issuing forced appends for `dur`
// and recording per-op sojourn time. rate 0 runs closed-loop (issue, wait,
// repeat); rate > 0 paces the writers to `rate` total forces/sec on a fixed
// schedule, with sojourn measured from the scheduled arrival time.
func runForceCell(writers, shards int, nvram bool, mode string, dur, devLat time.Duration, rate float64) (ForceRow, error) {
	svcs := make([]*core.Service, shards)
	ids := make([]uint16, shards)
	for i := range svcs {
		svc, err := newForceService(nvram, mode, devLat)
		if err != nil {
			return ForceRow{}, err
		}
		svcs[i] = svc
		if ids[i], err = svc.CreateLog("/force", 0, ""); err != nil {
			return ForceRow{}, err
		}
	}
	defer func() {
		for _, svc := range svcs {
			svc.Close()
		}
	}()

	payload := make([]byte, 64)
	// Warm up: settle the adaptive EWMAs and pay one-time costs (volume
	// header, first seal) outside the measured window.
	for i, svc := range svcs {
		for j := 0; j < 4*writers/shards+4; j++ {
			if _, err := svc.Append(ids[i], payload, core.AppendOptions{Forced: true}); err != nil && !core.IsDegraded(err) {
				return ForceRow{}, err
			}
		}
		svc.ResetCounters()
	}

	lats := make([][]time.Duration, writers)
	var wg sync.WaitGroup
	startc := make(chan struct{})
	stopc := make(chan struct{})
	var errMu sync.Mutex
	var firstErr error
	var interval time.Duration
	if rate > 0 {
		interval = time.Duration(float64(writers) / rate * float64(time.Second))
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			svc, id := svcs[w%shards], ids[w%shards]
			<-startc
			// Paced writers stagger their schedules so the offered load is
			// spread, not phase-locked into bursts of `writers`.
			next := time.Now()
			if interval > 0 {
				next = next.Add(interval * time.Duration(w) / time.Duration(writers))
			}
			for {
				select {
				case <-stopc:
					return
				default:
				}
				t0 := time.Now()
				if interval > 0 {
					if wait := next.Sub(t0); wait > 0 {
						time.Sleep(wait)
					}
					t0 = next // sojourn from scheduled arrival, not from wake-up
					next = next.Add(interval)
				}
				_, err := svc.Append(id, payload, core.AppendOptions{Forced: true})
				if err != nil && !core.IsDegraded(err) {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
					return
				}
				lats[w] = append(lats[w], time.Since(t0))
			}
		}(w)
	}
	t0 := time.Now()
	close(startc)
	time.Sleep(dur)
	close(stopc)
	wg.Wait()
	elapsed := time.Since(t0).Seconds()
	if firstErr != nil {
		return ForceRow{}, firstErr
	}

	var merged []time.Duration
	for _, l := range lats {
		merged = append(merged, l...)
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i] < merged[j] })
	pct := func(p float64) float64 {
		if len(merged) == 0 {
			return 0
		}
		i := int(p * float64(len(merged)-1))
		return float64(merged[i].Nanoseconds()) / 1e3
	}

	var seals, forces, commits int64
	hist := make([]int64, 9)
	for _, svc := range svcs {
		st := svc.Stats()
		seals += st.BlocksSealed
		forces += st.ForcedWrites
		bh := svc.BatchSizeHistogram()
		for i, v := range bh {
			hist[i] += v
			commits += v
		}
	}
	row := ForceRow{
		Writers:       writers,
		Mode:          mode,
		NVRAM:         nvram,
		Shards:        shards,
		Paced:         rate > 0,
		RateOpsPerSec: rate,
		Ops:           int64(len(merged)),
		Seconds:       elapsed,
		OpsPerSec:     float64(len(merged)) / elapsed,
		P50Micros:     pct(0.50),
		P95Micros:     pct(0.95),
		P99Micros:     pct(0.99),
		Seals:         seals,
		Commits:       commits,
		BatchHist:     hist,
	}
	if forces > 0 {
		row.SealsPerForce = float64(seals) / float64(forces)
	}
	if commits > 0 {
		row.MeanBatch = float64(forces) / float64(commits)
	}
	return row, nil
}

// PrintForce renders the force-experiment rows as a table.
func PrintForce(w io.Writer, rep *ForceReport) {
	fprintf(w, "Force path (real time; closed-loop writers; device write %dus; %.1fs cells)\n",
		rep.DeviceWriteMicros, rep.CellSeconds)
	fprintf(w, "%-8s %-9s %-7s %-6s %-7s %10s %10s %10s %10s %12s %10s\n",
		"writers", "mode", "loop", "nvram", "shards", "ops/s", "p50(us)", "p95(us)", "p99(us)", "seals/force", "batch")
	for _, r := range rep.Rows {
		loop := "closed"
		if r.Paced {
			loop = "paced"
		}
		fprintf(w, "%-8d %-9s %-7s %-6v %-7d %10.0f %10.1f %10.1f %10.1f %12.4f %10.1f\n",
			r.Writers, r.Mode, loop, r.NVRAM, r.Shards, r.OpsPerSec,
			r.P50Micros, r.P95Micros, r.P99Micros, r.SealsPerForce, r.MeanBatch)
	}
}

// WriteForceJSON writes the report as the BENCH_force.json artifact.
func WriteForceJSON(w io.Writer, rep *ForceReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
