package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"clio/internal/core"
	"clio/internal/logapi"
	"clio/internal/shard"
)

// ShardRow is one line of the shard-scaling experiment: a fixed forced-
// append workload spread across one store, measured in virtual time under
// the calibrated cost model. Because the shards are independent volume
// sequences (each priced from its own counts), the store-wide virtual
// elapsed time is the slowest shard's — the parallel completion time —
// while the summed price is what one sequence would have paid.
type ShardRow struct {
	Shards     int
	Entries    int
	PerShard   []int   // forced appends that landed on each shard
	SlowestMs  float64 // max over shards of virtual elapsed (parallel wall)
	SummedMs   float64 // sum over shards (the 1-sequence serial cost)
	SpeedupVs1 float64 // 1-shard SlowestMs / this SlowestMs
}

// RunShardScaling runs the same forced-append workload against stores of
// each requested shard count. The workload is `entries` synchronous 50-byte
// forced writes round-robined over 4×max(shardCounts) log files whose root
// segments spread across shards by the store's own hash. Everything is
// deterministic: memory devices, monotonic timestamp sources, and each
// shard's counts priced on their own.
func RunShardScaling(shardCounts []int, entries int) ([]ShardRow, error) {
	if entries <= 0 {
		entries = 2000
	}
	logs := 4
	for _, n := range shardCounts {
		if 4*n > logs {
			logs = 4 * n
		}
	}
	ctx := context.Background()
	var rows []ShardRow
	var baseline float64
	for _, n := range shardCounts {
		svcs := make([]*core.Service, n)
		for i := range svcs {
			svc, _, err := newService(1024, 16, 1<<16, core.NewMemNVRAM())
			if err != nil {
				return nil, err
			}
			svcs[i] = svc
		}
		st, err := shard.New(svcs)
		if err != nil {
			return nil, err
		}
		ids := make([]logapi.ID, logs)
		for j := range ids {
			id, err := st.CreateLog(ctx, fmt.Sprintf("/sl%02d", j), 0, "")
			if err != nil {
				return nil, err
			}
			ids[j] = id
		}
		for _, svc := range svcs {
			svc.ResetCounters() // price only the appends below
		}
		payload := make([]byte, 50)
		perShard := make([]int, n)
		for i := 0; i < entries; i++ {
			id := ids[i%logs]
			if _, err := st.Append(ctx, id, payload, core.AppendOptions{Timestamped: true, Forced: true}); err != nil {
				return nil, err
			}
			perShard[id.Shard()]++
		}
		var slowest, summed time.Duration
		for _, svc := range svcs {
			e, _ := price(svc, false)
			summed += e
			if e > slowest {
				slowest = e
			}
		}
		row := ShardRow{
			Shards:    n,
			Entries:   entries,
			PerShard:  perShard,
			SlowestMs: ms(slowest),
			SummedMs:  ms(summed),
		}
		if baseline == 0 {
			baseline = row.SlowestMs
		}
		if row.SlowestMs > 0 {
			row.SpeedupVs1 = baseline / row.SlowestMs
		}
		rows = append(rows, row)
		if err := st.Close(); err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// PrintShardScaling renders the shard-scaling rows.
func PrintShardScaling(w io.Writer, rows []ShardRow) {
	fprintf(w, "Shard scaling (forced 50-byte appends, virtual time; parallel = slowest shard)\n")
	fprintf(w, "%-8s %8s %14s %14s %10s  %s\n",
		"shards", "entries", "parallel(ms)", "serial(ms)", "speedup", "per-shard appends")
	for _, r := range rows {
		fprintf(w, "%-8d %8d %14.1f %14.1f %9.2fx  %v\n",
			r.Shards, r.Entries, r.SlowestMs, r.SummedMs, r.SpeedupVs1, r.PerShard)
	}
}
