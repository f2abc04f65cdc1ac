package experiments

import (
	"io"
	"math/rand"

	"clio/internal/analytic"
	"clio/internal/core"
	"clio/internal/vclock"
)

// CacheRow is one point of the §4 cache experiment: read performance as a
// function of cache size under a recency-skewed read workload (the paper:
// "in many applications, the most frequent accesses to large logs are to
// those entries that were written most recently").
type CacheRow struct {
	CacheBlocks int
	// HitRatio is the share of block accesses the device did not serve:
	// image hits and dates read from the cache's date table.
	HitRatio float64
	// AvgReadMs is the average virtual time of one entry read.
	AvgReadMs float64
	// TheoryMs is §4's two-level cost model applied to the measured hit
	// ratio, with the model's cached-block and device costs.
	TheoryMs float64
}

// RunCacheSweep builds one volume, then replays a recency-skewed read
// workload for each cache size, reporting hit ratios and virtual times.
// It also returns §4's break-even ratio for the paper's example costs.
func RunCacheSweep(blockSize, blocks int, sizes []int) ([]CacheRow, float64, error) {
	if len(sizes) == 0 {
		sizes = []int{16, 64, 256, 1024}
	}
	if blocks <= 0 {
		blocks = 2000
	}
	svc, _, err := newService(blockSize, 16, blocks+256, core.NewMemNVRAM())
	if err != nil {
		return nil, 0, err
	}
	defer svc.Close()
	if _, err := svc.CreateLog("/hot", 0, ""); err != nil {
		return nil, 0, err
	}
	id, _ := svc.Resolve("/hot")
	var stamps []int64
	payload := make([]byte, blockSize/4)
	for svc.End() < blocks {
		ts, err := svc.Append(id, payload, core.AppendOptions{Timestamped: true})
		if err != nil {
			return nil, 0, err
		}
		stamps = append(stamps, ts)
	}

	var rows []CacheRow
	for _, size := range sizes {
		svc.SetCacheCapacity(size)
		svc.FlushCache()
		rng := rand.New(rand.NewSource(int64(size)))
		cur, err := svc.OpenCursor("/hot")
		if err != nil {
			return nil, 0, err
		}
		const reads = 800
		// Warm-up pass so the cache reflects steady state.
		for i := 0; i < reads/4; i++ {
			if err := seekRead(cur, stamps, rng); err != nil {
				return nil, 0, err
			}
		}
		svc.ResetCounters()
		for i := 0; i < reads; i++ {
			if err := seekRead(cur, stamps, rng); err != nil {
				return nil, 0, err
			}
		}
		// A date served from the cache's date table is a block access the
		// device did not serve: §4's hit ratio counts it as a hit.
		cs := svc.CacheStats()
		cs.Hits += cs.DateHits
		virtual, _ := price(svc, false)
		row := CacheRow{
			CacheBlocks: size,
			HitRatio:    cs.HitRatio(),
			AvgReadMs:   ms(virtual) / reads,
		}
		m := vclock.DefaultModel()
		row.TheoryMs = analytic.Section4ReadCost(row.HitRatio,
			float64(m.CachedBlock.Microseconds())/1000,
			float64((m.DeviceSeek+m.CachedBlock).Microseconds())/1000)
		rows = append(rows, row)
	}
	return rows, analytic.Section4BreakEvenRatio(1, 30, 100), nil
}

// seekRead reads one entry with a recency-skewed index: mostly the newest
// tenth of the log, occasionally anywhere.
func seekRead(cur *core.Cursor, stamps []int64, rng *rand.Rand) error {
	n := len(stamps)
	var idx int
	if rng.Float64() < 0.85 {
		idx = n - 1 - rng.Intn(n/10+1)
	} else {
		idx = rng.Intn(n)
	}
	if err := cur.SeekTime(stamps[idx]); err != nil {
		return err
	}
	_, err := cur.Next()
	return err
}

// PrintCacheSweep renders the §4 cache rows.
func PrintCacheSweep(w io.Writer, rows []CacheRow, breakEven float64) {
	fprintf(w, "§4 cache economics: recency-skewed reads vs cache size (N=16)\n")
	fprintf(w, "%12s %10s %12s %12s\n", "cache(blks)", "hit-ratio", "avg-ms", "model-ms")
	for _, r := range rows {
		fprintf(w, "%12d %10.3f %12.2f %12.2f\n", r.CacheBlocks, r.HitRatio, r.AvgReadMs, r.TheoryMs)
	}
	fprintf(w, "§4 break-even: a RAM cache wins once its hit ratio reaches %.0f%%\n", 100*breakEven)
	fprintf(w, "of the disk cache's (paper's example costs: 1/30/100 ms)\n")
}
