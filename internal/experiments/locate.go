package experiments

import (
	"fmt"
	"io"
	"sort"

	"clio/internal/analytic"
	"clio/internal/baseline"
	"clio/internal/core"
)

// Table1Row is one line of the paper's Table 1: the measured cost of a log
// entry read at search distance N^k with complete caching.
type Table1Row struct {
	K              int
	Distance       int
	PaperEntries   int
	MeasEntries    int
	PaperBlocks    int
	MeasBlocks     int64
	PaperMs        float64
	MeasMs         float64
	MeasDeviceRead int64 // must be 0: complete caching
}

// RunTable1 reproduces Table 1 on a volume of ~N^maxK blocks. The paper
// uses N=16 and distances up to N^5; maxK trades memory for reach (maxK=4
// is a 65,536-block volume).
func RunTable1(blockSize, maxK int) ([]Table1Row, *DistanceVolume, error) {
	dv, err := BuildDistanceVolume(blockSize, 16, maxK)
	if err != nil {
		return nil, nil, err
	}
	// Warm every block the locates will touch: one cold pass per target.
	for _, t := range dv.Targets {
		if _, err := dv.MeasureLocate(t, false); err != nil {
			return nil, nil, err
		}
	}
	var rows []Table1Row
	for i := len(dv.Targets) - 1; i >= 0; i-- {
		t := dv.Targets[i]
		c, err := dv.MeasureLocate(t, false)
		if err != nil {
			return nil, nil, err
		}
		rows = append(rows, Table1Row{
			K:              t.K,
			Distance:       c.Distance,
			PaperEntries:   analytic.Table1Entries(t.K),
			MeasEntries:    c.EntriesRead,
			PaperBlocks:    analytic.Table1Blocks(t.K),
			MeasBlocks:     c.CachedAccesses,
			PaperMs:        table1PaperMs(t.K),
			MeasMs:         c.VirtualMs,
			MeasDeviceRead: c.DeviceReads,
		})
	}
	return rows, dv, nil
}

// table1PaperMs returns the paper's measured times for k=0..5.
func table1PaperMs(k int) float64 {
	vals := []float64{1.46, 2.71, 3.82, 5.06, 6.51, 8.10}
	if k < len(vals) {
		return vals[k]
	}
	return 0
}

// PrintTable1 renders Table 1.
func PrintTable1(w io.Writer, rows []Table1Row) {
	fprintf(w, "Table 1: log entry read vs search distance (complete caching, N=16)\n")
	fprintf(w, "%6s %10s | %8s %8s | %8s %8s | %9s %9s\n",
		"dist", "blocks", "ent(pap)", "ent(mea)", "blk(pap)", "blk(mea)", "ms(paper)", "ms(meas)")
	for _, r := range rows {
		fprintf(w, "N^%-4d %10d | %8d %8d | %8d %8d | %9.2f %9.2f\n",
			r.K, r.Distance, r.PaperEntries, r.MeasEntries,
			r.PaperBlocks, r.MeasBlocks, r.PaperMs, r.MeasMs)
	}
}

// Fig3Row is one point of Figure 3: entrymap entries examined to locate an
// entry d blocks away without caching.
type Fig3Row struct {
	N        int
	Distance int
	Theory   float64
	// Measured is the measured entry count, or -1 for theory-only points.
	Measured int
	// MeasuredDeviceReads is the cold device reads for measured points.
	MeasuredDeviceReads int64
}

// RunFig3 produces the Figure 3 curves: theory for every N the paper plots,
// plus cold-cache measurements on a real N=16 volume (reusing dv when the
// caller already built one).
func RunFig3(dv *DistanceVolume) ([]Fig3Row, error) {
	var rows []Fig3Row
	for _, n := range []int{4, 8, 16, 32, 64, 128} {
		for _, d := range []int{10, 100, 1000, 10_000, 100_000, 1_000_000, 10_000_000} {
			rows = append(rows, Fig3Row{
				N: n, Distance: d,
				Theory:   analytic.Fig3LocateEntries(n, float64(d)),
				Measured: -1,
			})
		}
	}
	if dv != nil {
		for i := len(dv.Targets) - 1; i >= 0; i-- {
			t := dv.Targets[i]
			c, err := dv.MeasureLocate(t, true)
			if err != nil {
				return nil, err
			}
			rows = append(rows, Fig3Row{
				N: 16, Distance: c.Distance,
				Theory:              analytic.Fig3LocateEntries(16, float64(c.Distance)),
				Measured:            c.EntriesRead,
				MeasuredDeviceReads: c.DeviceReads,
			})
		}
	}
	return rows, nil
}

// PrintFig3 renders Figure 3.
func PrintFig3(w io.Writer, rows []Fig3Row) {
	fprintf(w, "Figure 3: entrymap entries examined to locate an entry d blocks away (no caching)\n")
	fprintf(w, "%5s %12s %10s %10s %12s\n", "N", "d", "theory", "measured", "device-reads")
	for _, r := range rows {
		if r.Measured < 0 {
			fprintf(w, "%5d %12d %10.2f %10s %12s\n", r.N, r.Distance, r.Theory, "-", "-")
		} else {
			fprintf(w, "%5d %12d %10.2f %10d %12d\n", r.N, r.Distance, r.Theory, r.Measured, r.MeasuredDeviceReads)
		}
	}
}

// BaselineRow compares locate strategies at one distance (§5): find the
// log entry written at a given earlier time, far back in a long-running
// log file.
type BaselineRow struct {
	Distance      int   // blocks between the end and the target entry
	ClioPrevReads int64 // measured cold reads to find a log's most recent (distant) entry
	ClioColdReads int64 // measured cold reads for the locate-by-time search
	ClioWarmReads int64 // time search after an unrelated search warmed shared landmarks
	BinaryReads   int   // modeled Daniels et al. balanced-tree path
	LinearReads   int   // naive backward scan
}

// RunBaselines compares Clio's locate-by-time against the §5 alternatives.
// Two log files record events every `stride` blocks across a volume of
// about N^maxK blocks. Targets sit N^k blocks from the end. Three costs are
// reported per distance:
//
//   - clio cold: device reads for the time search with an empty cache;
//   - clio warm: device reads after an unrelated search on the *other* log
//     file — Clio's landmark blocks are the same well-known blocks for
//     every log file, so they are "likely cached" (§2.1), while the
//     Daniels et al. binary tree's nodes are private to each log;
//   - binary tree: the root-to-node path over the log's entries;
//   - linear: the §2.1 strawman scan.
func RunBaselines(blockSize, maxK, stride int) ([]BaselineRow, error) {
	n := 16
	if stride <= 0 {
		stride = n
	}
	total := pow(n, maxK) + 3
	svc, dev, err := newService(blockSize, n, total+64, nil)
	if err != nil {
		return nil, err
	}
	defer svc.Close()
	for _, path := range []string{"/events", "/shadow", "/filler"} {
		if _, err := svc.CreateLog(path, 0, ""); err != nil {
			return nil, err
		}
	}
	evID, _ := svc.Resolve("/events")
	shID, _ := svc.Resolve("/shadow")
	fillID, _ := svc.Resolve("/filler")
	// One "stopped" log per distance class: written every stride blocks,
	// going quiet N^k blocks before the end. Finding its most recent entry
	// is the pure FindPrev cost of Figure 3.
	stopID := make(map[int]uint16)
	for k := 1; k <= maxK; k++ {
		path := fmt.Sprintf("/stopped%d", k)
		if _, err := svc.CreateLog(path, 0, ""); err != nil {
			return nil, err
		}
		stopID[k], _ = svc.Resolve(path)
	}
	type ev struct {
		ts    int64
		block int
	}
	var events, shadows []ev
	fillerSize := blockSize / 4
	for next := 0; next < total; next += stride {
		if err := fillTo(svc, fillID, next, fillerSize); err != nil {
			return nil, err
		}
		ts, err := svc.Append(evID, []byte("event"), core.AppendOptions{Timestamped: true})
		if err != nil {
			return nil, err
		}
		events = append(events, ev{ts: ts, block: svc.End() - 1})
		ts, err = svc.Append(shID, []byte("shadow"), core.AppendOptions{Timestamped: true})
		if err != nil {
			return nil, err
		}
		shadows = append(shadows, ev{ts: ts, block: svc.End() - 1})
		for k := 1; k <= maxK; k++ {
			if next < total-pow(n, k) {
				if _, err := svc.Append(stopID[k], []byte("s"), core.AppendOptions{}); err != nil {
					return nil, err
				}
			}
		}
	}
	if err := fillTo(svc, fillID, total, fillerSize); err != nil {
		return nil, err
	}
	end := svc.End()

	occ := make([]int, len(events))
	for i, e := range events {
		occ[i] = e.block
	}
	btree := &baseline.BinaryTreeLocator{End: end}
	lin := &baseline.LinearLocator{End: end}

	measure := func(id uint16, target ev) (int64, error) {
		cur, err := svc.OpenCursorID(id)
		if err != nil {
			return 0, err
		}
		svc.ResetCounters()
		if err := cur.SeekTime(target.ts); err != nil {
			return 0, err
		}
		e, err := cur.Next()
		if err != nil {
			return 0, err
		}
		if e.Timestamp != target.ts {
			return 0, fmt.Errorf("time locate found ts %d, want %d", e.Timestamp, target.ts)
		}
		return svc.DeviceStats().Reads, nil
	}

	var rows []BaselineRow
	for k := 1; k <= maxK; k++ {
		d := pow(n, k)
		idx := sort.SearchInts(occ, end-d+1) - 1
		if idx < 0 {
			idx = 0
		}
		target := events[idx]
		svc.FlushCache()
		cold, err := measure(evID, target)
		if err != nil {
			return nil, err
		}
		// Warm: an unrelated search (different log, different time) caches
		// the shared landmark blocks; the target's own neighbourhood stays
		// cold.
		svc.FlushCache()
		other := (idx + len(shadows)/3) % len(shadows)
		if _, err := measure(shID, shadows[other]); err != nil {
			return nil, err
		}
		warm, err := measure(evID, target)
		if err != nil {
			return nil, err
		}
		// The FindPrev path: cold reads to find the stopped log's most
		// recent entry, which sits ~N^k blocks back.
		svc.FlushCache()
		scur, err := svc.OpenCursorID(stopID[k])
		if err != nil {
			return nil, err
		}
		scur.SeekEnd()
		svc.ResetCounters()
		if _, err := scur.Prev(); err != nil {
			return nil, err
		}
		prevReads := svc.DeviceStats().Reads

		_, br := btree.FindPrev(occ, target.block+1)
		_, lr := lin.FindPrev(occ, target.block+1)
		lr = end - target.block // scan from the end to the target
		rows = append(rows, BaselineRow{
			Distance:      end - target.block,
			ClioPrevReads: prevReads,
			ClioColdReads: cold,
			ClioWarmReads: warm,
			BinaryReads:   br,
			LinearReads:   lr,
		})
	}
	_ = dev
	return rows, nil
}

// PrintBaselines renders the §5 comparison: both schemes are logarithmic
// ("within a constant factor"), the entrymap FindPrev path reads fewer
// blocks for very distant entries, and the linear strawman explodes.
func PrintBaselines(w io.Writer, rows []BaselineRow) {
	fprintf(w, "§5 comparison: block reads to locate distant log entries\n")
	fprintf(w, "%12s %12s %14s %14s %14s %14s\n",
		"distance", "clio(prev)", "clio(t,cold)", "clio(t,warm)", "binary-tree", "linear-scan")
	for _, r := range rows {
		fprintf(w, "%12d %12d %14d %14d %14d %14d\n",
			r.Distance, r.ClioPrevReads, r.ClioColdReads, r.ClioWarmReads, r.BinaryReads, r.LinearReads)
	}
}
