package experiments

import (
	"io"

	"clio/internal/analytic"
	"clio/internal/core"
	"clio/internal/wodev"
	"clio/internal/workload"
)

// DegreeRow is one line of the degree-N ablation: the three-way trade-off
// behind the paper's recommendation that "a choice of N in the range 16–32
// provides excellent performance for reading (even very sparse) log files,
// without leading to excessive overhead during server initialization"
// (§3.4), with §3.5's space overhead as the third axis.
type DegreeRow struct {
	N int
	// LocateReads is the measured cold device reads to find a log file's
	// most recent entry ~`Distance` blocks back (§3.3: falls with N).
	LocateReads int64
	Distance    int
	// RecoveryExamined is the measured blocks+entries examined by crash
	// recovery on a `Blocks`-block volume (§3.4: grows with N).
	RecoveryExamined int
	Blocks           int
	// EntrymapBytesPerEntry is the measured §3.5 space overhead (grows
	// with N through the N/8-byte bitmaps, shrinks through entry spacing).
	EntrymapBytesPerEntry float64
	// Theory columns for the same quantities.
	TheoryLocate   float64
	TheoryRecovery float64
}

// RunDegreeSweep measures all three axes for each N on equal-sized volumes.
func RunDegreeSweep(blockSize, blocks int, ns []int) ([]DegreeRow, error) {
	if len(ns) == 0 {
		ns = []int{4, 8, 16, 32, 64}
	}
	if blocks <= 0 {
		blocks = 5000
	}
	var rows []DegreeRow
	for _, n := range ns {
		row := DegreeRow{N: n, Blocks: blocks}
		dev := wodev.NewMem(wodev.MemOptions{BlockSize: blockSize, Capacity: blocks + 256})
		opt := core.Options{
			BlockSize: blockSize, Degree: n, CacheBlocks: -1,
			NVRAM: inlineNVRAM(core.NewMemNVRAM()), Now: testNow(),
		}
		svc, err := core.New(dev, opt)
		if err != nil {
			return nil, err
		}
		// A sparse target log with one early entry, plus the login workload
		// as filler (realistic multi-log entrymap contents).
		if _, err := svc.CreateLog("/target", 0, ""); err != nil {
			return nil, err
		}
		targetID, _ := svc.Resolve("/target")
		tr := workload.NewLoginTrace(11, 8)
		ids := map[string]uint16{}
		for _, p := range tr.Logs() {
			if _, err := svc.CreateLog(p, 0, ""); err != nil {
				return nil, err
			}
			ids[p], _ = svc.Resolve(p)
		}
		if _, err := svc.Append(targetID, []byte("needle"), core.AppendOptions{Timestamped: true}); err != nil {
			return nil, err
		}
		entries := 0
		for svc.End() < blocks {
			op := tr.Next()
			if _, err := svc.Append(ids[op.Log], op.Data, core.AppendOptions{}); err != nil {
				return nil, err
			}
			entries++
		}
		if err := svc.Force(); err != nil {
			return nil, err
		}
		row.EntrymapBytesPerEntry = float64(svc.Stats().EntrymapBytes) / float64(entries)

		// Locate axis: cold FindPrev of the needle from the end.
		svc.FlushCache()
		svc.ResetCounters()
		cur, err := svc.OpenCursor("/target")
		if err != nil {
			return nil, err
		}
		cur.SeekEnd()
		e, err := cur.Prev()
		if err != nil {
			return nil, err
		}
		row.LocateReads = svc.DeviceStats().Reads
		row.Distance = svc.End() - 1 - e.Block
		row.TheoryLocate = analytic.Fig3LocateEntries(n, float64(row.Distance))

		// Recovery axis: crash and reopen.
		svc.Crash()
		svc2, err := core.Open([]wodev.Device{dev}, opt)
		if err != nil {
			return nil, err
		}
		rep := svc2.LastRecovery()
		row.RecoveryExamined = rep.EntrymapBlocksScanned + rep.EntrymapEntriesRead
		row.TheoryRecovery = analytic.Fig4RecoveryBlocks(n, float64(rep.SealedBlocks))
		svc2.Close()
		rows = append(rows, row)
	}
	return rows, nil
}

// PrintDegreeSweep renders the ablation.
func PrintDegreeSweep(w io.Writer, rows []DegreeRow) {
	fprintf(w, "Degree-N ablation (§3.3–§3.5 trade-off; the paper picks N in 16–32)\n")
	fprintf(w, "%5s | %12s %12s | %12s %12s | %14s\n",
		"N", "locate-reads", "(theory)", "recover-blks", "(theory)", "emapB/entry")
	for _, r := range rows {
		fprintf(w, "%5d | %12d %12.1f | %12d %12.1f | %14.4f\n",
			r.N, r.LocateReads, r.TheoryLocate,
			r.RecoveryExamined, r.TheoryRecovery, r.EntrymapBytesPerEntry)
	}
	if len(rows) > 0 {
		fprintf(w, "(distance ~%d blocks on a %d-block volume)\n", rows[0].Distance, rows[0].Blocks)
	}
}
