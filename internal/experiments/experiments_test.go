package experiments

import (
	"bytes"
	"testing"
)

func TestRunWriteMatchesPaperShape(t *testing.T) {
	rows, err := RunWrite(300)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	null, fifty, remote := rows[0], rows[1], rows[2]
	// Remote = local + (remote IPC − local IPC) = 2.0 + 2.05 ≈ 4.05 ms.
	if remote.MeasuredMs < 3.9 || remote.MeasuredMs > 4.2 {
		t.Errorf("remote null write = %.3f ms", remote.MeasuredMs)
	}
	// Calibrated model: null ≈ 2.0 ms, 50-byte ≈ 2.9 ms (±5%).
	if null.MeasuredMs < 1.9 || null.MeasuredMs > 2.1 {
		t.Errorf("null write = %.3f ms", null.MeasuredMs)
	}
	if fifty.MeasuredMs < 2.75 || fifty.MeasuredMs > 3.05 {
		t.Errorf("50-byte write = %.3f ms", fifty.MeasuredMs)
	}
	if fifty.MeasuredMs <= null.MeasuredMs {
		t.Error("50-byte write not slower than null")
	}
	var buf bytes.Buffer
	PrintWrite(&buf, rows)
	if buf.Len() == 0 {
		t.Error("empty print")
	}
}

func TestBuildDistanceVolumeGeometry(t *testing.T) {
	dv, err := BuildDistanceVolume(256, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer dv.Svc.Close()
	if len(dv.Targets) != 3 {
		t.Fatalf("%d targets", len(dv.Targets))
	}
	for _, tgt := range dv.Targets {
		d := dv.EndBlock - 1 - tgt.Block
		// Within a couple of blocks of the intended distance.
		if d < tgt.WantDistance-3 || d > tgt.WantDistance+3 {
			t.Errorf("target k=%d at distance %d, want ~%d", tgt.K, d, tgt.WantDistance)
		}
	}
}

func TestRunTable1Shape(t *testing.T) {
	rows, dv, err := RunTable1(256, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer dv.Svc.Close()
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	for i, r := range rows {
		// Complete caching: no device reads during the measured locate.
		if r.MeasDeviceRead != 0 {
			t.Errorf("k=%d: %d device reads under complete caching", r.K, r.MeasDeviceRead)
		}
		// Entry counts within a small constant of the paper's 2k−1.
		if diff := r.MeasEntries - r.PaperEntries; diff < -1 || diff > 2 {
			t.Errorf("k=%d: entries measured %d vs paper %d", r.K, r.MeasEntries, r.PaperEntries)
		}
		// Cost grows with distance.
		if i > 0 && r.MeasMs <= rows[i-1].MeasMs {
			t.Errorf("k=%d: time %.2f not above k=%d's %.2f", r.K, r.MeasMs, rows[i-1].K, rows[i-1].MeasMs)
		}
	}
	// The k=0 read is in the same ballpark as the paper's 1.46 ms.
	if rows[0].MeasMs < 1.0 || rows[0].MeasMs > 2.5 {
		t.Errorf("distance-0 read = %.2f ms", rows[0].MeasMs)
	}
	var buf bytes.Buffer
	PrintTable1(&buf, rows)
	if buf.Len() == 0 {
		t.Error("empty print")
	}
}

func TestRunFig3MeasuredTracksTheory(t *testing.T) {
	dv, err := BuildDistanceVolume(256, 16, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer dv.Svc.Close()
	rows, err := RunFig3(dv)
	if err != nil {
		t.Fatal(err)
	}
	measured := 0
	for _, r := range rows {
		if r.Measured < 0 {
			continue
		}
		measured++
		if float64(r.Measured) > r.Theory+3 {
			t.Errorf("N=%d d=%d: measured %d far above theory %.1f", r.N, r.Distance, r.Measured, r.Theory)
		}
	}
	if measured < 3 {
		t.Errorf("only %d measured points", measured)
	}
}

func TestRunFig4MeasuredWithinBound(t *testing.T) {
	rows, err := RunFig4(256, []int{4, 16}, []int{100, 1000})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Measured < 0 {
			continue
		}
		// Worst case is twice the average curve.
		if float64(r.Measured) > 2*r.Theory+float64(r.N) {
			t.Errorf("N=%d b=%d: measured %d above worst-case bound (avg %.1f)",
				r.N, r.Blocks, r.Measured, r.Theory)
		}
		if r.EndProbes == 0 {
			t.Errorf("N=%d b=%d: no end probes recorded", r.N, r.Blocks)
		}
	}
}

func TestRunSpaceMatchesPaper(t *testing.T) {
	row, err := RunSpace(8000)
	if err != nil {
		t.Fatal(err)
	}
	if row.C < 0.05 || row.C > 0.08 {
		t.Errorf("c = %.4f, want ~1/15", row.C)
	}
	if row.A < 4 || row.A > 16 {
		t.Errorf("a = %.1f, want ~8", row.A)
	}
	if row.HeaderBytesPerEntry != 4 {
		t.Errorf("header bytes = %.2f, want 4 (minimal header)", row.HeaderBytesPerEntry)
	}
	if row.EntrymapBytesPerEntry > 0.5 {
		t.Errorf("entrymap bytes/entry = %.4f, paper says ~0.16", row.EntrymapBytesPerEntry)
	}
	if row.EntrymapPctOfEntry > 1.0 {
		t.Errorf("entrymap %% = %.3f, paper says <0.2%%", row.EntrymapPctOfEntry)
	}
}

func TestRunNVRAMFragmentation(t *testing.T) {
	rows, err := RunNVRAM(500)
	if err != nil {
		t.Fatal(err)
	}
	nv, raw, group := rows[0], rows[1], rows[2]
	// Without the NVRAM tail, every forced 50-byte write burns a block.
	if raw.BlocksUsed < nv.BlocksUsed*5 {
		t.Errorf("raw forced blocks %d not >> NVRAM %d", raw.BlocksUsed, nv.BlocksUsed)
	}
	if raw.PaddingPct < 50 {
		t.Errorf("raw padding = %.1f%%", raw.PaddingPct)
	}
	if nv.PaddingPct > 1 {
		t.Errorf("NVRAM padding = %.1f%%", nv.PaddingPct)
	}
	// Group commit lands in between.
	if !(group.BlocksUsed < raw.BlocksUsed && group.BlocksUsed >= nv.BlocksUsed) {
		t.Errorf("group commit blocks %d not between %d and %d",
			group.BlocksUsed, nv.BlocksUsed, raw.BlocksUsed)
	}
}

func TestRunBaselinesShape(t *testing.T) {
	rows, err := RunBaselines(256, 3, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	// At the largest distance the tree beats the linear scan by a wide
	// margin (at short distances the linear scan can win — the crossover
	// the harness exists to show).
	last := rows[len(rows)-1]
	if last.LinearReads <= int(last.ClioColdReads)*4 {
		t.Errorf("d=%d: linear %d not >> clio cold %d",
			last.Distance, last.LinearReads, last.ClioColdReads)
	}
	for _, r := range rows {
		// The §5 claim: the entrymap FindPrev path reads fewer blocks than
		// the binary tree for distant entries.
		if int(r.ClioPrevReads) >= r.BinaryReads {
			t.Errorf("d=%d: clio prev %d not below binary tree %d",
				r.Distance, r.ClioPrevReads, r.BinaryReads)
		}
		// Warming the shared landmarks helps the time search.
		if r.ClioWarmReads > r.ClioColdReads {
			t.Errorf("d=%d: warm %d above cold %d", r.Distance, r.ClioWarmReads, r.ClioColdReads)
		}
	}
}

func TestRunTailGrowthShape(t *testing.T) {
	rows, err := RunTailGrowth(512, []int{32, 256})
	if err != nil {
		t.Fatal(err)
	}
	last := rows[len(rows)-1]
	// The log file appends with fewer ops and (far) fewer seeks.
	if last.LogAppendOps >= last.FSAppendOps {
		t.Errorf("log append ops %.2f not below fs %.2f", last.LogAppendOps, last.FSAppendOps)
	}
	if last.LogAppendSeeks >= last.FSAppendSeeks {
		t.Errorf("log append seeks %.2f not below fs %.2f", last.LogAppendSeeks, last.FSAppendSeeks)
	}
	// Tail read: log reads O(1) blocks, FS walks indirection.
	if last.LogTailReads > last.FSTailReads {
		t.Errorf("log tail reads %d above fs %d", last.LogTailReads, last.FSTailReads)
	}
	// Backup: whole file vs increment.
	if last.LogBackupReads >= last.FSBackupReads {
		t.Errorf("incremental backup %d not below whole-file %d",
			last.LogBackupReads, last.FSBackupReads)
	}
	// FS append cost grows with file size; the log's stays flat.
	if rows[0].FSAppendOps > last.FSAppendOps {
		t.Logf("note: fs append ops did not grow (%.2f -> %.2f)", rows[0].FSAppendOps, last.FSAppendOps)
	}
}

func TestRunDegreeSweepShape(t *testing.T) {
	rows, err := RunDegreeSweep(256, 2000, []int{4, 16, 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	// Locate cost falls with N; space overhead falls with N; recovery cost
	// (theory) grows with N — the paper's three-way trade-off.
	if !(rows[0].LocateReads >= rows[1].LocateReads && rows[1].LocateReads >= rows[2].LocateReads) {
		t.Errorf("locate reads not decreasing in N: %d %d %d",
			rows[0].LocateReads, rows[1].LocateReads, rows[2].LocateReads)
	}
	if !(rows[0].EntrymapBytesPerEntry > rows[1].EntrymapBytesPerEntry &&
		rows[1].EntrymapBytesPerEntry > rows[2].EntrymapBytesPerEntry) {
		t.Errorf("entrymap overhead not decreasing in N")
	}
	if !(rows[0].TheoryRecovery < rows[1].TheoryRecovery && rows[1].TheoryRecovery < rows[2].TheoryRecovery) {
		t.Errorf("recovery theory not increasing in N")
	}
}

func TestRunCacheSweepShape(t *testing.T) {
	rows, breakEven, err := RunCacheSweep(256, 1000, []int{8, 128, 2048})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	// Hit ratio and read time improve with cache size.
	if !(rows[0].HitRatio < rows[2].HitRatio) {
		t.Errorf("hit ratio not increasing: %.3f .. %.3f", rows[0].HitRatio, rows[2].HitRatio)
	}
	if !(rows[0].AvgReadMs > rows[2].AvgReadMs) {
		t.Errorf("read time not decreasing: %.2f .. %.2f", rows[0].AvgReadMs, rows[2].AvgReadMs)
	}
	// The §4 break-even constant.
	if breakEven < 0.70 || breakEven > 0.71 {
		t.Errorf("break-even = %v", breakEven)
	}
}

func TestPrintersProduceOutput(t *testing.T) {
	var buf bytes.Buffer
	f3, err := RunFig3(nil)
	if err != nil {
		t.Fatal(err)
	}
	PrintFig3(&buf, f3)
	f4, err := RunFig4(256, []int{4}, []int{100})
	if err != nil {
		t.Fatal(err)
	}
	PrintFig4(&buf, f4)
	nv, err := RunNVRAM(200)
	if err != nil {
		t.Fatal(err)
	}
	PrintNVRAM(&buf, nv)
	sp, err := RunSpace(2000)
	if err != nil {
		t.Fatal(err)
	}
	PrintSpace(&buf, sp)
	bl, err := RunBaselines(256, 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	PrintBaselines(&buf, bl)
	tg, err := RunTailGrowth(512, []int{16, 64})
	if err != nil {
		t.Fatal(err)
	}
	PrintTailGrowth(&buf, tg)
	dg, err := RunDegreeSweep(256, 600, []int{4, 8})
	if err != nil {
		t.Fatal(err)
	}
	PrintDegreeSweep(&buf, dg)
	cs, be, err := RunCacheSweep(256, 600, []int{16, 256})
	if err != nil {
		t.Fatal(err)
	}
	PrintCacheSweep(&buf, cs, be)
	if buf.Len() < 2000 {
		t.Errorf("printers produced only %d bytes", buf.Len())
	}
}

func TestRunCompactBoundsHotStorage(t *testing.T) {
	rows, err := RunCompact(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	first, last := rows[0], rows[len(rows)-1]
	// The logical history grows linearly with the cycles...
	if last.LogicalBlocks < 3*first.LogicalBlocks {
		t.Errorf("history barely grew: %d -> %d blocks", first.LogicalBlocks, last.LogicalBlocks)
	}
	// ...while the hot working set stays bounded: demotion keeps pace with
	// churn, so hot storage must not track the history's linear growth.
	if last.HotBlocks > 2*first.HotBlocks {
		t.Errorf("hot storage tracked history growth: %d -> %d blocks", first.HotBlocks, last.HotBlocks)
	}
	if last.ColdVolumes == 0 {
		t.Error("no volumes were demoted cold")
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].ColdVolumes < rows[i-1].ColdVolumes {
			t.Errorf("cold volume count regressed at cycle %d", rows[i].Cycle)
		}
	}
}
