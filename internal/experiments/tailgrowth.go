package experiments

import (
	"io"

	"clio/internal/core"
	"clio/internal/rewritefs"
)

// TailRow compares a conventional indirect-block file system against a Clio
// log file for one large, continually growing file (§1's motivation).
type TailRow struct {
	FileBlocks int
	// Append cost over the last growth increment (device ops per block).
	FSAppendOps  float64
	LogAppendOps float64
	// Seeks over the same increment — the dominant cost on the paper's
	// devices.
	FSAppendSeeks  float64
	LogAppendSeeks float64
	// Cold read of the file's final block (device reads).
	FSTailReads  int64
	LogTailReads int64
	// Backup cost since the previous checkpoint: the conventional procedure
	// copies the whole file, the log is incremental by construction.
	FSBackupReads  int64
	LogBackupReads int64
}

// RunTailGrowth grows a file to the given sizes on both systems. A second,
// interleaved writer runs on the conventional FS (as in any shared server),
// scattering its blocks; the log device is append-only so Clio's blocks are
// sequential by construction.
func RunTailGrowth(blockSize int, checkpoints []int) ([]TailRow, error) {
	if len(checkpoints) == 0 {
		checkpoints = []int{64, 512, 2048}
	}
	maxBlocks := checkpoints[len(checkpoints)-1]

	// Conventional FS.
	store := rewritefs.NewStore(blockSize, maxBlocks*4+1024)
	fs := rewritefs.New(store)
	if err := fs.Create("biglog"); err != nil {
		return nil, err
	}
	if err := fs.Create("other"); err != nil {
		return nil, err
	}

	// Clio log file.
	svc, dev, err := newService(blockSize, 16, maxBlocks*4+1024, core.NewMemNVRAM())
	if err != nil {
		return nil, err
	}
	defer svc.Close()
	if _, err := svc.CreateLog("/biglog", 0, ""); err != nil {
		return nil, err
	}
	if _, err := svc.CreateLog("/other", 0, ""); err != nil {
		return nil, err
	}
	logID, _ := svc.Resolve("/biglog")
	otherID, _ := svc.Resolve("/other")

	chunk := make([]byte, blockSize)
	logChunk := make([]byte, blockSize-64) // leave room for header+footer
	var rows []TailRow
	grown := 0
	lastFSBackup := 0
	for _, cp := range checkpoints {
		inc := cp - grown
		store.ResetStats()
		svc.ResetCounters()
		dev.ResetStats()
		for i := 0; i < inc; i++ {
			if err := fs.Append("biglog", chunk); err != nil {
				return nil, err
			}
			if err := fs.Append("other", chunk); err != nil {
				return nil, err
			}
			if _, err := svc.Append(logID, logChunk, core.AppendOptions{}); err != nil {
				return nil, err
			}
			if _, err := svc.Append(otherID, logChunk, core.AppendOptions{}); err != nil {
				return nil, err
			}
		}
		grown = cp
		fsS := store.Stats()
		clioS := svc.DeviceStats()
		row := TailRow{
			FileBlocks:     cp,
			FSAppendOps:    float64(fsS.Reads+fsS.Writes) / float64(2*inc),
			LogAppendOps:   float64(clioS.Appends+clioS.Reads) / float64(2*inc),
			FSAppendSeeks:  float64(fsS.Seeks) / float64(2*inc),
			LogAppendSeeks: float64(clioS.Seeks) / float64(2*inc),
		}

		// Cold tail read.
		store.ResetStats()
		sz, _ := fs.Size("biglog")
		buf := make([]byte, blockSize)
		if err := fs.ReadAt("biglog", sz-blockSize, buf); err != nil {
			return nil, err
		}
		row.FSTailReads = store.Stats().Reads

		svc.FlushCache()
		svc.ResetCounters()
		dev.ResetStats()
		cur, err := svc.OpenCursorID(logID)
		if err != nil {
			return nil, err
		}
		cur.SeekEnd()
		if _, err := cur.Prev(); err != nil {
			return nil, err
		}
		row.LogTailReads = svc.DeviceStats().Reads

		// Backup: whole-file copy vs incremental tail.
		br, err := fs.BackupReads("biglog")
		if err != nil {
			return nil, err
		}
		row.FSBackupReads = br
		row.LogBackupReads = int64(cp - lastFSBackup) // only the new blocks
		lastFSBackup = cp
		rows = append(rows, row)
	}
	return rows, nil
}

// PrintTailGrowth renders the §1 motivation comparison.
func PrintTailGrowth(w io.Writer, rows []TailRow) {
	fprintf(w, "§1 motivation: large growing file — conventional FS vs log file\n")
	fprintf(w, "%8s | %9s %9s | %9s %9s | %8s %8s | %9s %9s\n",
		"blocks", "fs-app/b", "log-app/b", "fs-seek/b", "log-seek/b",
		"fs-tail", "log-tail", "fs-bkup", "log-bkup")
	for _, r := range rows {
		fprintf(w, "%8d | %9.2f %9.2f | %9.2f %9.2f | %8d %8d | %9d %9d\n",
			r.FileBlocks, r.FSAppendOps, r.LogAppendOps,
			r.FSAppendSeeks, r.LogAppendSeeks,
			r.FSTailReads, r.LogTailReads,
			r.FSBackupReads, r.LogBackupReads)
	}
}
