package experiments

import (
	"io"

	"clio/internal/analytic"
	"clio/internal/core"
	"clio/internal/entrymap"
	"clio/internal/workload"
)

// SpaceRow summarizes the §3.5 space-overhead experiment on the
// login/logout workload.
type SpaceRow struct {
	Entries int
	// Measured parameters of the running system.
	C float64 // fraction of a block per average entry (paper ≈ 1/15)
	A float64 // avg log files referenced per entrymap entry (paper ≈ 8)
	// Header overhead.
	HeaderBytesPerEntry float64 // paper: 4 (minimal header)
	// Entrymap overhead.
	EntrymapBytesPerEntry float64 // paper: < 0.16 bytes
	TheoryBound           float64 // §3.5: c·(h + a(N/8+c'))/(N−1)
	// EntrymapPctOfEntry is the entrymap overhead as a percentage of the
	// average entry (paper: < 0.2%).
	EntrymapPctOfEntry float64
}

// RunSpace reproduces §3.5: run the login/logout workload (the V-System
// user-access file system), then measure the actual header and entrymap
// bytes on the volume and compare with the analytic bound.
func RunSpace(entries int) (*SpaceRow, error) {
	if entries <= 0 {
		entries = 30_000
	}
	blockSize := 1024
	n := 16
	svc, _, err := newService(blockSize, n, entries/4+1024, core.NewMemNVRAM())
	if err != nil {
		return nil, err
	}
	defer svc.Close()
	tr := workload.NewLoginTrace(7, 8)
	ids := make(map[string]uint16)
	for _, path := range tr.Logs() {
		if _, err := svc.CreateLog(path, 0, ""); err != nil {
			return nil, err
		}
		ids[path], _ = svc.Resolve(path)
	}
	var clientBytes int64
	for i := 0; i < entries; i++ {
		op := tr.Next()
		if _, err := svc.Append(ids[op.Log], op.Data, core.AppendOptions{}); err != nil {
			return nil, err
		}
		clientBytes += int64(len(op.Data))
	}
	st := svc.Stats()

	// Measure a and the average entrymap entry size by reading the entrymap
	// log file back.
	cur, err := svc.OpenCursorID(entrymap.EntrymapID)
	if err != nil {
		return nil, err
	}
	var emEntries, emMaps int
	var emBytes int64
	for {
		e, err := cur.Next()
		if err != nil {
			break
		}
		dec, derr := entrymap.Decode(e.Data)
		if derr != nil {
			continue
		}
		emEntries++
		emMaps += len(dec.Maps)
		emBytes += int64(len(e.Data) + 4) // payload + minimal header
	}
	row := &SpaceRow{Entries: entries}
	avgEntry := float64(clientBytes)/float64(entries) + 4 // client + header
	row.C = avgEntry / float64(blockSize)
	if emEntries > 0 {
		row.A = float64(emMaps) / float64(emEntries)
	}
	row.HeaderBytesPerEntry = float64(st.HeaderBytes) / float64(entries)
	row.EntrymapBytesPerEntry = float64(emBytes) / float64(entries)
	row.TheoryBound = analytic.SpaceOverheadBound(4, n, row.A, row.C, 2)
	row.EntrymapPctOfEntry = 100 * row.EntrymapBytesPerEntry / avgEntry
	return row, nil
}

// PrintSpace renders the §3.5 numbers.
func PrintSpace(w io.Writer, r *SpaceRow) {
	fprintf(w, "§3.5 space overhead (login/logout workload, 8 users, N=16, 1 KiB blocks)\n")
	fprintf(w, "%-44s %12s %12s\n", "quantity", "paper", "measured")
	fprintf(w, "%-44s %12s %12.4f\n", "c (block fraction per entry)", "~0.067", r.C)
	fprintf(w, "%-44s %12s %12.2f\n", "a (log files per entrymap entry)", "~8", r.A)
	fprintf(w, "%-44s %12s %12.2f\n", "header bytes per entry", "4", r.HeaderBytesPerEntry)
	fprintf(w, "%-44s %12s %12.4f\n", "entrymap bytes per entry", "<0.16", r.EntrymapBytesPerEntry)
	fprintf(w, "%-44s %12s %12.4f\n", "  analytic bound c·ē/(N−1)", "0.16", r.TheoryBound)
	fprintf(w, "%-44s %12s %12.4f\n", "entrymap overhead % of entry", "<0.2", r.EntrymapPctOfEntry)
}
