package experiments

import (
	"context"
	"fmt"
	"io"

	"clio/internal/archive"
	"clio/internal/core"
	"clio/internal/volume"
	"clio/internal/wodev"
)

// CompactRow is one reclamation cycle of the bounded-hot-storage
// experiment: logical history keeps growing (global blocks are never
// reused), while the compactor keeps the hot working set — the volumes
// still mounted locally — bounded by relocating live entries forward and
// demoting dead volumes to the cold tier.
type CompactRow struct {
	Cycle int
	// LogicalBlocks is the global data-block count — the whole write-once
	// history, monotonically growing.
	LogicalBlocks int
	// HotVolumes / HotBlocks are the volumes still mounted locally and
	// their written blocks — the disk the store actually occupies.
	HotVolumes int
	HotBlocks  int
	// ColdVolumes is the cumulative count of volumes demoted to the
	// archive backend.
	ColdVolumes int
	// LiveEntries is the number of entries in the long-lived audit log,
	// all of which must remain readable across every cycle.
	LiveEntries int
}

// RunCompact runs the reclamation experiment: per cycle, a burst of
// short-lived (soon retired) log entries plus a trickle of long-lived audit
// entries, then one compaction pass. The hot working set must stay bounded
// while the logical history grows linearly, and the audit log must remain
// fully readable at the end — the §2.5 claim that reclamation of retired
// history is what makes an infinite write-once address space practical.
func RunCompact(cycles int) ([]CompactRow, error) {
	if cycles <= 0 {
		cycles = 6
	}
	const (
		blockSize = 1024
		volBlocks = 64
	)
	var devs []*wodev.MemDevice
	alloc := func(_ volume.SeqID, _ uint32, _ uint64, bs int) (wodev.Device, error) {
		d := wodev.NewMem(wodev.MemOptions{BlockSize: bs, Capacity: volBlocks})
		devs = append(devs, d)
		return d, nil
	}
	dev0 := wodev.NewMem(wodev.MemOptions{BlockSize: blockSize, Capacity: volBlocks})
	devs = append(devs, dev0)
	svc, err := core.New(dev0, core.Options{
		BlockSize: blockSize,
		Degree:    16,
		Now:       testNow(),
		Allocate:  alloc,
		Cold: &core.ColdTier{
			Backend: archive.NewMem(),
			State:   core.NewMemState(),
		},
	})
	if err != nil {
		return nil, err
	}
	defer svc.Close()

	audit, err := svc.CreateLog("/audit", 0, "")
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	payload := make([]byte, 200)
	live := 0
	rows := make([]CompactRow, 0, cycles)
	for cycle := 1; cycle <= cycles; cycle++ {
		path := fmt.Sprintf("/burst-%03d", cycle)
		id, err := svc.CreateLog(path, 0, "")
		if err != nil {
			return nil, err
		}
		for i := 0; i < 4*volBlocks; i++ {
			if _, err := svc.Append(id, payload, core.AppendOptions{}); err != nil {
				return nil, err
			}
			if i%32 == 0 {
				if _, err := svc.Append(audit, []byte(fmt.Sprintf("audit-%04d", live)), core.AppendOptions{}); err != nil {
					return nil, err
				}
				live++
			}
		}
		if err := svc.Retire(path); err != nil {
			return nil, err
		}
		if err := svc.Force(); err != nil {
			return nil, err
		}
		if _, err := svc.CompactOnce(ctx, core.CompactOptions{}); err != nil {
			return nil, err
		}
		row := CompactRow{
			Cycle:         cycle,
			LogicalBlocks: svc.End(),
			ColdVolumes:   int(svc.Stats().VolumesDemoted),
			LiveEntries:   live,
		}
		for _, v := range svc.Volumes() {
			row.HotVolumes++
			if w, err := wodev.FindEnd(v.Dev); err == nil {
				row.HotBlocks += w
			}
		}
		rows = append(rows, row)
	}
	// Every audit entry written across every cycle must still read back —
	// relocated copies for compacted volumes, cold fetches for demoted ones.
	cur, err := svc.OpenCursor("/audit")
	if err != nil {
		return nil, err
	}
	n := 0
	for {
		if _, err := cur.Next(); err != nil {
			break
		}
		n++
	}
	if n != live {
		return nil, fmt.Errorf("audit log holds %d entries after %d cycles, want %d", n, cycles, live)
	}
	return rows, nil
}

// PrintCompact renders the bounded-hot-storage table.
func PrintCompact(w io.Writer, rows []CompactRow) {
	fprintf(w, "reclamation: bounded hot storage under churn (64-block volumes, 1 KiB blocks)\n")
	fprintf(w, "%6s %16s %12s %12s %12s %12s\n",
		"cycle", "logical blocks", "hot volumes", "hot blocks", "cold vols", "live entries")
	for _, r := range rows {
		fprintf(w, "%6d %16d %12d %12d %12d %12d\n",
			r.Cycle, r.LogicalBlocks, r.HotVolumes, r.HotBlocks, r.ColdVolumes, r.LiveEntries)
	}
	if len(rows) >= 2 {
		first, last := rows[0], rows[len(rows)-1]
		fprintf(w, "history grew %.1fx; hot storage %.1fx\n",
			float64(last.LogicalBlocks)/float64(first.LogicalBlocks),
			float64(last.HotBlocks)/float64(first.HotBlocks))
	}
}
