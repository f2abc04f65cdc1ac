// Package experiments regenerates every table and figure in the paper's
// evaluation (§3), plus the ablations DESIGN.md calls out. Each experiment
// is a Run function returning typed rows (so tests can assert on them) and
// a Print function emitting the paper's layout with "paper" and "measured"
// columns side by side. cmd/experiments and the repository's benchmarks are
// thin wrappers over these.
package experiments

import (
	"fmt"
	"io"
	"time"

	"clio/internal/core"
	"clio/internal/vclock"
	"clio/internal/wodev"
)

// testNow returns a deterministic monotonic time source.
func testNow() func() int64 {
	var now int64
	return func() int64 {
		now += 1000
		return now
	}
}

// inlineNVRAM hides an NVRAM's staging slots (core.StagingNVRAM), which is
// what selects core's seal pipeline: behind it every seal is a synchronous
// device write. The paper-table experiments count seals and device writes,
// and a background sealer would make those counts depend on real-time
// scheduling; the force experiment compares both.
func inlineNVRAM(nv core.NVRAM) core.NVRAM {
	if nv == nil {
		return nil
	}
	return struct{ core.NVRAM }{nv}
}

// newService builds an in-memory service for experiments.
func newService(blockSize, degree, capacityBlocks int, nv core.NVRAM) (*core.Service, *wodev.MemDevice, error) {
	dev := wodev.NewMem(wodev.MemOptions{BlockSize: blockSize, Capacity: capacityBlocks})
	svc, err := core.New(dev, core.Options{
		BlockSize:   blockSize,
		Degree:      degree,
		CacheBlocks: -1, // unbounded: experiments control caching explicitly
		NVRAM:       inlineNVRAM(nv),
		Now:         testNow(),
	})
	return svc, dev, err
}

// price returns the virtual time, in total and by category, of what svc
// counted since its last ResetCounters, under the paper's cost model.
func price(svc *core.Service, remote bool) (time.Duration, map[string]time.Duration) {
	return vclock.Price(vclock.DefaultModel(), svc.BlockSize(), remote, svc.Stats())
}

// fillTo appends filler entries to fillerID until the service's readable
// end reaches at least targetBlock.
func fillTo(svc *core.Service, fillerID uint16, targetBlock, fillerSize int) error {
	payload := make([]byte, fillerSize)
	for svc.End() < targetBlock {
		if _, err := svc.Append(fillerID, payload, core.AppendOptions{}); err != nil {
			return err
		}
	}
	return nil
}

// Target is one planted entry used by the locate experiments.
type Target struct {
	// Path is the target log file (one entry only).
	Path string
	// Block is the data block the entry actually landed in.
	Block int
	// WantDistance is the intended distance class (N^k).
	WantDistance int
	// K is the exponent of the distance class.
	K int
}

// DistanceVolume is a volume constructed so that, measured from its end,
// one single-entry log file sits at (approximately) each distance N^k — the
// geometry of Table 1 and Figure 3.
type DistanceVolume struct {
	Svc     *core.Service
	Dev     *wodev.MemDevice
	Targets []Target
	// EndBlock is the final readable end.
	EndBlock int
}

// BuildDistanceVolume writes a volume of about N^maxK blocks with targets
// at distances N^0..N^maxK from the end. Filler entries go to a separate
// log file so target locates exercise the entrymap tree.
func BuildDistanceVolume(blockSize, degree, maxK int) (*DistanceVolume, error) {
	total := pow(degree, maxK) + degree/2 + 3 // margin past the last boundary
	svc, dev, err := newService(blockSize, degree, total+64, core.NewMemNVRAM())
	if err != nil {
		return nil, err
	}
	if _, err := svc.CreateLog("/filler", 0, ""); err != nil {
		return nil, err
	}
	fillerID, _ := svc.Resolve("/filler")
	fillerSize := blockSize / 4

	// Desired target positions, earliest first.
	var targets []Target
	for k := maxK; k >= 0; k-- {
		targets = append(targets, Target{
			Path:         fmt.Sprintf("/target%d", k),
			WantDistance: pow(degree, k),
			K:            k,
		})
	}
	for i := range targets {
		t := &targets[i]
		want := total - 1 - t.WantDistance
		if err := fillTo(svc, fillerID, want, fillerSize); err != nil {
			return nil, err
		}
		id, err := svc.CreateLog(t.Path, 0, "")
		if err != nil {
			return nil, err
		}
		if _, err := svc.Append(id, []byte("target"), core.AppendOptions{Timestamped: true}); err != nil {
			return nil, err
		}
	}
	if err := fillTo(svc, fillerID, total, fillerSize); err != nil {
		return nil, err
	}
	dv := &DistanceVolume{Svc: svc, Dev: dev, EndBlock: svc.End()}
	// Record where each target actually landed.
	for _, t := range targets {
		cur, err := svc.OpenCursor(t.Path)
		if err != nil {
			return nil, err
		}
		e, err := cur.Next()
		if err != nil {
			return nil, fmt.Errorf("target %s unreadable: %w", t.Path, err)
		}
		t.Block = e.Block
		dv.Targets = append(dv.Targets, t)
	}
	return dv, nil
}

func pow(n, k int) int {
	out := 1
	for ; k > 0; k-- {
		out *= n
	}
	return out
}

// LocateFromEnd positions a cursor at the end of the target's log and takes
// one Prev step, returning the deltas of interest.
type LocateCost struct {
	Distance       int
	EntriesRead    int // entrymap entries examined
	CachedAccesses int64
	DeviceReads    int64
	VirtualMs      float64
}

// MeasureLocate measures one locate of the target from the end of the log.
// cold flushes the cache first (§3.3.1); warm relies on the complete cache
// (§3.3.2).
func (dv *DistanceVolume) MeasureLocate(t Target, cold bool) (LocateCost, error) {
	svc := dv.Svc
	if cold {
		svc.FlushCache()
	}
	cur, err := svc.OpenCursor(t.Path)
	if err != nil {
		return LocateCost{}, err
	}
	cur.SeekEnd()
	svc.ResetLocateStats()
	svc.ResetCounters()
	e, err := cur.Prev()
	if err != nil {
		return LocateCost{}, err
	}
	if e.Block != t.Block {
		return LocateCost{}, fmt.Errorf("located block %d, want %d", e.Block, t.Block)
	}
	virtual, _ := price(svc, false)
	return LocateCost{
		Distance:       dv.EndBlock - 1 - t.Block,
		EntriesRead:    svc.LocateStats().EntriesExamined,
		CachedAccesses: svc.Stats().BlocksInterpreted,
		DeviceReads:    svc.DeviceStats().Reads,
		VirtualMs:      ms(virtual),
	}, nil
}

func ms(d interface{ Nanoseconds() int64 }) float64 {
	return float64(d.Nanoseconds()) / 1e6
}

// fprintf swallows the error for table printing.
func fprintf(w io.Writer, format string, args ...any) {
	fmt.Fprintf(w, format, args...)
}
