package shard

import (
	"testing"
	"time"

	"clio/internal/core"
	"clio/internal/faults"
	"clio/internal/wodev"
)

// TestParallelRecovery asserts the scale-out recovery claim: opening an
// 8-shard store recovers every shard concurrently, so the wall-clock of
// the whole open stays within 2× the slowest single shard's recovery —
// not the sum. The shards carry deliberately unequal amounts of sealed
// data, each reopened device really sleeps per block read (a delay
// armed on wodev.Inject), so each shard's recovery takes at least its
// count of device reads times the delay: the slowest shard's is the
// parallel lower bound.
func TestParallelRecovery(t *testing.T) {
	// Degree exceeds every shard's block count (entrymap.MaxDegree allowing), so no entrymap boundary
	// record is ever logged and recovery's reconstruction scan must read
	// every sealed block — recovery cost is proportional to shard size,
	// which is what makes "slowest shard" meaningful.
	const (
		shards    = 8
		blockSize = 256
		degree    = 256
		readDelay = 2 * time.Millisecond
	)

	// Build the shards with plain memory devices (fast), sealing an
	// increasing number of blocks on each so one shard is clearly the
	// slowest to recover, then close them.
	mems := make([]*wodev.MemDevice, shards)
	payload := make([]byte, 200) // ~1 entry per 256-byte block
	for i := range mems {
		mems[i] = wodev.NewMem(wodev.MemOptions{BlockSize: blockSize, Capacity: 1 << 12})
		now := int64(0)
		svc, err := core.New(mems[i], core.Options{
			BlockSize: blockSize, Degree: degree,
			Now: func() int64 { now += 1000; return now },
		})
		if err != nil {
			t.Fatal(err)
		}
		id, err := svc.CreateLog("/r", 0, "")
		if err != nil {
			t.Fatal(err)
		}
		blocks := 8 + 4*i
		for svc.End() < blocks {
			if _, err := svc.Append(id, payload, core.AppendOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		if err := svc.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// Reopen all shards as one store: every device read now sleeps
	// readDelay for real.
	devs := make([][]wodev.Device, shards)
	opts := make([]core.Options, shards)
	reg := faults.NewRegistry(0)
	reg.Arm("dev.read", faults.Fault{Delay: readDelay})
	for i := range devs {
		devs[i] = []wodev.Device{wodev.Inject(mems[i], reg, "dev")}
		now := int64(1 << 40)
		opts[i] = core.Options{
			BlockSize: blockSize, Degree: degree,
			Now: func() int64 { now += 1000; return now },
		}
	}
	start := time.Now()
	st, err := Open(devs, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	wall := time.Since(start)

	reports := st.LastRecoveryByShard()
	if len(reports) != shards {
		t.Fatalf("got %d recovery reports, want %d", len(reports), shards)
	}
	var slowest, sum time.Duration
	for i := range devs {
		e := readDelay * time.Duration(st.Service(i).Stats().DeviceReads)
		if e == 0 {
			t.Fatalf("shard %d counted no recovery reads", i)
		}
		if reports[i].SealedBlocks < 8+4*i {
			t.Fatalf("shard %d recovered %d sealed blocks, want >= %d",
				i, reports[i].SealedBlocks, 8+4*i)
		}
		sum += e
		if e > slowest {
			slowest = e
		}
	}
	// The imbalance must be real, or the parallel bound below would also
	// hold for a serial recovery and prove nothing.
	if sum < 3*slowest {
		t.Fatalf("workload not imbalanced enough: serial cost %v < 3x slowest shard %v", sum, slowest)
	}
	if wall > 2*slowest {
		t.Fatalf("parallel recovery took %v, want <= 2x the slowest shard's %v (serial would be %v)",
			wall, slowest, sum)
	}
	t.Logf("recovered %d shards in %v; slowest shard %v, serial sum %v", shards, wall, slowest, sum)
}
