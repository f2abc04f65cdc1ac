package core

// Failure tests for the pipelined seal path (pipeline.go). The pipeline
// overlaps the device write for batch N with NVRAM staging for batch N+1,
// so the dangerous crash windows are (a) the sealer dying mid device write
// while later batches are already staged and acked, and (b) dying after
// the device write but before the staged image's DropSealed. Both must
// recover every acknowledged entry exactly once from staging NVRAM.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"clio/internal/faults"
	"clio/internal/wodev"
)

// TestCrashMidPipelineRecovery crashes the background sealer's device write
// (the core.seal.write fault point) while concurrent forced appends keep
// staging successor batches into NVRAM — the pipeline's overlap window. The
// acked entries then live in three places at once: sealed device blocks,
// staged seal images awaiting their device write, and the staged tail.
// Reopening over the same NVRAM must recover all of them exactly once.
//
// The crash lands while earlier seals are in flight, so at least one staged
// image must be replayed; the test retries the storm until a run proves the
// overlap (two or more staged seals pending at the crash).
func TestCrashMidPipelineRecovery(t *testing.T) {
	overlapSeen := false
	for attempt := 0; attempt < 6 && !overlapSeen; attempt++ {
		staged := crashMidPipelineOnce(t)
		if staged >= 2 {
			overlapSeen = true
		}
		t.Logf("attempt %d: %d staged seals replayed", attempt, staged)
	}
	if !overlapSeen {
		t.Error("no run crashed with >=2 staged seals in flight; pipeline overlap never exercised")
	}
}

// crashMidPipelineOnce runs one storm-crash-recover cycle and returns how
// many staged seal images recovery replayed. Acked-entry loss fails the
// test immediately.
func crashMidPipelineOnce(t *testing.T) int {
	t.Helper()
	const goroutines = 8
	// Slow device writes keep the sealer busy so the pipe fills; small
	// blocks make seals frequent.
	dev := latentMem(256, 300*time.Microsecond)
	nv := NewMemNVRAM()
	reg := faults.NewRegistry()
	svc, err := New(dev, Options{BlockSize: 256, Degree: 16, CacheBlocks: -1,
		Now: lockedNow(), NVRAM: nv, Faults: reg})
	if err != nil {
		t.Fatal(err)
	}
	id, err := svc.CreateLog("/pipe", 0, "")
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	acked := make(map[string]int64)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				payload := fmt.Sprintf("g%02d-i%04d-pipeline-filler", g, i)
				ts, err := svc.Append(id, []byte(payload), AppendOptions{Forced: true})
				if err == nil || IsDegraded(err) {
					mu.Lock()
					acked[payload] = ts
					mu.Unlock()
					continue
				}
				// After the sealer crash the service is closed; appenders see
				// ErrClosed or the absorbed crash error. Either way the append
				// was not acked and makes no durability claim.
				return
			}
		}(g)
	}

	// Let the pipe saturate, then crash the next head device write.
	time.Sleep(15 * time.Millisecond)
	reg.EnableCrash(FaultSealWrite, 1)
	wg.Wait()
	if reg.Fired(FaultSealWrite) != 1 {
		t.Fatalf("crash point fired %d times, want 1", reg.Fired(FaultSealWrite))
	}
	if len(acked) == 0 {
		t.Fatal("no appends were acknowledged before the crash")
	}

	// Reopen over the same device AND the same NVRAM: staged seals and the
	// staged tail are what recovery has to replay.
	svc2, err := Open([]wodev.Device{dev}, Options{BlockSize: 256, Degree: 16,
		CacheBlocks: -1, Now: lockedNow(), NVRAM: nv})
	if err != nil {
		t.Fatalf("reopen after pipeline crash: %v", err)
	}
	defer svc2.Close()
	got := readAllEntries(t, svc2, "/pipe")
	for payload, ts := range acked {
		n, ok := got[payload]
		if !ok {
			t.Errorf("acked entry %q (ts %d) lost across pipeline crash", payload, ts)
		} else if n != 1 {
			t.Errorf("entry %q recovered %d times, want exactly once", payload, n)
		}
	}
	if t.Failed() {
		t.FailNow()
	}
	return svc2.LastRecovery().StagedSeals
}

// TestStagedSealAlreadyOnDeviceIdempotentReplay simulates a crash in the
// narrowest pipeline window: after a seal's device write completed but
// before its staged image was dropped from NVRAM (sealHeadLocked runs
// DropSealed last, so this window is real). Recovery then finds a staged
// image whose block is already on the write-once device and must recognize
// it instead of appending a duplicate block.
func TestStagedSealAlreadyOnDeviceIdempotentReplay(t *testing.T) {
	dev := wodev.NewMem(wodev.MemOptions{BlockSize: 256, Capacity: 1 << 12})
	nv := NewMemNVRAM()
	svc, err := New(dev, Options{BlockSize: 256, Degree: 16, CacheBlocks: -1,
		Now: lockedNow(), NVRAM: nv})
	if err != nil {
		t.Fatal(err)
	}
	id, err := svc.CreateLog("/stale", 0, "")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if _, err := svc.Append(id, []byte(fmt.Sprintf("entry-%02d-padding-padding", i)),
			AppendOptions{Forced: true}); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.SealTail(); err != nil {
		t.Fatal(err)
	}
	end := svc.End() // tail sealed and pipeline drained: all blocks on device
	if end < 2 {
		t.Fatalf("only %d sealed blocks; payloads too small to seal", end)
	}
	last := end - 1
	img, err := svc.readBlock(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	// "Crash" after the device write, before DropSealed: the staged image
	// for the last sealed block is still in NVRAM at reopen.
	if err := nv.StoreSealed(last, img); err != nil {
		t.Fatal(err)
	}
	svc2, err := Open([]wodev.Device{dev}, Options{BlockSize: 256, Degree: 16,
		CacheBlocks: -1, Now: lockedNow(), NVRAM: nv})
	if err != nil {
		t.Fatalf("reopen with stale staged seal: %v", err)
	}
	defer svc2.Close()
	if got := svc2.LastRecovery().StagedSeals; got != 1 {
		t.Errorf("StagedSeals = %d, want 1 (the stale image, recognized)", got)
	}
	if svc2.End() != end {
		t.Errorf("end after replay = %d, want %d (stale image must not re-append)", svc2.End(), end)
	}
	got := readAllEntries(t, svc2, "/stale")
	for i := 0; i < 12; i++ {
		payload := fmt.Sprintf("entry-%02d-padding-padding", i)
		if got[payload] != 1 {
			t.Errorf("entry %q present %d times, want exactly once", payload, got[payload])
		}
	}
	// And the staged slot must be gone: a second reopen replays nothing.
	if gs, _, err := nv.LoadSealed(); err != nil || len(gs) != 0 {
		t.Errorf("staged seals after replay = %v (err %v), want none", gs, err)
	}
}

// TestPipelineStatsAndReset pins the new adaptivity observability: the
// in-flight gauges (InflightSeals, StagedBytes) reflect live pipeline
// state, the cumulative counters (PipelinedSeals, AdaptiveWaits, batch
// histogram) accumulate, and ResetCounters zeroes the cumulative fields
// without disturbing the gauges' live meaning.
func TestPipelineStatsAndReset(t *testing.T) {
	// 5ms device writes: after two quick seals the sealer is still writing
	// the first block, so the second is deterministically in flight.
	dev := latentMem(256, 5*time.Millisecond)
	nv := NewMemNVRAM()
	svc, err := New(dev, Options{BlockSize: 256, Degree: 16, CacheBlocks: -1,
		Now: lockedNow(), NVRAM: nv})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	id, err := svc.CreateLog("/stats", 0, "")
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 100) // ~2 entries per 256-byte block
	for i := 0; i < 6; i++ {
		if _, err := svc.Append(id, payload, AppendOptions{Forced: true}); err != nil {
			t.Fatal(err)
		}
	}
	st := svc.Stats()
	if st.InflightSeals < 1 {
		t.Errorf("InflightSeals = %d, want >= 1 while the sealer is mid-write", st.InflightSeals)
	}
	if st.StagedBytes < 256 {
		t.Errorf("StagedBytes = %d, want >= one block image", st.StagedBytes)
	}

	if err := svc.SealTail(); err != nil {
		t.Fatal(err)
	}
	st = svc.Stats()
	if st.InflightSeals != 0 || st.StagedBytes != 0 {
		t.Errorf("after drain: InflightSeals=%d StagedBytes=%d, want 0/0", st.InflightSeals, st.StagedBytes)
	}
	if st.PipelinedSeals == 0 {
		t.Error("PipelinedSeals = 0 after pipelined seals completed")
	}
	if st.ForcedWrites != 6 {
		t.Errorf("ForcedWrites = %d, want 6", st.ForcedWrites)
	}
	var batches int64
	for _, v := range svc.BatchSizeHistogram() {
		batches += v
	}
	if batches == 0 {
		t.Error("batch-size histogram empty after forced commits")
	}

	svc.ResetCounters()
	st = svc.Stats()
	if st.PipelinedSeals != 0 || st.AdaptiveWaits != 0 || st.GroupCommits != 0 ||
		st.BatchedForces != 0 || st.ForcedWrites != 0 || st.BlocksSealed != 0 {
		t.Errorf("cumulative stats survived ResetCounters: %+v", st)
	}
	if st.InflightSeals != 0 || st.StagedBytes != 0 {
		t.Errorf("gauges wrong after reset with drained pipe: InflightSeals=%d StagedBytes=%d",
			st.InflightSeals, st.StagedBytes)
	}
	for i, v := range svc.BatchSizeHistogram() {
		if v != 0 {
			t.Errorf("batch histogram bucket %d = %d after ResetCounters", i, v)
		}
	}
}
