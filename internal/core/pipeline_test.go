package core

// Failure tests for the pipelined seal path (pipeline.go). The pipeline
// overlaps the device write for batch N with NVRAM staging for batch N+1,
// so the dangerous crash windows are (a) the sealer dying mid device write
// while later batches are already staged and acked, and (b) dying after
// the device write but before the staged image's DropSealed. Both must
// recover every acknowledged entry exactly once from staging NVRAM.

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clio/internal/faults"
	"clio/internal/scrub"
	"clio/internal/wodev"
)

// TestCrashMidPipelineRecovery crashes the background sealer's device write
// (the core.seal.write fault point) while concurrent forced appends keep
// staging successor batches into NVRAM — the pipeline's overlap window. The
// acked entries then live in three places at once: sealed device blocks,
// staged seal images awaiting their device write, and the staged tail.
// Reopening over the same NVRAM must recover all of them exactly once.
//
// The test makes the overlap rather than waiting for it: the device holds
// the sealer's first write until the in-flight window is full, then the
// crash is armed and the device released. The held write lands, and the
// next head's write crashes with the rest of the window still staged.
func TestCrashMidPipelineRecovery(t *testing.T) {
	const goroutines = 8
	dev := &gatedDevice{Device: wodev.NewMem(wodev.MemOptions{BlockSize: 256, Capacity: 1 << 18})}
	nv := NewMemNVRAM()
	reg := faults.NewRegistry(0)
	svc, err := New(dev, Options{BlockSize: 256, Degree: 16, CacheBlocks: -1,
		Now: lockedNow(), NVRAM: nv, Faults: reg})
	if err != nil {
		t.Fatal(err)
	}
	id, err := svc.CreateLog("/pipe", 0, "")
	if err != nil {
		t.Fatal(err)
	}

	dev.hold()
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

	// Small blocks fill fast: the appenders seal until the window is full
	// behind the held write, then wait for a slot.
	deadline := time.Now().Add(10 * time.Second)
	for svc.Stats().InflightSeals < maxPipeline {
		if time.Now().After(deadline) {
			t.Fatalf("in-flight window never filled: %d seals in flight", svc.Stats().InflightSeals)
		}
		time.Sleep(time.Millisecond)
	}
	reg.Arm(FaultSealWrite, faults.Fault{Crash: true, Times: 1})
	dev.release()
	wg.Wait()
	if err := svc.Close(); err != nil {
		t.Fatalf("close after the sealer crash: %v", err)
	}
	if reg.Fired(FaultSealWrite) != 1 {
		t.Fatalf("crash point fired %d times, want 1", reg.Fired(FaultSealWrite))
	}
	if len(acked) == 0 {
		t.Fatal("no appends were acknowledged before the crash")
	}

	// Reopen over the same device AND the same NVRAM: staged seals and the
	// staged tail are what recovery has to replay.
	svc2, err := Open([]wodev.Device{dev.Device}, Options{BlockSize: 256, Degree: 16,
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
	if staged := svc2.LastRecovery().StagedSeals; staged < 2 {
		t.Errorf("recovery replayed %d staged seals, want >= 2: the crash missed the overlap", staged)
	}
}

// gatedDevice is a device whose writes can be held: between hold and
// release every WriteAt waits.
type gatedDevice struct {
	wodev.Device
	mu   sync.Mutex
	gate chan struct{} // nil: writes pass
}

func (d *gatedDevice) hold() {
	d.mu.Lock()
	d.gate = make(chan struct{})
	d.mu.Unlock()
}

func (d *gatedDevice) release() {
	d.mu.Lock()
	close(d.gate)
	d.gate = nil
	d.mu.Unlock()
}

func (d *gatedDevice) WriteAt(idx int, data []byte) error {
	d.mu.Lock()
	gate := d.gate
	d.mu.Unlock()
	if gate != nil {
		<-gate
	}
	return d.Device.WriteAt(idx, data)
}

// TestCloseAfterSealerCrashStopsSealer: a crash absorbed by the background
// sealer closes the service; Close must still stop the sealer, which would
// otherwise stay parked waiting for work that never comes.
func TestCloseAfterSealerCrashStopsSealer(t *testing.T) {
	reg := faults.NewRegistry(0)
	svc, err := New(wodev.NewMem(wodev.MemOptions{BlockSize: 256, Capacity: 1 << 12}),
		Options{BlockSize: 256, Degree: 16, Now: lockedNow(), NVRAM: NewMemNVRAM(), Faults: reg})
	if err != nil {
		t.Fatal(err)
	}
	id, err := svc.CreateLog("/crash", 0, "")
	if err != nil {
		t.Fatal(err)
	}
	reg.Arm(FaultSealWrite, faults.Fault{Crash: true, Times: 1})
	payload := make([]byte, 100)
	for i := 0; ; i++ {
		if i == 1000 {
			t.Fatal("1000 forced appends and none failed after the crash")
		}
		if _, err := svc.Append(id, payload, AppendOptions{Forced: true}); err != nil {
			break
		}
	}
	if reg.Fired(FaultSealWrite) != 1 {
		t.Fatalf("crash point fired %d times, want 1", reg.Fired(FaultSealWrite))
	}
	if err := svc.Close(); err != nil {
		t.Fatalf("close after the sealer crash: %v", err)
	}
	svc.mu.Lock()
	running := svc.sealerOn
	svc.mu.Unlock()
	if running {
		t.Error("Close returned with the sealer still running")
	}
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
	if err := sealTail(svc); err != nil {
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

	if err := sealTail(svc); err != nil {
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

// heldDev is a device whose writes, once held, wait for the power cut and
// then fail without touching the medium.
type heldDev struct {
	wodev.Device
	held atomic.Bool
	cut  chan struct{}
}

var errPowerCut = errors.New("power cut before the device write")

func (d *heldDev) WriteAt(idx int, data []byte) error {
	if d.held.Load() {
		<-d.cut
		return errPowerCut
	}
	return d.Device.WriteAt(idx, data)
}

// TestFileBackedCrashWithSealsInFlight is the pipeline's crash guarantee on
// the files production runs on: a Service over a FileDevice and the one
// FileNVRAM sidecar, cut down with k = 0…maxPipeline sealed blocks staged and
// acked but not yet on the device (and a staged tail behind them). The reopen
// replays exactly those k, serves every acked entry once, leaves volumes a
// scrub finds clean — and at every point the shard directory holds one
// sidecar file, whatever was in flight.
func TestFileBackedCrashWithSealsInFlight(t *testing.T) {
	for k := 0; k <= maxPipeline; k++ {
		t.Run(fmt.Sprintf("inflight=%d", k), func(t *testing.T) {
			dir := t.TempDir()
			openDev := func() *wodev.FileDevice {
				dev, err := wodev.OpenFile(filepath.Join(dir, "vol-000000.clio"), wodev.FileOptions{BlockSize: 256, Capacity: 4096})
				if err != nil {
					t.Fatal(err)
				}
				return dev
			}
			oneSidecar := func(when string) {
				t.Helper()
				names, _ := filepath.Glob(filepath.Join(dir, "nvram.clio*"))
				if len(names) != 1 || filepath.Base(names[0]) != "nvram.clio" {
					t.Errorf("%s: sidecar files %v, want exactly nvram.clio", when, names)
				}
			}
			opt := func() Options {
				return Options{BlockSize: 256, Degree: 16, Now: lockedNow(), NVRAM: NewFileNVRAM(filepath.Join(dir, "nvram.clio"))}
			}
			file := openDev()
			dev := &heldDev{Device: file, cut: make(chan struct{})}
			svc, err := New(dev, opt())
			if err != nil {
				t.Fatal(err)
			}
			id, err := svc.CreateLog("/acked", 0, "")
			if err != nil {
				t.Fatal(err)
			}
			var acked []string
			appendOne := func() {
				payload := fmt.Sprintf("acked entry %04d, a third of a block or so ..........", len(acked))
				if _, err := svc.Append(id, []byte(payload), AppendOptions{Forced: true}); err != nil {
					t.Fatalf("append %d: %v", len(acked), err)
				}
				acked = append(acked, payload)
			}
			inFlight := func() int {
				svc.mu.Lock()
				defer svc.mu.Unlock()
				return len(svc.pipe)
			}
			// A few blocks go all the way first; then the device stops taking
			// writes and the window fills behind the held head. The append that
			// seals a block is the first entry of the tail staged behind it.
			for i := 0; i < 20; i++ {
				appendOne()
			}
			drain := func() {
				svc.mu.Lock()
				defer svc.mu.Unlock()
				if err := svc.drainPipeLocked(); err != nil {
					t.Fatal(err)
				}
			}
			drain()
			dev.held.Store(k > 0)
			for inFlight() < k {
				appendOne()
			}
			if k == 0 {
				drain() // nothing in flight, the tail alone is staged
			}
			oneSidecar("before the crash")
			close(dev.cut)
			svc.Crash()
			file.Close()

			re := openDev()
			defer re.Close()
			svc2, err := Open([]wodev.Device{re}, opt())
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			if rec := svc2.LastRecovery(); rec.StagedSeals != k || !rec.TailRestored {
				t.Errorf("recovery replayed %d staged seals (want %d), tail restored=%v", rec.StagedSeals, k, rec.TailRestored)
			}
			got := readAllEntries(t, svc2, "/acked")
			for _, payload := range acked {
				if got[payload] != 1 {
					t.Errorf("acked entry %q read back %d times", payload, got[payload])
				}
			}
			if len(got) != len(acked) {
				t.Errorf("%d entries read back, %d acked", len(got), len(acked))
			}
			oneSidecar("after recovery")
			if err := svc2.Close(); err != nil {
				t.Fatal(err)
			}
			rep, err := scrub.Volumes([]wodev.Device{re}, scrub.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Clean() {
				t.Errorf("scrub after recovery: %v", rep.Problems)
			}
			oneSidecar("after a clean close")
		})
	}
}
