package core

import (
	"fmt"
	"testing"

	"clio/internal/wodev"
)

// TestCheckpointEncodeDecode round-trips a live service's checkpoint
// payload and pins the torn/garbage validity rules: any mutation —
// truncation, a flipped byte, a wrong magic — must make the payload
// invalid, never misread.
func TestCheckpointEncodeDecode(t *testing.T) {
	tc := &testClock{}
	opt := Options{BlockSize: 256, Degree: 4, Now: tc.Now}
	dev := wodev.NewMem(wodev.MemOptions{BlockSize: 256, Capacity: 1 << 12})
	s, err := New(dev, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	id := mustCreate(t, s, "/a")
	mustCreate(t, s, "/b")
	for i := 0; i < 40; i++ {
		mustAppend(t, s, id, fmt.Sprintf("entry-%02d", i), AppendOptions{Forced: i%7 == 0})
	}
	if err := sealTail(s); err != nil {
		t.Fatal(err)
	}

	s.mu.Lock()
	payload := s.encodeCheckpointLocked()
	wantEnd, wantBound := s.sealedEnd, s.lastBound
	s.mu.Unlock()

	cp, err := decodeCheckpoint(payload)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if cp.coveredEnd != wantEnd || cp.lastBound != wantBound {
		t.Errorf("coveredEnd=%d lastBound=%d, want %d %d", cp.coveredEnd, cp.lastBound, wantEnd, wantBound)
	}
	if cp.acc.N() != 4 {
		t.Errorf("restored degree %d", cp.acc.N())
	}
	if len(cp.catalog) != 2 {
		t.Errorf("catalog snapshot has %d records, want 2", len(cp.catalog))
	}

	if _, err := decodeCheckpoint(payload[:len(payload)-1]); err == nil {
		t.Error("truncated payload accepted")
	}
	for _, off := range []int{0, 5, len(payload) / 2, len(payload) - 2} {
		bad := append([]byte(nil), payload...)
		bad[off] ^= 0x40
		if _, err := decodeCheckpoint(bad); err == nil {
			t.Errorf("payload with byte %d flipped accepted", off)
		}
	}
	if _, err := decodeCheckpoint(nil); err == nil {
		t.Error("empty payload accepted")
	}
}

// TestCheckpointBoundsRecovery is the headline property: with the interval
// policy active, reopen cost (entrymap blocks scanned + catalog records
// replayed) stays bounded by the interval plus a constant as the store
// grows, while without checkpoints it grows with the written portion. Each
// stage also verifies full data and catalog fidelity after the crash.
func TestCheckpointBoundsRecovery(t *testing.T) {
	const interval = 8
	tc := &testClock{}
	opt := Options{BlockSize: 256, Degree: 4, Now: tc.Now, CheckpointInterval: interval}
	dev := wodev.NewMem(wodev.MemOptions{BlockSize: 256, Capacity: 1 << 13})
	s, err := New(dev, opt)
	if err != nil {
		t.Fatal(err)
	}
	id := mustCreate(t, s, "/grow")
	var want []string
	seq := 0
	// The replay window is the interval plus the checkpoint's own blocks
	// and whatever partial block activity follows it; a fixed small slack
	// demonstrates O(interval), independent of total size.
	const slack = 16
	var lastSealed int
	files := 1
	for stage, target := range []int{150, 600, 1500} {
		for seq < target {
			if seq%25 == 0 {
				// Catalog traffic: the no-checkpoint path replays every one
				// of these creates from block 0 on each reopen.
				mustCreate(t, s, fmt.Sprintf("/extra-%04d", seq))
				files++
			}
			p := fmt.Sprintf("entry-%05d", seq)
			mustAppend(t, s, id, p, AppendOptions{Forced: seq%40 == 0})
			want = append(want, p)
			seq++
		}
		if err := s.Force(); err != nil {
			t.Fatal(err)
		}
		s2 := crashAndReopen(t, s, dev, opt)
		rep := s2.LastRecovery()
		if !rep.CheckpointUsed {
			t.Fatalf("stage %d: recovery did not use a checkpoint: %+v", stage, rep)
		}
		cost := rep.EntrymapBlocksScanned + rep.CatalogEntries
		if cost > interval+slack {
			t.Errorf("stage %d: recovery cost %d exceeds interval %d + slack %d (sealed=%d)",
				stage, cost, interval, slack, rep.SealedBlocks)
		}
		if rep.BlocksReplayed > interval+slack {
			t.Errorf("stage %d: replayed %d blocks", stage, rep.BlocksReplayed)
		}
		if rep.SealedBlocks <= lastSealed {
			t.Fatalf("stage %d: store did not grow (%d)", stage, rep.SealedBlocks)
		}
		lastSealed = rep.SealedBlocks
		if got := datas(readAll(t, s2, "/grow")); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("stage %d: read back %d entries, want %d", stage, len(got), len(want))
		}
		if got, err := s2.Resolve("/grow"); err != nil || got != id {
			t.Fatalf("stage %d: Resolve = %d, %v", stage, got, err)
		}
		s = s2
	}

	// A store written with checkpoints stays fully openable without them:
	// the checkpoint records are ordinary entries the full reconstruction
	// simply reads past.
	s.Crash()
	plain := opt
	plain.CheckpointInterval = 0
	s3, err := Open([]wodev.Device{dev}, plain)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	rep := s3.LastRecovery()
	if rep.CheckpointUsed {
		t.Error("checkpoint-disabled open reported CheckpointUsed")
	}
	// The full path replays the whole catalog history (one create per
	// file), so its cost scales with the store while the checkpointed
	// reopens above stayed under interval+slack.
	if rep.CatalogEntries < files {
		t.Errorf("full reconstruction replayed %d catalog records, want >= %d", rep.CatalogEntries, files)
	}
	if got := datas(readAll(t, s3, "/grow")); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("checkpoint-disabled open read %d entries, want %d", len(got), len(want))
	}
}

// TestCheckpointOnCleanClose pins the and/or-on-Close half of the policy: a
// clean Close with the policy active leaves a checkpoint covering
// everything, so the next open replays only the checkpoint's own blocks.
func TestCheckpointOnCleanClose(t *testing.T) {
	tc := &testClock{}
	opt := Options{BlockSize: 256, Degree: 4, Now: tc.Now, CheckpointInterval: 64}
	dev := wodev.NewMem(wodev.MemOptions{BlockSize: 256, Capacity: 1 << 12})
	s, err := New(dev, opt)
	if err != nil {
		t.Fatal(err)
	}
	id := mustCreate(t, s, "/c")
	var want []string
	for i := 0; i < 50; i++ {
		p := fmt.Sprintf("e%02d", i)
		mustAppend(t, s, id, p, AppendOptions{})
		want = append(want, p)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Checkpoints; got != 1 {
		t.Fatalf("Close emitted %d checkpoints, want 1", got)
	}
	s2, err := Open([]wodev.Device{dev}, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	rep := s2.LastRecovery()
	if !rep.CheckpointUsed || rep.BlocksReplayed > 4 {
		t.Errorf("after clean close: used=%v replayed=%d", rep.CheckpointUsed, rep.BlocksReplayed)
	}
	if got := datas(readAll(t, s2, "/c")); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("read back %d entries, want %d", len(got), len(want))
	}
	// Close→reopen with nothing new must not grow the log with another
	// checkpoint block.
	endBefore := s2.End()
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3, err := Open([]wodev.Device{dev}, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if s3.End() != endBefore {
		t.Errorf("idle close/reopen grew the log: %d -> %d", endBefore, s3.End())
	}
}

// Checkpoint emits a recovery checkpoint immediately, regardless of the
// interval policy (which may be disabled). The checkpoint is sealed to the
// device before Checkpoint returns.
func (s *Service) Checkpoint() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closedFlag.Load() {
		return ErrClosed
	}
	return s.emitCheckpointLocked()
}

// checkpointSpan emits a manual checkpoint and returns the data-block range
// [from, to) its records landed in.
func checkpointSpan(t *testing.T, s *Service) (int, int) {
	t.Helper()
	if err := sealTail(s); err != nil {
		t.Fatal(err)
	}
	from := s.End()
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	return from, s.End()
}

// TestTornCheckpointFallsBack simulates a crash during the checkpoint write
// itself: the blocks holding the only checkpoint are garbage at reopen.
// Recovery must treat them as never written and fall back to the full
// reconstruction with no data loss (the damaged blocks held no client
// data).
func TestTornCheckpointFallsBack(t *testing.T) {
	tc := &testClock{}
	opt := Options{BlockSize: 256, Degree: 4, Now: tc.Now}
	dev := wodev.NewMem(wodev.MemOptions{BlockSize: 256, Capacity: 1 << 12})
	s, err := New(dev, opt)
	if err != nil {
		t.Fatal(err)
	}
	id := mustCreate(t, s, "/torn")
	var want []string
	for i := 0; i < 30; i++ {
		p := fmt.Sprintf("pre-%02d", i)
		mustAppend(t, s, id, p, AppendOptions{})
		want = append(want, p)
	}
	ckFrom, ckTo := checkpointSpan(t, s)
	for i := 0; i < 10; i++ {
		p := fmt.Sprintf("post-%02d", i)
		mustAppend(t, s, id, p, AppendOptions{Forced: true})
		want = append(want, p)
	}
	s.Crash()
	garbage := make([]byte, 256)
	for i := range garbage {
		garbage[i] = 0xA5
	}
	for b := ckFrom; b < ckTo; b++ {
		if err := dev.Damage(b+1, garbage); err != nil { // +1: volume header block
			t.Fatal(err)
		}
	}
	reopen := opt
	reopen.CheckpointInterval = 8
	s2, err := Open([]wodev.Device{dev}, reopen)
	if err != nil {
		t.Fatalf("reopen over torn checkpoint: %v", err)
	}
	defer s2.Close()
	rep := s2.LastRecovery()
	if rep.CheckpointUsed {
		t.Error("recovery claimed to use the torn checkpoint")
	}
	if got := datas(readAll(t, s2, "/torn")); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("read back %d entries, want %d", len(got), len(want))
	}
}

// TestTornCheckpointUsesOlderOne: when the newest checkpoint is torn, the
// backward scan must keep going and restore from the previous valid one.
func TestTornCheckpointUsesOlderOne(t *testing.T) {
	tc := &testClock{}
	opt := Options{BlockSize: 256, Degree: 4, Now: tc.Now}
	dev := wodev.NewMem(wodev.MemOptions{BlockSize: 256, Capacity: 1 << 12})
	s, err := New(dev, opt)
	if err != nil {
		t.Fatal(err)
	}
	id := mustCreate(t, s, "/old")
	var want []string
	for i := 0; i < 20; i++ {
		p := fmt.Sprintf("a-%02d", i)
		mustAppend(t, s, id, p, AppendOptions{})
		want = append(want, p)
	}
	_, firstEnd := checkpointSpan(t, s)
	for i := 0; i < 15; i++ {
		p := fmt.Sprintf("b-%02d", i)
		mustAppend(t, s, id, p, AppendOptions{})
		want = append(want, p)
	}
	ckFrom, ckTo := checkpointSpan(t, s)
	s.Crash()
	for b := ckFrom; b < ckTo; b++ {
		if err := dev.Damage(b+1, nil); err != nil {
			t.Fatal(err)
		}
	}
	reopen := opt
	reopen.CheckpointInterval = 64
	s2, err := Open([]wodev.Device{dev}, reopen)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	rep := s2.LastRecovery()
	if !rep.CheckpointUsed {
		t.Fatal("recovery did not fall back to the older checkpoint")
	}
	if wantReplay := rep.SealedBlocks - (firstEnd - 1) + 1; rep.BlocksReplayed < rep.SealedBlocks-firstEnd || rep.BlocksReplayed > wantReplay+2 {
		t.Errorf("BlocksReplayed = %d, want about %d", rep.BlocksReplayed, rep.SealedBlocks-firstEnd)
	}
	if got := datas(readAll(t, s2, "/old")); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("read back %d entries, want %d", len(got), len(want))
	}
}

// TestCheckpointWithNVRAMTail crashes right after a checkpoint with a
// freshly staged NVRAM tail: recovery must both restore from the checkpoint
// and re-stage the tail, losing nothing.
func TestCheckpointWithNVRAMTail(t *testing.T) {
	tc := &testClock{}
	opt := Options{BlockSize: 256, Degree: 4, Now: tc.Now,
		NVRAM: NewMemNVRAM(), CheckpointInterval: 8}
	dev := wodev.NewMem(wodev.MemOptions{BlockSize: 256, Capacity: 1 << 12})
	s, err := New(dev, opt)
	if err != nil {
		t.Fatal(err)
	}
	id := mustCreate(t, s, "/nv")
	var want []string
	i := 0
	for s.Stats().Checkpoints == 0 {
		p := fmt.Sprintf("bulk-%03d", i)
		mustAppend(t, s, id, p, AppendOptions{Forced: true})
		want = append(want, p)
		i++
		if i > 2000 {
			t.Fatal("no checkpoint after 2000 forced appends")
		}
	}
	// A few more forced entries: they live only in the NVRAM-staged tail.
	for j := 0; j < 3; j++ {
		p := fmt.Sprintf("staged-%d", j)
		mustAppend(t, s, id, p, AppendOptions{Forced: true})
		want = append(want, p)
	}
	s2 := crashAndReopen(t, s, dev, opt)
	defer s2.Close()
	rep := s2.LastRecovery()
	if !rep.CheckpointUsed {
		t.Error("recovery did not use the checkpoint")
	}
	if !rep.TailRestored {
		t.Error("NVRAM-staged tail not restored")
	}
	if got := datas(readAll(t, s2, "/nv")); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("read back %d entries, want %d", len(got), len(want))
	}
}

// TestCheckpointAfterDamageSlide: a checkpoint that follows a bad-block
// slide carries the bad-block list, and a recovery from it still reports
// the damaged block.
func TestCheckpointAfterDamageSlide(t *testing.T) {
	tc := &testClock{}
	opt := Options{BlockSize: 256, Degree: 4, Now: tc.Now, CheckpointInterval: 8}
	dev := wodev.NewMem(wodev.MemOptions{BlockSize: 256, Capacity: 1 << 12})
	s, err := New(dev, opt)
	if err != nil {
		t.Fatal(err)
	}
	id := mustCreate(t, s, "/slide")
	mustAppend(t, s, id, "first", AppendOptions{Forced: true})
	if err := dev.Damage(dev.Written(), nil); err != nil {
		t.Fatal(err)
	}
	var want []string
	want = append(want, "first")
	for i := 0; i < 60; i++ {
		p := fmt.Sprintf("s-%02d", i)
		mustAppend(t, s, id, p, AppendOptions{Forced: true})
		want = append(want, p)
	}
	if got := s.Stats().Checkpoints; got == 0 {
		t.Fatal("no checkpoint emitted")
	}
	s2 := crashAndReopen(t, s, dev, opt)
	defer s2.Close()
	rep := s2.LastRecovery()
	if !rep.CheckpointUsed {
		t.Error("checkpoint not used")
	}
	if len(rep.BadBlocks) != 1 {
		t.Errorf("BadBlocks = %v, want one entry", rep.BadBlocks)
	}
	if got := datas(readAll(t, s2, "/slide")); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("read back %d entries, want %d", len(got), len(want))
	}
}
