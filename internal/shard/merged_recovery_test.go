package shard

import (
	"fmt"
	"testing"

	"clio/internal/core"
	"clio/internal/wodev"
)

// buildCrashedShards seals a little data on each of n shards (damaging one
// block per shard at the SAME shard-local index when damage is set), then
// crashes them and returns the reopen inputs. The NVRAM slice entries are
// non-nil for shards whose tail was staged (forced) rather than sealed.
func buildCrashedShards(t *testing.T, n int, damage bool, nvramOn []bool) ([][]wodev.Device, []core.Options) {
	t.Helper()
	devs := make([][]wodev.Device, n)
	opts := make([]core.Options, n)
	for i := 0; i < n; i++ {
		mem := wodev.NewMem(wodev.MemOptions{BlockSize: 256, Capacity: 1 << 10})
		opt := core.Options{BlockSize: 256, Degree: 4}
		now := int64(0)
		opt.Now = func() int64 { now += 1000; return now }
		if nvramOn != nil && nvramOn[i] {
			opt.NVRAM = core.NewMemNVRAM()
		}
		svc, err := core.New(mem, opt)
		if err != nil {
			t.Fatal(err)
		}
		id, err := svc.CreateLog("/r", 0, "")
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 6; j++ {
			if _, err := svc.Append(id, []byte(fmt.Sprintf("s%d-%d", i, j)), core.AppendOptions{Forced: true}); err != nil && !core.IsDegraded(err) {
				t.Fatal(err)
			}
		}
		if damage {
			// Same shard-local index on every shard: the collision the
			// merged report must not alias.
			if err := mem.Damage(mem.Written(), nil); err != nil {
				t.Fatal(err)
			}
			// A few forced appends so the slide happens AND the bad-block
			// log record itself reaches the device before the crash.
			for j := 0; j < 3; j++ {
				if _, err := svc.Append(id, []byte("post-damage"), core.AppendOptions{Forced: true}); err != nil && !core.IsDegraded(err) {
					t.Fatal(err)
				}
			}
		}
		if nvramOn != nil && nvramOn[i] {
			// Leave a staged, unsealed tail behind for the crash.
			if _, err := svc.Append(id, []byte("staged"), core.AppendOptions{Forced: true}); err != nil && !core.IsDegraded(err) {
				t.Fatal(err)
			}
		}
		svc.Crash()
		devs[i] = []wodev.Device{mem}
		opts[i] = opt
	}
	return devs, opts
}

// TestMergedRecoveryAttributesBadBlocks is the regression test for the
// LastRecovery merge: every shard has a bad block at the SAME shard-local
// index, and the merged report must keep all of them, attributed. The old
// report concatenated bare shard-local indices into one []int, where these
// collide indistinguishably.
func TestMergedRecoveryAttributesBadBlocks(t *testing.T) {
	const shards = 3
	devs, opts := buildCrashedShards(t, shards, true, nil)
	st, err := Open(devs, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	rep := st.LastRecovery()
	if len(rep.BadBlocks) != shards {
		t.Fatalf("merged BadBlocks = %v, want one per shard", rep.BadBlocks)
	}
	byShard := make(map[int]int)
	block := -1
	for _, ref := range rep.BadBlocks {
		byShard[ref.Shard]++
		if block == -1 {
			block = ref.Block
		} else if ref.Block != block {
			t.Fatalf("test setup: expected identical shard-local indices, got %v", rep.BadBlocks)
		}
	}
	for i := 0; i < shards; i++ {
		if byShard[i] != 1 {
			t.Errorf("shard %d has %d attributed bad blocks, want 1 (%v)", i, byShard[i], rep.BadBlocks)
		}
	}
	// Cross-check attribution against the per-shard reports.
	for i, r := range st.LastRecoveryByShard() {
		if len(r.BadBlocks) != 1 || r.BadBlocks[0] != block {
			t.Errorf("shard %d report BadBlocks = %v, want [%d]", i, r.BadBlocks, block)
		}
	}
}

// TestMergedRecoveryTailQuantifiers pins the explicit any/count semantics:
// with NVRAM on a strict subset of shards, TailsRestored counts exactly
// those shards and TailRestored (the "any" flag) is true; with NVRAM
// nowhere, both are zero-valued.
func TestMergedRecoveryTailQuantifiers(t *testing.T) {
	devs, opts := buildCrashedShards(t, 3, false, []bool{true, false, true})
	st, err := Open(devs, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rep := st.LastRecovery()
	if rep.TailsRestored != 2 {
		t.Errorf("TailsRestored = %d, want 2", rep.TailsRestored)
	}
	if !rep.TailRestored {
		t.Error("TailRestored = false with two shards restored")
	}
	per := st.LastRecoveryByShard()
	for i, wantTail := range []bool{true, false, true} {
		if per[i].TailRestored != wantTail {
			t.Errorf("shard %d TailRestored = %v, want %v", i, per[i].TailRestored, wantTail)
		}
	}

	devs2, opts2 := buildCrashedShards(t, 2, false, nil)
	st2, err := Open(devs2, opts2)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	rep2 := st2.LastRecovery()
	if rep2.TailsRestored != 0 || rep2.TailRestored {
		t.Errorf("no-NVRAM store: TailsRestored=%d TailRestored=%v, want 0/false",
			rep2.TailsRestored, rep2.TailRestored)
	}
}

// TestStoreCheckpointFanOut: every shard checkpoints, and a store-wide
// crash then recovers every shard from its checkpoint, with the merged
// report counting them.
func TestStoreCheckpointFanOut(t *testing.T) {
	const shards = 3
	devs, opts := buildCrashedShards(t, shards, false, nil)
	for i := range opts {
		opts[i].CheckpointInterval = 1 // a checkpoint after every seal
	}
	st, err := Open(devs, opts)
	if err != nil {
		t.Fatal(err)
	}
	err = st.each(func(svc *core.Service) error {
		id, err := svc.Resolve("/r")
		if err != nil {
			return err
		}
		// Without NVRAM a forced append seals its block: a checkpoint is due.
		_, err = svc.Append(id, []byte("sealed"), core.AppendOptions{Forced: true})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	st.Crash()

	st2, err := Open(devs, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	rep := st2.LastRecovery()
	if rep.CheckpointsUsed != shards {
		t.Errorf("CheckpointsUsed = %d, want %d", rep.CheckpointsUsed, shards)
	}
	for i, r := range st2.LastRecoveryByShard() {
		if !r.CheckpointUsed {
			t.Errorf("shard %d did not use its checkpoint", i)
		}
	}
}
