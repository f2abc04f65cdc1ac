package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"clio"
	"clio/internal/archive"
	"clio/internal/core"
	"clio/internal/faults"
)

// TestBackupCarriesStagedSeals: a store killed between a pipelined seal's
// StoreSealed (after which the force is acked) and its device write holds
// acked entries only in nvram.clio.sNNNNNNNN sidecars. A backup must carry
// them — restored from it, the store serves every entry it acked.
func TestBackupCarriesStagedSeals(t *testing.T) {
	ctx := context.Background()
	dir := filepath.Join(t.TempDir(), "store")
	dst := filepath.Join(t.TempDir(), "backup")
	geom = clio.DirOptions{Options: clio.Options{BlockSize: 256}, VolumeBlocks: 512}
	defer func() { geom = clio.DirOptions{} }()

	reg := faults.NewRegistry()
	opt := geom
	opt.Faults = reg
	st, err := clio.CreateStore(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	id, err := st.CreateLog(ctx, "/acked", 0o644, "test")
	if err != nil {
		t.Fatal(err)
	}
	// The next device write of a sealed block dies; its image is staged and
	// its force acked before that. Appends go on until the crash surfaces.
	reg.EnableCrash(core.FaultSealWrite, 1)
	var acked []string
	for i := 0; i < 200; i++ {
		payload := fmt.Sprintf("acked entry %03d, long enough to fill blocks quickly", i)
		if _, err := st.Append(ctx, id, []byte(payload), clio.AppendOptions{Forced: true}); err != nil {
			break
		}
		acked = append(acked, payload)
	}
	st.Crash()
	if reg.Fired(core.FaultSealWrite) != 1 {
		t.Fatalf("the seal write crashed %d times, want 1", reg.Fired(core.FaultSealWrite))
	}
	staged, _ := filepath.Glob(filepath.Join(dir, "nvram.clio.s*"))
	if len(staged) == 0 {
		t.Fatal("test premise: no staged seal sidecar was left by the crash")
	}
	// A torn store beside them must not travel.
	if err := os.WriteFile(filepath.Join(dir, "nvram.clio.s00000099.tmp"), []byte("half"), 0o644); err != nil {
		t.Fatal(err)
	}

	_, sidecars, err := backupShard(ctx, dir, dst)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(staged) + 1; sidecars != want {
		t.Errorf("backup copied %d sidecars, want %d (the tail and %d staged seals)", sidecars, want, len(staged))
	}
	if tmps, _ := filepath.Glob(filepath.Join(dst, "*.tmp")); len(tmps) != 0 {
		t.Errorf("backup carried half-written files: %v", tmps)
	}

	// Restore: the archived volumes, opened over the backed-up sidecars.
	devs, err := archive.Restore(ctx, archive.NewDir(dst))
	if err != nil {
		t.Fatal(err)
	}
	svc, err := core.Open(devs, core.Options{BlockSize: 256, NVRAM: core.NewFileNVRAM(filepath.Join(dst, "nvram.clio"))})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if got := svc.LastRecovery().StagedSeals; got == 0 {
		t.Error("recovery replayed no staged seal from the backup")
	}
	cur, err := svc.OpenCursor("/acked")
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range acked {
		e, err := cur.Next()
		if err != nil {
			t.Fatalf("restored store lost acked entry %d of %d: %v", i, len(acked), err)
		}
		if string(e.Data) != want {
			t.Fatalf("entry %d = %q, want %q", i, e.Data, want)
		}
	}
}
