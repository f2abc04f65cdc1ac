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
	"clio/internal/scrub"
)

// TestBackupCarriesStagedSeals: a store killed between a pipelined seal's
// StoreSealed (after which the force is acked) and its device write holds
// acked entries only in its sidecar, nvram.clio, beside the staged tail. The
// backup copies that one file per shard and with it carries them — restored
// from it, the store serves every entry it acked.
func TestBackupCarriesStagedSeals(t *testing.T) {
	ctx := context.Background()
	dir := filepath.Join(t.TempDir(), "store")
	dst := filepath.Join(t.TempDir(), "backup")
	reg := faults.NewRegistry(0)
	opt := clio.DirOptions{Options: clio.Options{BlockSize: 256}, VolumeBlocks: 512}
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
	reg.Arm(core.FaultSealWrite, faults.Fault{Crash: true, Times: 1})
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
	staged, _, err := core.NewFileNVRAM(filepath.Join(dir, "nvram.clio")).LoadSealed()
	if err != nil || len(staged) == 0 {
		t.Fatalf("test premise: no staged seal was left by the crash (%v)", err)
	}
	if names, _ := filepath.Glob(filepath.Join(dir, "nvram.clio*")); len(names) != 1 {
		t.Fatalf("the crashed shard's sidecar is %v, want the one file", names)
	}
	// A re-layout the crash cut short must not travel.
	if err := os.WriteFile(filepath.Join(dir, "nvram.clio.tmp"), []byte("half"), 0o644); err != nil {
		t.Fatal(err)
	}

	_, sidecars, err := backupStore(ctx, dir, dst)
	if err != nil {
		t.Fatal(err)
	}
	if sidecars != 1 {
		t.Errorf("backup copied %d sidecars, want the shard's one", sidecars)
	}
	if names, _ := filepath.Glob(filepath.Join(dst, "nvram.clio*")); len(names) != 1 || filepath.Base(names[0]) != "nvram.clio" {
		t.Errorf("backup holds sidecar files %v, want nvram.clio alone", names)
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
	if got := svc.LastRecovery().StagedSeals; got != len(staged) {
		t.Errorf("recovery replayed %d staged seals from the backup, the crash left %d", got, len(staged))
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

// TestOfflineCommandsUseStoreGeometry: fsck, du and backup open a store at
// the geometry it records — no flags — and cover every volume of every
// shard: a store created with small volumes and blocks, rolled onto at least
// its third volume per shard, scrubs clean with every appended entry
// accounted to its log, and its backup restores to the same.
func TestOfflineCommandsUseStoreGeometry(t *testing.T) {
	ctx := context.Background()
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "store")
			opt := clio.DirOptions{Options: clio.Options{BlockSize: 256}, VolumeBlocks: 48, Shards: shards}
			st, err := clio.CreateStore(dir, opt)
			if err != nil {
				t.Fatal(err)
			}
			ids := make(map[string]clio.ID)
			for i := 0; i < 16; i++ {
				path := fmt.Sprintf("/log%02d", i)
				if ids[path], err = st.CreateLog(ctx, path, 0o644, "test"); err != nil {
					t.Fatal(err)
				}
			}
			rolled := func() bool {
				for s := 0; s < shards; s++ {
					if len(st.Service(s).Volumes()) < 3 {
						return false
					}
				}
				return true
			}
			appended := 0
			for ; !rolled(); appended++ {
				for path, id := range ids {
					p := fmt.Sprintf("%s entry %05d, padded so that blocks fill quickly........", path, appended)
					if _, err := st.Append(ctx, id, []byte(p), clio.AppendOptions{}); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}

			// checkUsage: every log holds the entries appended to it, less at
			// most the few in the shard's last, partial block — that one is
			// staged in the NVRAM sidecar, not on the media a scrub reads.
			const tailEntries = 256 / 60
			checkUsage := func(what string, reports []*scrub.Report) {
				t.Helper()
				found := 0
				for _, rep := range reports {
					if !rep.Clean() {
						t.Errorf("%s: not clean: %v", what, rep.Problems)
					}
					for _, u := range rep.Usage {
						if _, ok := ids[u.Path]; ok {
							found++
							if u.Entries > appended || u.Entries < appended-tailEntries {
								t.Errorf("%s: %s holds %d entries, want %d (or up to %d fewer)", what, u.Path, u.Entries, appended, tailEntries)
							}
						}
					}
				}
				if found != len(ids) {
					t.Errorf("%s: found %d of %d logs", what, found, len(ids))
				}
			}

			scrubbed, err := scrubStore(dir, scrub.Options{})
			if err != nil {
				t.Fatal(err)
			}
			var reports []*scrub.Report
			for s, sh := range scrubbed {
				reports = append(reports, sh.Report)
				if sh.hot < 2*48*256 || sh.cold != 0 {
					t.Errorf("shard %d: %d bytes hot, %d cold; want at least two full volumes hot", s, sh.hot, sh.cold)
				}
			}
			checkUsage("fsck/du", reports)

			dst := filepath.Join(t.TempDir(), "backup")
			total, _, err := backupStore(ctx, dir, dst)
			if err != nil {
				t.Fatal(err)
			}
			if total.VolumesSeen < 3*shards {
				t.Errorf("backup saw %d volumes, want at least %d", total.VolumesSeen, 3*shards)
			}
			archives, err := clio.ShardDirs(dst)
			if err != nil || len(archives) != shards {
				t.Fatalf("backup holds %d shard archives (%v), want %d", len(archives), err, shards)
			}
			reports = nil
			for _, a := range archives {
				devs, err := archive.Restore(ctx, archive.NewDir(a))
				if err != nil {
					t.Fatal(err)
				}
				rep, err := scrub.Volumes(devs, scrub.Options{})
				if err != nil {
					t.Fatal(err)
				}
				reports = append(reports, rep)
			}
			checkUsage("restored backup", reports)
		})
	}
}
