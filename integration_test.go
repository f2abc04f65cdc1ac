package clio_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"sync"
	"testing"

	"clio"
	"clio/internal/archive"
	"clio/internal/atomicfs"
	"clio/internal/client"
	"clio/internal/core"
	"clio/internal/histfs"
	"clio/internal/mailstore"
	"clio/internal/rewritefs"
	"clio/internal/scrub"
	"clio/internal/server"
	"clio/internal/wodev"
)

// TestFullSystemIntegration is the capstone: a file-backed store served over
// TCP to concurrent clients running all three history-based applications,
// then a crash, recovery, verification (fsck), incremental backup, restore,
// and a final cross-check that the restored sequence holds the same data.
func TestFullSystemIntegration(t *testing.T) {
	dir := t.TempDir()
	st, err := clio.CreateStore(dir, clio.DirOptions{VolumeBlocks: 4096})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.NewStore(st)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	addr := ln.Addr().String()

	// Three concurrent application clients over TCP.
	var wg sync.WaitGroup
	errs := make(chan error, 3)

	wg.Add(1)
	go func() { // the mail agent
		defer wg.Done()
		cl, err := client.DialOptions(addr, client.Options{})
		if err != nil {
			errs <- err
			return
		}
		defer cl.Close()
		ctx := context.Background()
		ms, err := mailstore.New(ctx, cl, "/mail")
		if err != nil {
			errs <- err
			return
		}
		if err := ms.CreateMailbox(ctx, "ops"); err != nil {
			errs <- err
			return
		}
		for i := 0; i < 25; i++ {
			if _, err := ms.Deliver(ctx, "ops", "monitor", fmt.Sprintf("alert %d", i), "disk almost full"); err != nil {
				errs <- err
				return
			}
		}
	}()

	wg.Add(1)
	go func() { // the versioned-file service
		defer wg.Done()
		cl, err := client.DialOptions(addr, client.Options{})
		if err != nil {
			errs <- err
			return
		}
		defer cl.Close()
		ctx := context.Background()
		fs, err := histfs.New(ctx, cl, "/histfs")
		if err != nil {
			errs <- err
			return
		}
		if err := fs.Create(ctx, "config", 0o644); err != nil {
			errs <- err
			return
		}
		for i := 0; i < 15; i++ {
			if err := fs.Truncate(ctx, "config", 0); err != nil {
				errs <- err
				return
			}
			if err := fs.Append(ctx, "config", []byte(fmt.Sprintf("version=%d", i))); err != nil {
				errs <- err
				return
			}
		}
	}()

	wg.Add(1)
	go func() { // a plain audit logger
		defer wg.Done()
		cl, err := client.DialOptions(addr, client.Options{})
		if err != nil {
			errs <- err
			return
		}
		defer cl.Close()
		id, err := cl.CreateLog(context.Background(), "/audit", 0o600, "sec")
		if err != nil {
			errs <- err
			return
		}
		for i := 0; i < 100; i++ {
			if _, err := cl.Append(context.Background(), id, []byte(fmt.Sprintf("audit-%03d", i)),
				client.AppendOptions{Timestamped: true, Forced: i%10 == 0}); err != nil {
				errs <- err
				return
			}
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Force everything durable, then crash the whole server.
	ctx := context.Background()
	if err := st.Force(ctx); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	st.Crash()

	// Reopen from disk (recovery: end-find, entrymap rebuild, catalog
	// replay, NVRAM tail restore).
	st2, err := clio.OpenStore(dir, clio.DirOptions{VolumeBlocks: 4096})
	if err != nil {
		t.Fatal(err)
	}
	rep := st2.LastRecovery()
	if rep.CatalogEntries == 0 {
		t.Error("no catalog records replayed")
	}

	// All three applications see their state.
	ms, err := mailstore.New(ctx, st2, "/mail")
	if err != nil {
		t.Fatal(err)
	}
	msgs, err := ms.List(ctx, "ops", true)
	if err != nil || len(msgs) != 25 {
		t.Fatalf("mail after recovery: %d, %v", len(msgs), err)
	}
	fs2, err := histfs.New(ctx, st2, "/histfs")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := fs2.Read(ctx, "config")
	if err != nil || string(cfg) != "version=14" {
		t.Fatalf("config after recovery: %q, %v", cfg, err)
	}
	cur, err := st2.OpenCursor(ctx, "/audit")
	if err != nil {
		t.Fatal(err)
	}
	audit := 0
	for {
		if _, err := cur.Next(ctx); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		audit++
	}
	if audit != 100 {
		t.Fatalf("audit entries after recovery: %d", audit)
	}

	// The atomic-update extension shares the same sequence.
	afs, err := atomicfs.New(st2.Service(0), rewritefs.New(rewritefs.NewStore(1024, 1<<16)), "/wal")
	if err != nil {
		t.Fatal(err)
	}
	txn := afs.Begin()
	_ = txn.Create("ledger")
	_ = txn.WriteAt("ledger", 0, []byte("balanced"))
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}

	// Close cleanly, then fsck the store on disk.
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	devs, err := openVolumeFiles(t, dir)
	if err != nil {
		t.Fatal(err)
	}
	srep, err := scrub.Volumes(devs, scrub.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range srep.Problems {
		t.Errorf("fsck: %s", p)
	}

	// Incremental backup carrying the staged tail in the NVRAM sidecar (as
	// `clio backup` does), then restore and compare the audit log.
	archDir := t.TempDir()
	arch := archive.NewDir(archDir)
	if _, err := archive.Backup(ctx, devs, arch); err != nil {
		t.Fatal(err)
	}
	if _, err := core.NewFileNVRAM(filepath.Join(dir, "nvram.clio")).CopyTo(archDir); err != nil {
		t.Fatal(err)
	}
	for _, d := range devs {
		d.Close()
	}
	restored, err := archive.Restore(ctx, arch)
	if err != nil {
		t.Fatal(err)
	}
	svc3, err := core.Open(restored, core.Options{BlockSize: 1024,
		NVRAM: core.NewFileNVRAM(filepath.Join(archDir, "nvram.clio"))})
	if err != nil {
		t.Fatal(err)
	}
	defer svc3.Close()
	cur3, err := svc3.OpenCursor("/audit")
	if err != nil {
		t.Fatal(err)
	}
	var first []byte
	n := 0
	for {
		e, err := cur3.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			first = e.Data
		}
		n++
	}
	if n != 100 || !bytes.Equal(first, []byte("audit-000")) {
		t.Fatalf("restored audit: %d entries, first %q", n, first)
	}
}

func openVolumeFiles(t *testing.T, dir string) ([]wodev.Device, error) {
	t.Helper()
	var out []wodev.Device
	for i := 0; ; i++ {
		dev, err := wodev.OpenFile(fmt.Sprintf("%s/vol-%08d.clio", dir, i), wodev.FileOptions{Capacity: 4096})
		if err != nil {
			if i == 0 {
				return nil, err
			}
			break
		}
		if dev.Written() == 0 {
			dev.Close()
			break
		}
		out = append(out, dev)
	}
	return out, nil
}

// TestShardedStoreCrashMidSealRecovers crashes a multi-volume, multi-shard
// file-backed store mid-seal — durable entries on every shard, plus a
// partial tail block staged only in each shard's NVRAM sidecar — and
// verifies reopening recovers every shard in one step: the shard count is
// detected from the directory, each shard reports its own recovery, the
// catalog resolves every path to its pre-crash id, and every entry written
// before the crash (sealed or staged) reads back in order.
func TestShardedStoreCrashMidSealRecovers(t *testing.T) {
	const shards = 3
	dir := t.TempDir()
	opts := clio.DirOptions{Shards: shards, VolumeBlocks: 48}
	opts.BlockSize = 512
	st, err := clio.CreateStore(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Enough distinct root segments that every shard owns at least one log.
	paths := make([]string, 12)
	ids := make([]clio.ID, len(paths))
	covered := make(map[int]bool)
	for i := range paths {
		paths[i] = fmt.Sprintf("/seg%02d", i)
		id, err := st.CreateLog(ctx, paths[i], 0, "")
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
		covered[id.Shard()] = true
	}
	if len(covered) != shards {
		t.Fatalf("12 root segments covered %d of %d shards", len(covered), shards)
	}

	// Write until every shard has spilled into a second volume file, so
	// recovery walks a multi-volume sequence on every shard.
	counts := make([]int, len(paths))
	payload := bytes.Repeat([]byte("x"), 400)
	for round := 0; ; round++ {
		for i, id := range ids {
			data := append([]byte(fmt.Sprintf("%s-%04d|", paths[i], counts[i])), payload...)
			if _, err := st.Append(ctx, id, data, clio.AppendOptions{}); err != nil {
				t.Fatal(err)
			}
			counts[i]++
		}
		all := true
		for s := 0; s < shards; s++ {
			if st.Service(s).End() <= 56 {
				all = false
			}
		}
		if all {
			break
		}
		if round > 2000 {
			t.Fatal("shards never crossed the first volume boundary")
		}
	}
	if err := st.Force(ctx); err != nil {
		t.Fatal(err)
	}
	// A few more forced entries staged only in the NVRAM-held partial tail
	// block: the crash happens "mid-seal", before any of them reach the
	// write-once device itself.
	for i, id := range ids[:shards] {
		data := []byte(fmt.Sprintf("%s-%04d|staged", paths[i], counts[i]))
		if _, err := st.Append(ctx, id, data, clio.AppendOptions{Forced: true}); err != nil {
			t.Fatal(err)
		}
		counts[i]++
	}
	st.Crash()

	// Reopen: the shard count comes from the directory layout (only the
	// block geometry must be supplied, as for any open).
	reopen := clio.DirOptions{VolumeBlocks: 48}
	reopen.BlockSize = 512
	st2, err := clio.OpenStore(dir, reopen)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Shards() != shards {
		t.Fatalf("reopened store has %d shards, want %d", st2.Shards(), shards)
	}
	reports := st2.LastRecoveryByShard()
	if len(reports) != shards {
		t.Fatalf("%d recovery reports, want %d", len(reports), shards)
	}
	for s, rep := range reports {
		if rep.SealedBlocks <= 48 {
			t.Errorf("shard %d recovered only %d sealed blocks, want a multi-volume sequence (> 48)", s, rep.SealedBlocks)
		}
		if rep.CatalogEntries == 0 {
			t.Errorf("shard %d replayed no catalog records", s)
		}
	}

	// Catalog preserved: same ids, and every entry is back.
	for i, p := range paths {
		id, err := st2.Resolve(ctx, p)
		if err != nil {
			t.Fatal(err)
		}
		if id != ids[i] {
			t.Fatalf("%s resolves to %v after recovery, was %v", p, id, ids[i])
		}
		cur, err := st2.OpenCursor(ctx, p)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for {
			e, err := cur.Next(ctx)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			wantPrefix := fmt.Sprintf("%s-%04d|", p, n)
			if !bytes.HasPrefix(e.Data, []byte(wantPrefix)) {
				t.Fatalf("%s entry %d starts %q, want prefix %q", p, n, e.Data[:20], wantPrefix)
			}
			n++
		}
		cur.Close()
		if n != counts[i] {
			t.Fatalf("%s holds %d entries after recovery, want %d", p, n, counts[i])
		}
	}
}

// TestShardedStoreCheckpointedCrashRecovers is the checkpointed variant of
// the crash test above: every shard emits recovery checkpoints as it grows,
// a crash leaves durable entries plus NVRAM-staged tails, and the reopen
// must restore every shard from its checkpoint — replaying only the blocks
// past it, not the whole multi-volume sequence — while the catalog and
// every entry (sealed or staged) come back intact.
func TestShardedStoreCheckpointedCrashRecovers(t *testing.T) {
	const (
		shards   = 3
		interval = 8
	)
	dir := t.TempDir()
	opts := clio.DirOptions{Shards: shards, VolumeBlocks: 48}
	opts.BlockSize = 512
	opts.CheckpointInterval = interval
	st, err := clio.CreateStore(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	paths := make([]string, 12)
	ids := make([]clio.ID, len(paths))
	for i := range paths {
		paths[i] = fmt.Sprintf("/seg%02d", i)
		id, err := st.CreateLog(ctx, paths[i], 0, "")
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}

	counts := make([]int, len(paths))
	payload := bytes.Repeat([]byte("x"), 400)
	for round := 0; ; round++ {
		for i, id := range ids {
			data := append([]byte(fmt.Sprintf("%s-%04d|", paths[i], counts[i])), payload...)
			if _, err := st.Append(ctx, id, data, clio.AppendOptions{}); err != nil {
				t.Fatal(err)
			}
			counts[i]++
		}
		all := true
		for s := 0; s < shards; s++ {
			if st.Service(s).End() <= 56 {
				all = false
			}
		}
		if all {
			break
		}
		if round > 2000 {
			t.Fatal("shards never crossed the first volume boundary")
		}
	}
	if err := st.Force(ctx); err != nil {
		t.Fatal(err)
	}
	// Every shard must have checkpointed organically by now (> 56 sealed
	// blocks at interval 8).
	for s := 0; s < shards; s++ {
		if st.Service(s).Stats().Checkpoints == 0 {
			t.Fatalf("shard %d sealed %d blocks without a checkpoint", s, st.Service(s).End())
		}
	}
	// Staged-only tail entries on a few shards, then crash mid-seal.
	for i, id := range ids[:shards] {
		data := []byte(fmt.Sprintf("%s-%04d|staged", paths[i], counts[i]))
		if _, err := st.Append(ctx, id, data, clio.AppendOptions{Forced: true}); err != nil {
			t.Fatal(err)
		}
		counts[i]++
	}
	st.Crash()

	reopen := clio.DirOptions{VolumeBlocks: 48}
	reopen.BlockSize = 512
	reopen.CheckpointInterval = interval
	st2, err := clio.OpenStore(dir, reopen)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()

	// The replay window per shard is bounded by the interval plus the
	// checkpoint's own blocks and in-flight tail activity — a constant,
	// regardless of each shard's multi-volume history.
	const slack = 16
	for s, rep := range st2.LastRecoveryByShard() {
		if !rep.CheckpointUsed {
			t.Errorf("shard %d did not restore from its checkpoint: %+v", s, rep)
		}
		if rep.BlocksReplayed > interval+slack {
			t.Errorf("shard %d replayed %d blocks, want <= %d", s, rep.BlocksReplayed, interval+slack)
		}
		if rep.SealedBlocks <= 48 {
			t.Errorf("shard %d recovered only %d sealed blocks, want a multi-volume sequence", s, rep.SealedBlocks)
		}
	}
	merged := st2.LastRecovery()
	if merged.CheckpointsUsed != shards {
		t.Errorf("merged CheckpointsUsed = %d, want %d", merged.CheckpointsUsed, shards)
	}
	if merged.TailsRestored == 0 {
		t.Error("no shard restored its NVRAM-staged tail")
	}

	for i, p := range paths {
		id, err := st2.Resolve(ctx, p)
		if err != nil {
			t.Fatal(err)
		}
		if id != ids[i] {
			t.Fatalf("%s resolves to %v after recovery, was %v", p, id, ids[i])
		}
		cur, err := st2.OpenCursor(ctx, p)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for {
			e, err := cur.Next(ctx)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			wantPrefix := fmt.Sprintf("%s-%04d|", p, n)
			if !bytes.HasPrefix(e.Data, []byte(wantPrefix)) {
				t.Fatalf("%s entry %d starts %q, want prefix %q", p, n, e.Data[:20], wantPrefix)
			}
			n++
		}
		cur.Close()
		if n != counts[i] {
			t.Fatalf("%s holds %d entries after recovery, want %d", p, n, counts[i])
		}
	}
}
