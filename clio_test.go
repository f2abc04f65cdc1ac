package clio

import (
	"context"
	"errors"
	"fmt"
	"io"
	"testing"

	"clio/internal/volume"
	"clio/internal/wodev"
)

func TestCreateOpenStoreRoundTrip(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	s, err := CreateStore(dir, DirOptions{VolumeBlocks: 256})
	if err != nil {
		t.Fatal(err)
	}
	id, err := s.CreateLog(ctx, "/app", 0o644, "me")
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for i := 0; i < 30; i++ {
		p := fmt.Sprintf("line-%02d", i)
		if _, err := s.Append(ctx, id, []byte(p), AppendOptions{Forced: i%5 == 0}); err != nil {
			t.Fatal(err)
		}
		want = append(want, p)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenStore(dir, DirOptions{VolumeBlocks: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	c, err := s2.OpenCursor(ctx, "/app")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for {
		e, err := c.Next(ctx)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, string(e.Data))
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("round trip through files: %v", got)
	}
}

func TestCreateStoreRefusesExisting(t *testing.T) {
	dir := t.TempDir()
	s, err := CreateStore(dir, DirOptions{VolumeBlocks: 64})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := CreateStore(dir, DirOptions{VolumeBlocks: 64}); err == nil {
		t.Error("CreateStore over existing store accepted")
	}
}

func TestOpenStoreEmpty(t *testing.T) {
	if _, err := OpenStore(t.TempDir(), DirOptions{}); err == nil {
		t.Error("OpenStore on empty dir accepted")
	}
}

func TestDirStoreSpansVolumeFiles(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	s, err := CreateStore(dir, DirOptions{VolumeBlocks: 16})
	if err != nil {
		t.Fatal(err)
	}
	id, err := s.CreateLog(ctx, "/big", 0, "")
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 200)
	for i := 0; i < 200; i++ {
		if _, err := s.Append(ctx, id, payload, AppendOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	names, err := listVolumes(dir)
	if err != nil || len(names) < 2 {
		t.Fatalf("volume files: %v, %v", names, err)
	}
	s2, err := OpenStore(dir, DirOptions{VolumeBlocks: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	c, _ := s2.OpenCursor(ctx, "/big")
	count := 0
	for {
		_, err := c.Next(ctx)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		count++
	}
	if count != 200 {
		t.Errorf("recovered %d entries across volume files", count)
	}
}

// memAllocator returns an Allocator minting in-memory volumes of the given
// capacity.
func memAllocator(capacityBlocks int) Allocator {
	return func(_ volume.SeqID, _ uint32, _ uint64, blockSize int) (wodev.Device, error) {
		return wodev.NewMem(wodev.MemOptions{BlockSize: blockSize, Capacity: capacityBlocks}), nil
	}
}

func TestMemAllocatorFacade(t *testing.T) {
	ctx := context.Background()
	st, err := NewMemStore(1, 256, 16, Options{BlockSize: 256, Degree: 4, Allocate: memAllocator(16)})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	id, err := st.CreateLog(ctx, "/x", 0, "")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := st.Append(ctx, id, make([]byte, 100), AppendOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if len(st.Service(0).Volumes()) < 2 {
		t.Errorf("allocator not used: %d volumes", len(st.Service(0).Volumes()))
	}
}

// TestStoreSentinelErrors pins the error-wrapping contract of the store
// open/create paths: every refusal wraps ErrStoreExists or ErrNoStore with
// %w, so errors.Is works through the Store helpers.
func TestStoreSentinelErrors(t *testing.T) {
	dir := t.TempDir()
	st, err := CreateStore(dir, DirOptions{VolumeBlocks: 64, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := CreateStore(dir, DirOptions{VolumeBlocks: 64}); !errors.Is(err, ErrStoreExists) {
		t.Errorf("CreateStore over sharded store: %v, want ErrStoreExists", err)
	}

	flat := t.TempDir()
	svc, err := CreateStore(flat, DirOptions{VolumeBlocks: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := CreateStore(flat, DirOptions{VolumeBlocks: 64}); !errors.Is(err, ErrStoreExists) {
		t.Errorf("CreateStore over flat store: %v, want ErrStoreExists", err)
	}

	empty := t.TempDir()
	if _, err := OpenStore(empty, DirOptions{}); !errors.Is(err, ErrNoStore) {
		t.Errorf("OpenStore on empty dir: %v, want ErrNoStore", err)
	}
	if _, err := OpenStore(empty, DirOptions{Shards: 3}); !errors.Is(err, ErrNoStore) {
		t.Errorf("OpenStore asserting shards on empty dir: %v, want ErrNoStore", err)
	}
}
