package histfs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"testing"

	"clio/internal/client"
	"clio/internal/core"
	"clio/internal/server"
	"clio/internal/shard"
	"clio/internal/wodev"
)

func newFS(t *testing.T) (*FS, *core.Service) {
	t.Helper()
	dev := wodev.NewMem(wodev.MemOptions{BlockSize: 512, Capacity: 1 << 14})
	now := int64(0)
	svc, err := core.New(dev, core.Options{
		BlockSize: 512, Degree: 8,
		Now: func() int64 { now += 1000; return now },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	fs, err := New(context.Background(), shard.Single(svc), "/histfs")
	if err != nil {
		t.Fatal(err)
	}
	return fs, svc
}

func TestCreateWriteRead(t *testing.T) {
	fs, _ := newFS(t)
	ctx := context.Background()
	if err := fs.Create(ctx, "hello.txt", 0o644); err != nil {
		t.Fatal(err)
	}
	if err := fs.Append(ctx, "hello.txt", []byte("hello ")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Append(ctx, "hello.txt", []byte("world")); err != nil {
		t.Fatal(err)
	}
	got, err := fs.Read(ctx, "hello.txt")
	if err != nil || string(got) != "hello world" {
		t.Fatalf("Read: %q, %v", got, err)
	}
	info, err := fs.Stat(ctx, "hello.txt")
	if err != nil || info.Size != 11 || info.Mode != 0o644 || info.Versions != 3 {
		t.Errorf("Stat: %+v, %v", info, err)
	}
}

func TestAppendAndTruncate(t *testing.T) {
	fs, _ := newFS(t)
	ctx := context.Background()
	if err := fs.Create(ctx, "f", 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.Append(ctx, "f", []byte("0123ABCD")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Truncate(ctx, "f", 6); err != nil {
		t.Fatal(err)
	}
	got, _ := fs.Read(ctx, "f")
	if !bytes.Equal(got, []byte("0123AB")) {
		t.Fatalf("after truncate: %q", got)
	}
	if err := fs.Append(ctx, "f", []byte("zz")); err != nil {
		t.Fatal(err)
	}
	got, _ = fs.Read(ctx, "f")
	if !bytes.Equal(got, []byte("0123ABzz")) {
		t.Fatalf("append after truncate: %q", got)
	}
}

func TestCreateValidation(t *testing.T) {
	fs, _ := newFS(t)
	ctx := context.Background()
	if err := fs.Create(ctx, "", 0); !errors.Is(err, ErrBadName) {
		t.Errorf("empty name: %v", err)
	}
	if err := fs.Create(ctx, "dup", 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.Create(ctx, "dup", 0); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate: %v", err)
	}
	if _, err := fs.Read(ctx, "missing"); !errors.Is(err, ErrNotExist) {
		t.Errorf("missing read: %v", err)
	}
}

func TestVersionTravel(t *testing.T) {
	fs, svc := newFS(t)
	ctx := context.Background()
	if err := fs.Create(ctx, "doc", 0); err != nil {
		t.Fatal(err)
	}
	versions := []string{"v1", "v2 longer", "v3"}
	var stamps []int64
	for _, v := range versions {
		if err := fs.Truncate(ctx, "doc", 0); err != nil {
			t.Fatal(err)
		}
		if err := fs.Append(ctx, "doc", []byte(v)); err != nil {
			t.Fatal(err)
		}
		// Snapshot timestamp after each version (monotonic clock).
		stamps = append(stamps, lastHistTS(t, svc))
	}
	for i, v := range versions {
		got, err := fs.ReadAsOf(ctx, "doc", stamps[i])
		if err != nil || string(got) != v {
			t.Errorf("version %d: %q, %v (want %q)", i, got, err, v)
		}
	}
	// Current equals last version.
	got, _ := fs.Read(ctx, "doc")
	if string(got) != "v3" {
		t.Errorf("current: %q", got)
	}
}

// lastHistTS returns the newest timestamp visible in the volume sequence.
func lastHistTS(t *testing.T, svc *core.Service) int64 {
	t.Helper()
	c, err := svc.OpenCursor("/")
	if err != nil {
		t.Fatal(err)
	}
	c.SeekEnd()
	e, err := c.Prev()
	if err != nil {
		t.Fatal(err)
	}
	return e.Timestamp
}

func TestDeleteKeepsHistory(t *testing.T) {
	fs, svc := newFS(t)
	ctx := context.Background()
	if err := fs.Create(ctx, "gone", 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.Append(ctx, "gone", []byte("precious")); err != nil {
		t.Fatal(err)
	}
	before := lastHistTS(t, svc)
	if err := fs.Delete(ctx, "gone"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Read(ctx, "gone"); !errors.Is(err, ErrNotExist) {
		t.Errorf("read after delete: %v", err)
	}
	names, _ := fs.List(ctx)
	for _, n := range names {
		if n == "gone" {
			t.Error("deleted file still listed")
		}
	}
	// But the old version is still there.
	got, err := fs.ReadAsOf(ctx, "gone", before)
	if err != nil || string(got) != "precious" {
		t.Errorf("ReadAsOf deleted file: %q, %v", got, err)
	}
}

func TestCacheIsPure(t *testing.T) {
	fs, _ := newFS(t)
	ctx := context.Background()
	files := []string{"a", "b", "c"}
	for i, f := range files {
		if err := fs.Create(ctx, f, uint16(i)); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 5; j++ {
			if err := fs.Append(ctx, f, []byte(fmt.Sprintf("%s-%d;", f, j))); err != nil {
				t.Fatal(err)
			}
		}
	}
	var before [][]byte
	for _, f := range files {
		b, err := fs.Read(ctx, f)
		if err != nil {
			t.Fatal(err)
		}
		before = append(before, b)
	}
	fs.EvictCache()
	for i, f := range files {
		b, err := fs.Read(ctx, f)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b, before[i]) {
			t.Errorf("file %s differs after cache eviction", f)
		}
	}
}

func TestSurvivesServiceRecovery(t *testing.T) {
	ctx := context.Background()
	dev := wodev.NewMem(wodev.MemOptions{BlockSize: 512, Capacity: 1 << 14})
	now := int64(0)
	opt := core.Options{BlockSize: 512, Degree: 8,
		Now: func() int64 { now += 1000; return now }}
	svc, err := core.New(dev, opt)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := New(ctx, shard.Single(svc), "/histfs")
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Create(ctx, "persist", 0o600); err != nil {
		t.Fatal(err)
	}
	if err := fs.Append(ctx, "persist", []byte("data!")); err != nil {
		t.Fatal(err)
	}
	if err := svc.Force(); err != nil {
		t.Fatal(err)
	}
	svc.Crash()
	svc2, err := core.Open([]wodev.Device{dev}, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	fs2, err := New(ctx, shard.Single(svc2), "/histfs")
	if err != nil {
		t.Fatal(err)
	}
	got, err := fs2.Read(ctx, "persist")
	if err != nil || string(got) != "data!" {
		t.Fatalf("after recovery: %q, %v", got, err)
	}
	info, err := fs2.Stat(ctx, "persist")
	if err != nil || info.Mode != 0o600 {
		t.Errorf("mode after recovery: %+v, %v", info, err)
	}
}

func TestEscapedNames(t *testing.T) {
	fs, _ := newFS(t)
	ctx := context.Background()
	name := "dir/sub/file%.txt"
	if err := fs.Create(ctx, name, 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.Append(ctx, name, []byte("x")); err != nil {
		t.Fatal(err)
	}
	names, err := fs.List(ctx)
	if err != nil || len(names) != 1 || names[0] != name {
		t.Errorf("List = %v, %v", names, err)
	}
}

// setMode logs a mode change, the one history record no FS method writes.
func (fs *FS) setMode(ctx context.Context, name string, mode uint16) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.mutate(ctx, name, record(opSetMode, 0, mode, nil))
}

func TestSetMode(t *testing.T) {
	fs, _ := newFS(t)
	ctx := context.Background()
	if err := fs.Create(ctx, "m", 0o600); err != nil {
		t.Fatal(err)
	}
	if err := fs.setMode(ctx, "m", 0o755); err != nil {
		t.Fatal(err)
	}
	info, _ := fs.Stat(ctx, "m")
	if info.Mode != 0o755 {
		t.Errorf("mode = %o", info.Mode)
	}
}

func TestHistfsOverTheNetwork(t *testing.T) {
	ctx := context.Background()
	dev := wodev.NewMem(wodev.MemOptions{BlockSize: 512, Capacity: 1 << 14})
	now := int64(0)
	svc, err := core.New(dev, core.Options{
		BlockSize: 512, Degree: 8,
		Now: func() int64 { now += 1000; return now },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	srv := server.New(svc)
	cConn, sConn := net.Pipe()
	go srv.ServeConn(sConn)
	cl := client.New(cConn)
	defer func() { cl.Close(); srv.Close() }()

	rfs, err := New(ctx, cl, "/histfs")
	if err != nil {
		t.Fatal(err)
	}
	if err := rfs.Create(ctx, "remote.txt", 0o600); err != nil {
		t.Fatal(err)
	}
	if err := rfs.Append(ctx, "remote.txt", []byte("over the wire")); err != nil {
		t.Fatal(err)
	}
	// A second agent on a fresh connection sees the same file.
	cConn2, sConn2 := net.Pipe()
	go srv.ServeConn(sConn2)
	cl2 := client.New(cConn2)
	defer cl2.Close()
	rfs2, err := New(ctx, cl2, "/histfs")
	if err != nil {
		t.Fatal(err)
	}
	got, err := rfs2.Read(ctx, "remote.txt")
	if err != nil || string(got) != "over the wire" {
		t.Fatalf("remote read: %q, %v", got, err)
	}
}
