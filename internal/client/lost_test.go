package client

import (
	"bytes"
	"io"
	"net"
	"strings"
	"testing"

	"clio/internal/core"
	"clio/internal/scrub"
	"clio/internal/server"
	"clio/internal/shard"
	"clio/internal/wodev"
)

// TestRemoteReadOfRepairedFragment: over the wire, an entry whose middle
// fragment an fsck repair invalidated is lost, not shorter. A remote cursor
// skips it, as the store's own cursor does, and never delivers part of it;
// a positioned read of it fails with the store's lost-entry error.
func TestRemoteReadOfRepairedFragment(t *testing.T) {
	now := int64(0)
	opt := core.Options{BlockSize: 256, Degree: 4, Now: func() int64 { now += 1000; return now }}
	dev := wodev.NewMem(wodev.MemOptions{BlockSize: 256, Capacity: 1 << 10})
	svc, err := core.New(dev, opt)
	if err != nil {
		t.Fatal(err)
	}
	id, err := svc.CreateLog("/f", 0o644, "test")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"before", strings.Repeat("r", 1024), "after"}
	for _, data := range want {
		if _, err := svc.Append(id, []byte(data), core.AppendOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	cur, err := svc.OpenCursor("/f")
	if err != nil {
		t.Fatal(err)
	}
	cur.Next()
	big, err := cur.Next()
	if err != nil || len(big.Data) != 1024 {
		t.Fatalf("the large entry before the damage: %v", err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	// Damage the large entry's third block (device block = global + 1) and
	// let an fsck repair invalidate it.
	if err := dev.Damage(big.Block+2+1, bytes.Repeat([]byte{0xA5}, 256)); err != nil {
		t.Fatal(err)
	}
	if rep, err := scrub.Volumes([]wodev.Device{dev}, scrub.Options{Repair: true}); err != nil || rep.Repaired != 1 {
		t.Fatalf("fsck repair: %+v, %v", rep, err)
	}

	svc, err = core.Open([]wodev.Device{dev}, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	st, err := shard.New([]*core.Service{svc})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.NewStore(st)
	cConn, sConn := net.Pipe()
	go srv.ServeConn(sConn)
	c := New(cConn)
	defer c.Close()

	rc, err := c.OpenCursor(bg, "/f")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for {
		e, err := rc.Next(bg)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, string(e.Data))
	}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[2] {
		lens := make([]int, len(got))
		for i, g := range got {
			lens[i] = len(g)
		}
		t.Errorf("remote cursor delivered entries of %v bytes; want the lost one skipped: [6 5]", lens)
	}
	if e, err := c.ReadAt(bg, 0, big.Block, big.Index); err == nil || !strings.Contains(err.Error(), core.ErrLost.Error()) {
		n := 0
		if e != nil {
			n = len(e.Data)
		}
		t.Errorf("remote ReadAt of the repaired entry: %d bytes, %v; want %q", n, err, core.ErrLost)
	}
}
