package client

import (
	"context"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"

	"clio/internal/core"
	"clio/internal/server"
	"clio/internal/wodev"
)

var bg = context.Background()

// pipePair returns a client connected to a fresh in-memory service through
// a net.Pipe (the paper's same-machine IPC case).
func pipePair(t *testing.T) (*Client, *core.Service) {
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
	srv := server.New(svc)
	cConn, sConn := net.Pipe()
	go srv.ServeConn(sConn)
	cl := New(cConn)
	t.Cleanup(func() { cl.Close(); srv.Close(); svc.Close() })
	return cl, svc
}

func TestClientBasicFlow(t *testing.T) {
	cl, _ := pipePair(t)
	if err := cl.Ping(bg); err != nil {
		t.Fatal(err)
	}
	id, err := cl.CreateLog(bg, "/audit", 0o640, "ops")
	if err != nil {
		t.Fatal(err)
	}
	ts1, err := cl.Append(bg, id, []byte("hello"), AppendOptions{Timestamped: true})
	if err != nil || ts1 == 0 {
		t.Fatalf("Append: %d, %v", ts1, err)
	}
	ts2, err := cl.Append(bg, id, []byte("world"), AppendOptions{Forced: true})
	if err != nil || ts2 <= ts1 {
		t.Fatalf("Append 2: %d, %v", ts2, err)
	}
	cur, err := cl.OpenCursor(bg, "/audit")
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	var got []string
	for {
		e, err := cur.Next(bg)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, string(e.Data))
	}
	if fmt.Sprint(got) != "[hello world]" {
		t.Errorf("entries: %v", got)
	}
	// Prev walks back.
	e, err := cur.Prev(bg)
	if err != nil || string(e.Data) != "world" {
		t.Fatalf("Prev: %v", err)
	}
	// ReadAt round-trips the position.
	e2, err := cl.ReadAt(bg, e.Shard, e.Block, e.Index)
	if err != nil || string(e2.Data) != "world" {
		t.Fatalf("ReadAt: %v", err)
	}
}

func TestClientCatalogOps(t *testing.T) {
	cl, _ := pipePair(t)
	if _, err := cl.CreateLog(bg, "/mail", 0o644, "root"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.CreateLog(bg, "/mail/smith", 0o600, "smith"); err != nil {
		t.Fatal(err)
	}
	names, err := cl.List(bg, "/mail")
	if err != nil || fmt.Sprint(names) != "[smith]" {
		t.Fatalf("List: %v, %v", names, err)
	}
	st, err := cl.Stat(bg, "/mail/smith")
	if err != nil || st.Owner != "smith" || st.Perms != 0o600 {
		t.Fatalf("Stat: %+v, %v", st, err)
	}
	if err := cl.SetPerms(bg, "/mail/smith", 0o644); err != nil {
		t.Fatal(err)
	}
	if st, _ := cl.Stat(bg, "/mail/smith"); st.Perms != 0o644 {
		t.Errorf("perms after SetPerms: %o", st.Perms)
	}
	if err := cl.Retire(bg, "/mail/smith"); err != nil {
		t.Fatal(err)
	}
	if st, _ := cl.Stat(bg, "/mail/smith"); !st.Retired {
		t.Error("not retired")
	}
	if id, err := cl.Resolve(bg, "/mail"); err != nil || id == 0 {
		t.Errorf("Resolve: %d, %v", id, err)
	}
}

func TestClientErrorsSurface(t *testing.T) {
	cl, _ := pipePair(t)
	if _, err := cl.Resolve(bg, "/nope"); err == nil || !strings.Contains(err.Error(), "not found") {
		t.Errorf("Resolve missing: %v", err)
	}
	if _, err := cl.Append(bg, 999, []byte("x"), AppendOptions{}); err == nil {
		t.Error("append to unknown id accepted")
	}
	if _, err := cl.OpenCursor(bg, "/nope"); err == nil {
		t.Error("cursor on missing path accepted")
	}
}

func TestClientSeekTime(t *testing.T) {
	cl, _ := pipePair(t)
	id, _ := cl.CreateLog(bg, "/t", 0, "")
	var stamps []int64
	for i := 0; i < 20; i++ {
		ts, err := cl.Append(bg, id, []byte(fmt.Sprintf("e%d", i)), AppendOptions{Timestamped: true})
		if err != nil {
			t.Fatal(err)
		}
		stamps = append(stamps, ts)
	}
	cur, _ := cl.OpenCursor(bg, "/t")
	if err := cur.SeekTime(bg, stamps[7]); err != nil {
		t.Fatal(err)
	}
	e, err := cur.Next(bg)
	if err != nil || string(e.Data) != "e7" {
		t.Fatalf("SeekTime: %v %q", err, e.Data)
	}
	if err := cur.SeekEnd(bg); err != nil {
		t.Fatal(err)
	}
	if _, err := cur.Next(bg); err != io.EOF {
		t.Fatalf("Next after SeekEnd: %v", err)
	}
	if err := cur.SeekStart(bg); err != nil {
		t.Fatal(err)
	}
	if e, err := cur.Next(bg); err != nil || string(e.Data) != "e0" {
		t.Fatalf("after SeekStart: %v", err)
	}
}

func TestClientOverTCP(t *testing.T) {
	dev := wodev.NewMem(wodev.MemOptions{BlockSize: 512, Capacity: 1 << 12})
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
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	cl, err := DialOptions(ln.Addr().String(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	id, err := cl.CreateLog(bg, "/tcp", 0, "")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := cl.Append(bg, id, []byte(fmt.Sprintf("m%d", i)), AppendOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	st, err := cl.Stats(bg)
	if err != nil || st.EntriesAppended != 10 {
		t.Fatalf("Stats: %+v, %v", st, err)
	}
	cur, _ := cl.OpenCursor(bg, "/tcp")
	count := 0
	for {
		if _, err := cur.Next(bg); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		count++
	}
	if count != 10 {
		t.Errorf("read %d entries over TCP", count)
	}
}

func TestConcurrentClients(t *testing.T) {
	dev := wodev.NewMem(wodev.MemOptions{BlockSize: 512, Capacity: 1 << 14})
	now := int64(0)
	var nowMu sync.Mutex
	svc, err := core.New(dev, core.Options{
		BlockSize: 512, Degree: 8,
		Now: func() int64 { nowMu.Lock(); defer nowMu.Unlock(); now += 1000; return now },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	srv := server.New(svc)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	const clients = 4
	const per = 50
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			cl, err := DialOptions(ln.Addr().String(), Options{})
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			id, err := cl.CreateLog(bg, fmt.Sprintf("/c%d", n), 0, "")
			if err != nil {
				errs <- err
				return
			}
			for j := 0; j < per; j++ {
				if _, err := cl.Append(bg, id, []byte(fmt.Sprintf("c%d-%d", n, j)), AppendOptions{}); err != nil {
					errs <- err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Each client's log reads back intact and ordered.
	cl, err := DialOptions(ln.Addr().String(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < clients; i++ {
		cur, err := cl.OpenCursor(bg, fmt.Sprintf("/c%d", i))
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < per; j++ {
			e, err := cur.Next(bg)
			if err != nil {
				t.Fatalf("client %d entry %d: %v", i, j, err)
			}
			if want := fmt.Sprintf("c%d-%d", i, j); string(e.Data) != want {
				t.Fatalf("client %d entry %d: %q want %q", i, j, e.Data, want)
			}
		}
		if _, err := cur.Next(bg); err != io.EOF {
			t.Fatalf("client %d has extra entries", i)
		}
		cur.Close()
	}
}

// TestUIOReaderWriter: each Write through the UIO Writer is one entry, and
// a cursor reads them back in order.
func TestUIOReaderWriter(t *testing.T) {
	cl, _ := pipePair(t)
	id, _ := cl.CreateLog(bg, "/lines", 0, "")
	w := NewWriter(bg, cl, id, AppendOptions{})
	for _, line := range []string{"first", "second", "third"} {
		if n, err := w.Write([]byte(line)); err != nil || n != len(line) {
			t.Fatalf("Write(%q) = %d, %v", line, n, err)
		}
	}
	cur, _ := cl.OpenCursor(bg, "/lines")
	var got []string
	for {
		e, err := cur.Next(bg)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, string(e.Data))
	}
	if fmt.Sprint(got) != "[first second third]" {
		t.Errorf("UIO read: %v", got)
	}
}

func TestClientAppendMulti(t *testing.T) {
	cl, _ := pipePair(t)
	a, err := cl.CreateLog(bg, "/a", 0, "")
	if err != nil {
		t.Fatal(err)
	}
	b, err := cl.CreateLog(bg, "/b", 0, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.AppendMulti(bg, []ID{a, b}, []byte("both"), AppendOptions{}); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/a", "/b"} {
		cur, err := cl.OpenCursor(bg, path)
		if err != nil {
			t.Fatal(err)
		}
		e, err := cur.Next(bg)
		if err != nil || string(e.Data) != "both" {
			t.Fatalf("%s: %v", path, err)
		}
		cur.Close()
	}
	if _, err := cl.AppendMulti(bg, nil, []byte("x"), AppendOptions{}); err == nil {
		t.Error("empty id list accepted over the wire")
	}
}

func TestClientSeekPos(t *testing.T) {
	cl, _ := pipePair(t)
	id, _ := cl.CreateLog(bg, "/sp", 0, "")
	for i := 0; i < 10; i++ {
		if _, err := cl.Append(bg, id, []byte(fmt.Sprintf("e%d", i)), AppendOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	cur, _ := cl.OpenCursor(bg, "/sp")
	var mark *Entry
	for i := 0; i < 5; i++ {
		e, err := cur.Next(bg)
		if err != nil {
			t.Fatal(err)
		}
		mark = e
	}
	cur2, _ := cl.OpenCursor(bg, "/sp")
	if err := cur2.SeekPos(bg, mark.Block, mark.Index+1); err != nil {
		t.Fatal(err)
	}
	e, err := cur2.Next(bg)
	if err != nil || string(e.Data) != "e5" {
		t.Fatalf("resume over wire: %v %q", err, e.Data)
	}
}
