package logapi_test

import (
	"context"
	"fmt"
	"io"
	"net"
	"testing"

	"clio/internal/client"
	"clio/internal/core"
	"clio/internal/logapi"
	"clio/internal/server"
	"clio/internal/shard"
	"clio/internal/wodev"
)

// services yields the same service through both adapters.
func services(t *testing.T) (local logapi.Service, remote logapi.Service) {
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
	cl := client.New(cConn)
	t.Cleanup(func() { cl.Close(); srv.Close(); svc.Close() })
	return shard.Single(svc), cl
}

// exercise runs the same scenario through a Service.
func exercise(t *testing.T, st logapi.Service, prefix string) {
	t.Helper()
	ctx := context.Background()
	path := "/" + prefix
	id, err := st.CreateLog(ctx, path, 0o644, "t")
	if err != nil {
		t.Fatal(err)
	}
	if got, err := st.Resolve(ctx, path); err != nil || got != id {
		t.Fatalf("Resolve: %v, %v", got, err)
	}
	var stamps []int64
	for i := 0; i < 20; i++ {
		ts, err := st.Append(ctx, id, []byte(fmt.Sprintf("%s-%02d", prefix, i)),
			logapi.AppendOptions{Timestamped: true, Forced: i%5 == 0})
		if err != nil {
			t.Fatal(err)
		}
		stamps = append(stamps, ts)
	}
	cur, err := st.OpenCursor(ctx, path)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	for i := 0; i < 20; i++ {
		e, err := cur.Next(ctx)
		if err != nil {
			t.Fatalf("Next %d: %v", i, err)
		}
		if want := fmt.Sprintf("%s-%02d", prefix, i); string(e.Data) != want {
			t.Fatalf("entry %d: %q", i, e.Data)
		}
	}
	if _, err := cur.Next(ctx); err != io.EOF {
		t.Fatalf("EOF: %v", err)
	}
	if err := cur.SeekTime(ctx, stamps[10]); err != nil {
		t.Fatal(err)
	}
	if e, err := cur.Next(ctx); err != nil || string(e.Data) != fmt.Sprintf("%s-10", prefix) {
		t.Fatalf("SeekTime: %v", err)
	}
	if err := cur.SeekEnd(ctx); err != nil {
		t.Fatal(err)
	}
	if e, err := cur.Prev(ctx); err != nil || string(e.Data) != fmt.Sprintf("%s-19", prefix) {
		t.Fatalf("Prev from end: %v", err)
	}
	if err := cur.SeekStart(ctx); err != nil {
		t.Fatal(err)
	}
	if e, err := cur.Next(ctx); err != nil || string(e.Data) != fmt.Sprintf("%s-00", prefix) {
		t.Fatalf("after SeekStart: %v", err)
	}
	names, err := st.List(ctx, "/")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, n := range names {
		if n == prefix {
			found = true
		}
	}
	if !found {
		t.Errorf("List(/) = %v", names)
	}
}

func TestAdaptersBehaveIdentically(t *testing.T) {
	ctx := context.Background()
	local, remote := services(t)
	exercise(t, local, "local")
	exercise(t, remote, "remote")
	// Cross-visibility: entries written through one adapter read through
	// the other (same underlying service).
	id, err := local.Resolve(ctx, "/remote")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := local.Append(ctx, id, []byte("cross"), logapi.AppendOptions{}); err != nil {
		t.Fatal(err)
	}
	cur, err := remote.OpenCursor(ctx, "/remote")
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	if err := cur.SeekEnd(ctx); err != nil {
		t.Fatal(err)
	}
	e, err := cur.Prev(ctx)
	if err != nil || string(e.Data) != "cross" {
		t.Fatalf("cross read: %v %q", err, e.Data)
	}
}
