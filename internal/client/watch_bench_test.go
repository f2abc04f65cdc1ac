package client

import (
	"context"
	"fmt"
	"net"
	"sync/atomic"
	"testing"

	"clio/internal/core"
	"clio/internal/logapi"
	"clio/internal/server"
	"clio/internal/shard"
	"clio/internal/wodev"
)

// watchBench is one subscription surface under benchmark: the store the
// entries are appended to, the service the subscription is opened on (the
// store itself, or a client dialed to it over TCP loopback), one path per
// shard to append to and the path to watch.
type watchBench struct {
	name   string
	shards int
	remote bool
	watch  string // "" watches the one appended path
}

var watchBenches = []watchBench{
	{name: "inproc-1shard", shards: 1},
	{name: "inproc-4shard-root", shards: 4, watch: "/"},
	{name: "tcp-1shard", shards: 1, remote: true},
}

// open builds the store (blocks per shard of 1 KiB) and returns the service to
// watch, the store, and the appended logs' ids, one per shard.
func (wb watchBench) open(b *testing.B, blocks int) (logapi.StreamService, *shard.Store, []logapi.ID) {
	b.Helper()
	var now atomic.Int64
	svcs := make([]*core.Service, wb.shards)
	for i := range svcs {
		dev := wodev.NewMem(wodev.MemOptions{BlockSize: 1024, Capacity: blocks})
		svc, err := core.New(dev, core.Options{
			BlockSize: 1024, Degree: 8,
			Now: func() int64 { return now.Add(1000) },
		})
		if err != nil {
			b.Fatal(err)
		}
		svcs[i] = svc
	}
	st, err := shard.New(svcs)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { st.Close() })
	ids := make([]logapi.ID, wb.shards)
	for covered, i := 0, 0; covered < wb.shards; i++ {
		p := fmt.Sprintf("/feed%03d", i)
		sh, err := st.ShardFor(p)
		if err != nil {
			b.Fatal(err)
		}
		if ids[sh] != 0 {
			continue
		}
		if ids[sh], err = st.CreateLog(bg, p, 0o644, "b"); err != nil {
			b.Fatal(err)
		}
		covered++
	}
	if !wb.remote {
		return st, st, ids
	}
	srv := server.NewStore(st)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(ln)
	cl, err := DialOptions(ln.Addr().String(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { cl.Close(); srv.Close() })
	return cl, st, ids
}

// path is the watched path: the root, or the first (shard 0's) feed.
func (wb watchBench) path() string {
	if wb.watch != "" {
		return wb.watch
	}
	return "/feed000"
}

// BenchmarkWatchReplay measures history delivery: b.N entries are appended
// (round-robin over the shards) and forced before the clock starts, then a
// FromStart subscription receives all of them. One op is one entry
// delivered.
func BenchmarkWatchReplay(b *testing.B) {
	for _, wb := range watchBenches {
		b.Run(wb.name, func(b *testing.B) {
			svc, st, ids := wb.open(b, 1024+b.N/8)
			path := wb.path()
			if wb.watch == "" {
				ids = ids[:1]
			}
			data := []byte("a replayed entry, padded to a short record")
			for i := 0; i < b.N; i++ {
				if _, err := st.Append(bg, ids[i%len(ids)], data, logapi.AppendOptions{}); err != nil {
					b.Fatal(err)
				}
			}
			if err := st.Force(bg); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			sub, err := svc.Watch(bg, path, logapi.WatchOptions{FromStart: true})
			if err != nil {
				b.Fatal(err)
			}
			defer sub.Close()
			for i := 0; i < b.N; i++ {
				if _, err := sub.Recv(bg); err != nil {
					b.Fatalf("entry %d: %v", i, err)
				}
			}
		})
	}
}

// BenchmarkWatchLive measures live delivery: a subscription opened at the
// end of the log receives each forced append before the next is made. One
// op is one forced append published and received.
func BenchmarkWatchLive(b *testing.B) {
	for _, wb := range watchBenches {
		b.Run(wb.name, func(b *testing.B) {
			svc, st, ids := wb.open(b, 1024+b.N) // a force may seal a block
			path := wb.path()
			if wb.watch == "" {
				ids = ids[:1]
			}
			sub, err := svc.Watch(bg, path, logapi.WatchOptions{})
			if err != nil {
				b.Fatal(err)
			}
			defer sub.Close()
			ctx, cancel := context.WithCancel(bg)
			defer cancel()
			data := []byte("a live entry")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := st.Append(bg, ids[i%len(ids)], data, logapi.AppendOptions{Forced: true}); err != nil {
					b.Fatal(err)
				}
				if _, err := sub.Recv(ctx); err != nil {
					b.Fatalf("entry %d: %v", i, err)
				}
			}
		})
	}
}
