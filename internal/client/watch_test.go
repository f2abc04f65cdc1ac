package client

import (
	"context"
	"fmt"
	"net"
	"reflect"
	"testing"
	"time"

	"clio/internal/core"
	"clio/internal/logapi"
	"clio/internal/server"
	"clio/internal/shard"
	"clio/internal/wodev"
)

// watchPair returns a redialable client (Watch needs a second connection)
// over an n-shard in-memory store served through net.Pipes.
func watchPair(t *testing.T, shards int) (*Client, *shard.Store) {
	t.Helper()
	svcs := make([]*core.Service, shards)
	for i := range svcs {
		dev := wodev.NewMem(wodev.MemOptions{BlockSize: 512, Capacity: 1 << 14})
		svc, err := core.New(dev, core.Options{BlockSize: 512, Degree: 8})
		if err != nil {
			t.Fatal(err)
		}
		svcs[i] = svc
	}
	st, err := shard.New(svcs)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.NewStore(st)
	dialer := func(ctx context.Context) (net.Conn, error) {
		cConn, sConn := net.Pipe()
		go srv.ServeConn(sConn)
		return cConn, nil
	}
	cl, err := DialContext(bg, "", Options{Dialer: dialer})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close(); srv.Close(); st.Close() })
	return cl, st
}

func recvSub(t *testing.T, sub logapi.Subscription) *Entry {
	t.Helper()
	ctx, cancel := context.WithTimeout(bg, 5*time.Second)
	defer cancel()
	e, err := sub.Recv(ctx)
	if err != nil {
		t.Fatalf("Recv: %v", err)
	}
	return e
}

// TestWatchOverWire is the network tentpole contract: a subscription on a
// dedicated connection receives pushed entries as they commit, no polling.
func TestWatchOverWire(t *testing.T) {
	cl, _ := watchPair(t, 1)
	id, err := cl.CreateLog(bg, "/feed", 0o644, "t")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := cl.Watch(bg, "/feed", logapi.WatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	// Nothing pending: Recv blocks.
	ctx, cancel := context.WithTimeout(bg, 20*time.Millisecond)
	if _, err := sub.Recv(ctx); err != context.DeadlineExceeded {
		cancel()
		t.Fatalf("Recv before publish: %v", err)
	}
	cancel()

	for i := 0; i < 5; i++ {
		if _, err := cl.Append(bg, id, []byte(fmt.Sprintf("live-%d", i)),
			AppendOptions{Forced: true, Timestamped: true}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		e := recvSub(t, sub)
		if want := fmt.Sprintf("live-%d", i); string(e.Data) != want {
			t.Fatalf("entry %d: %q, want %q", i, e.Data, want)
		}
		if !e.Forced || !e.Timestamped {
			t.Fatalf("entry %d lost flags: %+v", i, e)
		}
	}
}

// TestWatchCreditFlowControl drives far more entries than the credit window
// through a deliberately tiny window; the Recv-path credit grants must keep
// the stream moving and in order.
func TestWatchCreditFlowControl(t *testing.T) {
	const total = 300
	cl, _ := watchPair(t, 1)
	id, err := cl.CreateLog(bg, "/firehose", 0o644, "t")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := cl.Watch(bg, "/firehose", logapi.WatchOptions{Buffer: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	errc := make(chan error, 1)
	go func() {
		for i := 0; i < total; i++ {
			if _, err := cl.Append(bg, id, []byte(fmt.Sprintf("%06d", i)),
				AppendOptions{Forced: true}); err != nil {
				errc <- fmt.Errorf("append %d: %w", i, err)
				return
			}
		}
		errc <- nil
	}()
	for i := 0; i < total; i++ {
		e := recvSub(t, sub)
		if want := fmt.Sprintf("%06d", i); string(e.Data) != want {
			t.Fatalf("entry %d: %q (gap, duplicate, or reorder)", i, e.Data)
		}
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

// TestWatchRootAcrossShards live-merges a sharded store's tails over the
// wire.
func TestWatchRootAcrossShards(t *testing.T) {
	cl, st := watchPair(t, 3)

	// One log per shard, probing segments until all shards are covered. The
	// subscription opens after the creations: the root tail carries catalog
	// records too (every entry belongs to the volume sequence log), and this
	// test wants only the data entries.
	var ids []ID
	covered := make(map[int]bool)
	for i := 0; len(covered) < st.Shards() && i < 256; i++ {
		p := fmt.Sprintf("/seg%03d", i)
		sh, err := st.ShardFor(p)
		if err != nil {
			t.Fatal(err)
		}
		if covered[sh] {
			continue
		}
		covered[sh] = true
		id, err := cl.CreateLog(bg, p, 0o644, "t")
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	sub, err := cl.Watch(bg, "/", logapi.WatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	want := make(map[string]bool)
	for round := 0; round < 3; round++ {
		for i, id := range ids {
			data := fmt.Sprintf("r%d-s%d", round, i)
			if _, err := cl.Append(bg, id, []byte(data), AppendOptions{Forced: true}); err != nil {
				t.Fatal(err)
			}
			want[data] = true
		}
	}
	for range want {
		e := recvSub(t, sub)
		if !want[string(e.Data)] {
			t.Fatalf("unexpected or duplicate entry %q", e.Data)
		}
		delete(want, string(e.Data))
	}
}

// TestWatchResumeFromPosition closes a subscription and resumes from the
// last delivered entry's gap position — the consumer-group recovery motion.
func TestWatchResumeFromPosition(t *testing.T) {
	cl, _ := watchPair(t, 1)
	id, err := cl.CreateLog(bg, "/feed", 0o644, "t")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := cl.Append(bg, id, []byte(fmt.Sprintf("e%d", i)), AppendOptions{Forced: true}); err != nil {
			t.Fatal(err)
		}
	}
	sub, err := cl.Watch(bg, "/feed", logapi.WatchOptions{FromStart: true})
	if err != nil {
		t.Fatal(err)
	}
	recvSub(t, sub)
	e := recvSub(t, sub) // stop after e1
	sub.Close()

	resumed, err := cl.Watch(bg, "/feed", logapi.WatchOptions{
		From: []logapi.Position{{Shard: e.Shard, Block: e.Block, Rec: e.Index + 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	for i := 2; i < 6; i++ {
		got := recvSub(t, resumed)
		if want := fmt.Sprintf("e%d", i); string(got.Data) != want {
			t.Fatalf("resumed: %q, want %q", got.Data, want)
		}
	}
}

// TestWatchRootResume resumes a root subscription over the wire on a
// 4-shard store: the From positions travel in the subscribe payload, each
// listed shard continues right after its position, and the others follow
// FromStart — their whole history first, or only later appends.
func TestWatchRootResume(t *testing.T) {
	for _, fromStart := range []bool{false, true} {
		t.Run(fmt.Sprintf("FromStart=%v", fromStart), func(t *testing.T) {
			cl, st := watchPair(t, 4)
			ids := make([]ID, st.Shards())
			paths := make([]string, st.Shards())
			for covered, i := 0, 0; covered < len(ids); i++ {
				p := fmt.Sprintf("/seg%03d", i)
				sh, err := st.ShardFor(p)
				if err != nil {
					t.Fatal(err)
				}
				if paths[sh] != "" {
					continue
				}
				paths[sh], covered = p, covered+1
				if ids[sh], err = cl.CreateLog(bg, p, 0o644, "t"); err != nil {
					t.Fatal(err)
				}
				for j := 0; j < 3; j++ {
					if _, err := cl.Append(bg, ids[sh], []byte(fmt.Sprintf("h%d-%d", sh, j)), AppendOptions{Forced: true}); err != nil {
						t.Fatal(err)
					}
				}
			}
			// Shard 1 resumes after its first entry, shard 3 after its second.
			resume := map[int]int{1: 0, 3: 1}
			var from []logapi.Position
			for sh, after := range resume {
				cur, err := cl.OpenCursor(bg, paths[sh])
				if err != nil {
					t.Fatal(err)
				}
				var e *Entry
				for j := 0; j <= after; j++ {
					if e, err = cur.Next(bg); err != nil {
						t.Fatal(err)
					}
				}
				cur.Close()
				from = append(from, logapi.Position{Shard: e.Shard, Block: e.Block, Rec: e.Index + 1})
			}
			sub, err := cl.Watch(bg, "/", logapi.WatchOptions{FromStart: fromStart, From: from})
			if err != nil {
				t.Fatal(err)
			}
			defer sub.Close()
			want := make([][]string, len(ids))
			total := 0
			for sh, id := range ids {
				first, listed := resume[sh]
				switch {
				case listed:
					first++
				case !fromStart:
					first = 3
				}
				for j := first; j < 3; j++ {
					want[sh] = append(want[sh], fmt.Sprintf("h%d-%d", sh, j))
				}
				live := fmt.Sprintf("l%d", sh)
				if _, err := cl.Append(bg, id, []byte(live), AppendOptions{Forced: true}); err != nil {
					t.Fatal(err)
				}
				want[sh] = append(want[sh], live)
				total += len(want[sh])
			}
			got := make([][]string, len(ids))
			for n := 0; n < total; {
				e := recvSub(t, sub)
				if e.LogID != ids[e.Shard].Local() {
					continue // the catalog's own records
				}
				got[e.Shard] = append(got[e.Shard], string(e.Data))
				n++
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("delivered per shard %q, want %q", got, want)
			}
		})
	}
}
