package client

import (
	"context"
	"fmt"
	"net"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"clio/internal/core"
	"clio/internal/logapi"
	"clio/internal/obs"
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

// pullGoroutines counts the goroutines that hold a pull: a server handler
// inside shard.Sub.RecvEach, the watch a parked pull starts on the read
// side, and any goroutine of a client's remote subscription. None of them
// exists between pulls, whatever else runs server code then.
func pullGoroutines() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "clio/internal/shard.(*Sub).RecvEach") ||
			strings.Contains(g, "clio/internal/server.(*connHandler).watch") ||
			strings.Contains(g, "clio/internal/client.(*remoteSub)") {
			n++
		}
	}
	return n
}

// TestWatchStalledConsumerCostsNothing: flow control is the pull. A
// consumer takes 300 entries in order while they are appended, then stops
// calling Recv while 10,000 more are: the server reads at most one batch
// for it, and no goroutine holds a pull for it — none is parked, none
// pushes. When the consumer comes back, every entry arrives, in order.
// Both checks read state, not the clock: a pull is asked only by a Recv
// whose buffer is empty, and its watch is joined before it is answered, so
// when the last Recv returned no pull was outstanding, and only a pull can
// make the server read entries for the subscription.
func TestWatchStalledConsumerCostsNothing(t *testing.T) {
	const first, more = 300, 10000
	dev := wodev.NewMem(wodev.MemOptions{BlockSize: 512, Capacity: 1 << 14})
	svc, err := core.New(dev, core.Options{BlockSize: 512, Degree: 8})
	if err != nil {
		t.Fatal(err)
	}
	st := shard.Single(svc)
	reg := obs.NewRegistry()
	st.RegisterStreamMetrics(reg)
	delivered := reg.Counter("clio_stream_entries_delivered_total", "Entries delivered to subscribers.")
	srv := server.NewStore(st)
	// TCP: a stalled consumer's socket holds the one answer it was sent,
	// where a pipe would hold the server's write.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	cl, err := DialOptions(ln.Addr().String(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close(); srv.Close(); st.Close() })
	id, err := cl.CreateLog(bg, "/firehose", 0o644, "t")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := cl.Watch(bg, "/firehose", logapi.WatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	appendN := func(from, n int) {
		for i := from; i < from+n; i++ {
			if _, err := st.Append(bg, id, []byte(fmt.Sprintf("%06d", i)), logapi.AppendOptions{Forced: true}); err != nil {
				t.Errorf("append %d: %v", i, err)
				return
			}
		}
	}
	recvN := func(from, n int) {
		t.Helper()
		for i := from; i < from+n; i++ {
			e := recvSub(t, sub)
			if want := fmt.Sprintf("%06d", i); string(e.Data) != want {
				t.Fatalf("entry %d: %q (gap, duplicate, or reorder)", i, e.Data)
			}
		}
	}
	done := make(chan struct{})
	go func() { defer close(done); appendN(0, first) }()
	recvN(0, first)
	<-done

	stalled := delivered.Value()
	appendN(first, more)
	if n := pullGoroutines(); n != 0 {
		t.Fatalf("%d goroutines hold a pull with the consumer stalled, want 0: a pull parked, or a pusher", n)
	}
	if n := delivered.Value() - stalled; n > server.MaxBatchEntries {
		t.Fatalf("the server read %d entries for a consumer that stopped, want one batch at most (%d)", n, server.MaxBatchEntries)
	} else {
		t.Logf("a stalled consumer was sent %d entries", n)
	}
	recvN(first, more)
}

// TestWatchReleasedAtOnce: on an idle log, a subscription's Close and its
// client's connection dying each end the pull parked on the server at once:
// within a second the server's handler for the connection has returned and
// clio_stream_subscriptions is back where it was.
func TestWatchReleasedAtOnce(t *testing.T) {
	for _, how := range []string{"close", "drop"} {
		t.Run(how, func(t *testing.T) {
			dev := wodev.NewMem(wodev.MemOptions{BlockSize: 512, Capacity: 1 << 14})
			svc, err := core.New(dev, core.Options{BlockSize: 512, Degree: 8})
			if err != nil {
				t.Fatal(err)
			}
			st := shard.Single(svc)
			reg := obs.NewRegistry()
			st.RegisterStreamMetrics(reg)
			subs := reg.Gauge("clio_stream_subscriptions", "Active tail subscriptions.")
			srv := server.NewStore(st)
			type served struct {
				conn    net.Conn // the client's end
				handled chan struct{}
			}
			dials := make(chan served, 2)
			dialer := func(ctx context.Context) (net.Conn, error) {
				cConn, sConn := net.Pipe()
				handled := make(chan struct{})
				go func() { srv.ServeConn(sConn); close(handled) }()
				dials <- served{cConn, handled}
				return cConn, nil
			}
			cl, err := DialContext(bg, "", Options{Dialer: dialer})
			if err != nil {
				t.Fatal(err)
			}
			// The store closes first: its closing ends a pull parked for good, so a
			// server that failed to end it fails the test instead of hanging it.
			t.Cleanup(func() { cl.Close(); st.Close(); srv.Close() })
			<-dials // the main connection
			if _, err := cl.CreateLog(bg, "/idle", 0o644, "t"); err != nil {
				t.Fatal(err)
			}
			before := subs.Value()
			sub, err := cl.Watch(bg, "/idle", logapi.WatchOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer sub.Close()
			watched := <-dials
			if subs.Value() != before+1 {
				t.Fatalf("clio_stream_subscriptions %d with the subscription open, want %d", subs.Value(), before+1)
			}
			recvd := make(chan error, 1)
			go func() {
				_, err := sub.Recv(bg)
				recvd <- err
			}()
			if how == "close" {
				sub.Close()
			} else {
				watched.conn.Close()
			}
			select {
			case <-watched.handled:
			case <-time.After(time.Second):
				t.Fatal("the server's handler for the subscription's connection still runs a second later")
			}
			if n := subs.Value(); n != before {
				t.Fatalf("clio_stream_subscriptions %d after the %s, want %d", n, how, before)
			}
			if err := <-recvd; err == nil {
				t.Fatal("Recv returned an entry from an idle log")
			}
		})
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
