package stream_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"clio/internal/core"
	"clio/internal/logapi"
	"clio/internal/obs"
	"clio/internal/shard"
	"clio/internal/stream"
	"clio/internal/wodev"
)

var bg = context.Background()

func newSvc(t *testing.T) *core.Service {
	t.Helper()
	dev := wodev.NewMem(wodev.MemOptions{BlockSize: 512, Capacity: 1 << 16})
	svc, err := core.New(dev, core.Options{BlockSize: 512, Degree: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	return svc
}

func mustCreate(t *testing.T, svc *core.Service, path string) uint16 {
	t.Helper()
	id, err := svc.CreateLog(path, 0o644, "t")
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func mustAppend(t *testing.T, svc *core.Service, id uint16, data string) {
	t.Helper()
	if _, err := svc.Append(id, []byte(data), core.AppendOptions{Forced: true, Timestamped: true}); err != nil {
		t.Fatal(err)
	}
}

func watch(t *testing.T, svc *core.Service, path string, opts logapi.WatchOptions) logapi.Subscription {
	t.Helper()
	sub, err := shard.Single(svc).Watch(bg, path, opts)
	if err != nil {
		t.Fatal(err)
	}
	return sub
}

func recvOne(t *testing.T, sub logapi.Subscription) *core.Entry {
	t.Helper()
	ctx, cancel := context.WithTimeout(bg, 5*time.Second)
	defer cancel()
	e, err := sub.Recv(ctx)
	if err != nil {
		t.Fatalf("Recv: %v", err)
	}
	return e
}

// parkCtx reports each call of Done on parked. A subscription consults
// ctx.Done only when it parks, after it has taken its tail notifiers, so
// once parked fires the receiver is waiting and a publish ends the wait as a
// wake.
type parkCtx struct {
	context.Context
	parked chan struct{}
}

func newParkCtx(ctx context.Context) parkCtx {
	return parkCtx{Context: ctx, parked: make(chan struct{}, 1)}
}

func (c parkCtx) Done() <-chan struct{} {
	select {
	case c.parked <- struct{}{}:
	default:
	}
	return c.Context.Done()
}

// recvParked starts a Recv and returns once it is parked; the result
// arrives on the returned channel.
func recvParked(t *testing.T, sub logapi.Subscription, ctx context.Context) <-chan error {
	t.Helper()
	pc := newParkCtx(ctx)
	done := make(chan error, 1)
	go func() {
		_, err := sub.Recv(pc)
		done <- err
	}()
	select {
	case <-pc.parked:
	case err := <-done:
		t.Fatalf("Recv returned before it parked: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("Recv never parked")
	}
	return done
}

// TestSubscribeReceivesLiveAppends is the core tentpole contract: a
// subscription opened at the current end blocks without polling and receives
// entries as group commit publishes them.
func TestSubscribeReceivesLiveAppends(t *testing.T) {
	svc := newSvc(t)
	id := mustCreate(t, svc, "/feed")
	mustAppend(t, svc, id, "old")

	sub := watch(t, svc, "/feed", logapi.WatchOptions{})
	defer sub.Close()

	// Nothing is pending: Recv blocks until an append.
	ctx, cancel := context.WithTimeout(bg, 20*time.Millisecond)
	if _, err := sub.Recv(ctx); err != context.DeadlineExceeded {
		cancel()
		t.Fatalf("Recv before publish: %v", err)
	}
	cancel()

	for i := 0; i < 5; i++ {
		mustAppend(t, svc, id, fmt.Sprintf("live-%d", i))
	}
	for i := 0; i < 5; i++ {
		e := recvOne(t, sub)
		if want := fmt.Sprintf("live-%d", i); string(e.Data) != want {
			t.Fatalf("entry %d: %q, want %q", i, e.Data, want)
		}
	}
}

func TestFromStartDeliversHistoryThenLive(t *testing.T) {
	svc := newSvc(t)
	id := mustCreate(t, svc, "/feed")
	mustAppend(t, svc, id, "h0")
	mustAppend(t, svc, id, "h1")

	sub := watch(t, svc, "/feed", logapi.WatchOptions{FromStart: true})
	defer sub.Close()
	if e := recvOne(t, sub); string(e.Data) != "h0" {
		t.Fatalf("history 0: %q", e.Data)
	}
	if e := recvOne(t, sub); string(e.Data) != "h1" {
		t.Fatalf("history 1: %q", e.Data)
	}
	mustAppend(t, svc, id, "l0")
	if e := recvOne(t, sub); string(e.Data) != "l0" {
		t.Fatalf("live after history: %q", e.Data)
	}
}

// TestSubscriptionSeesSublogCreatedAfterOpen: a live subscription on a
// parent log delivers the entries of a sublog created after it opened, also
// past blocks holding none of the parent's entries.
func TestSubscriptionSeesSublogCreatedAfterOpen(t *testing.T) {
	svc := newSvc(t)
	mustCreate(t, svc, "/p")
	a := mustCreate(t, svc, "/p/a")
	filler := mustCreate(t, svc, "/filler")
	mustAppend(t, svc, a, "a0")
	sub := watch(t, svc, "/p", logapi.WatchOptions{})
	defer sub.Close()
	mustAppend(t, svc, a, "a1")
	if e := recvOne(t, sub); string(e.Data) != "a1" {
		t.Fatalf("live entry before the create: %q", e.Data)
	}
	b := mustCreate(t, svc, "/p/b")
	mustAppend(t, svc, b, "b1")
	for i := 0; i < 50; i++ {
		mustAppend(t, svc, filler, fmt.Sprintf("filler-%02d-padded-to-fill-the-blocks-between", i))
	}
	mustAppend(t, svc, b, "b2")
	for _, want := range []string{"b1", "b2"} {
		if e := recvOne(t, sub); string(e.Data) != want {
			t.Fatalf("entry of the sublog created after Open: %q, want %q", e.Data, want)
		}
	}
}

func TestResumeFromPosition(t *testing.T) {
	svc := newSvc(t)
	id := mustCreate(t, svc, "/feed")
	for i := 0; i < 6; i++ {
		mustAppend(t, svc, id, fmt.Sprintf("e%d", i))
	}
	sub := watch(t, svc, "/feed", logapi.WatchOptions{FromStart: true})
	e := recvOne(t, sub)
	e = recvOne(t, sub) // stop after e1
	sub.Close()

	resumed := watch(t, svc, "/feed", logapi.WatchOptions{
		From: []logapi.Position{{Shard: 0, Block: e.Block, Rec: e.Index + 1}},
	})
	defer resumed.Close()
	for i := 2; i < 6; i++ {
		got := recvOne(t, resumed)
		if want := fmt.Sprintf("e%d", i); string(got.Data) != want {
			t.Fatalf("resumed entry: %q, want %q", got.Data, want)
		}
	}
}

// TestSlowConsumerCatchUpNoGapsNoDuplicates runs a consumer that falls
// behind concurrent forced appends every 50 entries and verifies every
// entry arrives exactly once, in order: the cursor is the position, however
// far behind the tail the consumer reads.
func TestSlowConsumerCatchUpNoGapsNoDuplicates(t *testing.T) {
	const total = 400
	svc := newSvc(t)
	id := mustCreate(t, svc, "/firehose")
	st := shard.Single(svc)
	reg := obs.NewRegistry()
	st.RegisterStreamMetrics(reg)

	sub, err := st.Watch(bg, "/firehose", logapi.WatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < total; i++ {
			if _, err := svc.Append(id, []byte(fmt.Sprintf("%06d", i)),
				core.AppendOptions{Forced: true}); err != nil {
				t.Errorf("append %d: %v", i, err)
				return
			}
		}
	}()

	for i := 0; i < total; i++ {
		if i%50 == 0 {
			time.Sleep(2 * time.Millisecond) // fall behind periodically
		}
		e := recvOne(t, sub)
		if want := fmt.Sprintf("%06d", i); string(e.Data) != want {
			t.Fatalf("entry %d: %q (gap or duplicate)", i, e.Data)
		}
	}
	wg.Wait()

	if n := reg.Counter("clio_stream_entries_delivered_total", "").Value(); n != total {
		t.Errorf("delivered %d, want %d", n, total)
	}
	// Back at the live edge after draining everything.
	ctx, cancel := context.WithTimeout(bg, 20*time.Millisecond)
	defer cancel()
	if _, err := sub.Recv(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Recv after drain: %v", err)
	}
}

// TestWakeToDeliverLatency checks the no-polling claim quantitatively: the
// time from group-commit publish to the entry in the receiver's hands must
// be far below any polling interval (the pre-streaming tail command polled
// at 500ms). Each append is made while the receiver is parked, so every
// round is a genuine wake.
func TestWakeToDeliverLatency(t *testing.T) {
	svc := newSvc(t)
	id := mustCreate(t, svc, "/lat")
	st := shard.Single(svc)
	reg := obs.NewRegistry()
	st.RegisterStreamMetrics(reg)
	sub, err := st.Watch(bg, "/lat", logapi.WatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	const rounds = 50
	for i := 0; i < rounds; i++ {
		done := recvParked(t, sub, bg)
		mustAppend(t, svc, id, "tick")
		if err := <-done; err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
	}
	var n int64
	var sum time.Duration
	for _, m := range reg.Snapshot() {
		if m.Name == "clio_stream_wake_to_deliver_seconds" {
			n, sum = m.Count, time.Duration(m.SumSec*float64(time.Second))
		}
	}
	if n != rounds {
		t.Fatalf("%d wake-to-deliver samples, want one per round (%d)", n, rounds)
	}
	if sum <= 0 {
		t.Fatal("the registry snapshot holds no wake-to-deliver sum")
	}
	mean := sum / rounds
	if mean > 50*time.Millisecond {
		t.Errorf("mean wake-to-deliver %v; expected well under any polling interval", mean)
	}
	t.Logf("wake-to-deliver mean over %d wakes: %v", rounds, mean)
}

func TestRecvAfterCloseAndServiceClose(t *testing.T) {
	svc := newSvc(t)
	mustCreate(t, svc, "/x")
	sub := watch(t, svc, "/x", logapi.WatchOptions{})
	sub.Close()
	ctx, cancel := context.WithTimeout(bg, time.Second)
	defer cancel()
	if _, err := sub.Recv(ctx); err != stream.ErrClosed {
		t.Fatalf("Recv after Close: %v", err)
	}

	// A subscription over a service that closes underneath ends rather than
	// hanging.
	dev := wodev.NewMem(wodev.MemOptions{BlockSize: 512, Capacity: 1 << 14})
	svc2, err := core.New(dev, core.Options{BlockSize: 512, Degree: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc2.CreateLog("/y", 0, ""); err != nil {
		t.Fatal(err)
	}
	sub2 := watch(t, svc2, "/y", logapi.WatchOptions{})
	defer sub2.Close()
	ctx2, cancel2 := context.WithTimeout(bg, 5*time.Second)
	defer cancel2()
	done := recvParked(t, sub2, ctx2)
	svc2.Close()
	if err := <-done; err == nil || err == context.DeadlineExceeded {
		t.Fatalf("Recv over closed service: %v", err)
	}
}

// TestCloseWakesParkedRecv: Close from another goroutine ends a Recv parked
// at the end of the log with ErrClosed — how the server retires a
// subscription whose pull is parked when its connection ends — on a routed
// path and on the root of a sharded store.
func TestCloseWakesParkedRecv(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			svcs := make([]*core.Service, shards)
			for i := range svcs {
				svcs[i] = newSvc(t)
			}
			st, err := shard.New(svcs)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := st.CreateLog(bg, "/x", 0o644, "t"); err != nil {
				t.Fatal(err)
			}
			for _, path := range []string{"/x", "/"} {
				sub, err := st.Watch(bg, path, logapi.WatchOptions{})
				if err != nil {
					t.Fatal(err)
				}
				done := recvParked(t, sub, bg)
				sub.Close()
				select {
				case err := <-done:
					if err != stream.ErrClosed {
						t.Fatalf("%s: parked Recv after Close: %v, want ErrClosed", path, err)
					}
				case <-time.After(5 * time.Second):
					t.Fatalf("%s: Close did not wake the parked Recv", path)
				}
			}
		})
	}
}
