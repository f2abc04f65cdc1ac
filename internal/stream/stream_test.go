package stream

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"clio/internal/core"
	"clio/internal/obs"
	"clio/internal/wodev"
)

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

func recvOne(t *testing.T, sub *Sub) *core.Entry {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	e, err := sub.Recv(ctx)
	if err != nil {
		t.Fatalf("Recv: %v", err)
	}
	return e
}

// TestSubscribeReceivesLiveAppends is the core tentpole contract: a
// subscription opened at the current end blocks without polling and receives
// entries as group commit publishes them.
func TestSubscribeReceivesLiveAppends(t *testing.T) {
	svc := newSvc(t)
	id := mustCreate(t, svc, "/feed")
	mustAppend(t, svc, id, "old")

	sub, err := Open("/feed", Options{}, Leg{Svc: svc})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	// Nothing is pending: Recv blocks until an append.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
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

	sub, err := Open("/feed", Options{FromStart: true}, Leg{Svc: svc})
	if err != nil {
		t.Fatal(err)
	}
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
	sub, err := Open("/p", Options{}, Leg{Svc: svc})
	if err != nil {
		t.Fatal(err)
	}
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
	sub, err := Open("/feed", Options{FromStart: true}, Leg{Svc: svc})
	if err != nil {
		t.Fatal(err)
	}
	e := recvOne(t, sub)
	e = recvOne(t, sub) // stop after e1
	sub.Close()

	resumed, err := Open("/feed", Options{
		From: []Pos{{Shard: 0, Block: e.Block, Rec: e.Index + 1}},
	}, Leg{Svc: svc})
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	for i := 2; i < 6; i++ {
		got := recvOne(t, resumed)
		if want := fmt.Sprintf("e%d", i); string(got.Data) != want {
			t.Fatalf("resumed entry: %q, want %q", got.Data, want)
		}
	}
}

// TestSlowConsumerCatchUpNoGapsNoDuplicates overflows a tiny subscriber
// buffer under concurrent forced appends, lets the consumer drain at its own
// pace, and verifies every entry arrives exactly once, in order — the
// overflow → catch-up → resume path.
func TestSlowConsumerCatchUpNoGapsNoDuplicates(t *testing.T) {
	const total = 400
	svc := newSvc(t)
	id := mustCreate(t, svc, "/firehose")

	sub, err := Open("/firehose", Options{Buffer: 4}, Leg{Svc: svc})
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

	st := sub.Stats()
	if st.Delivered != total {
		t.Errorf("delivered %d, want %d", st.Delivered, total)
	}
	if st.CatchUps == 0 {
		t.Error("buffer of 4 under a 400-entry firehose never overflowed; catch-up path untested")
	}
	// Back at the live edge after draining everything.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := sub.Recv(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Recv after drain: %v", err)
	}
}

// TestWakeToDeliverLatency checks the no-polling claim quantitatively: the
// time from group-commit publish to the entry landing in the subscriber
// buffer must be far below any polling interval (the pre-streaming tail
// command polled at 500ms).
func TestWakeToDeliverLatency(t *testing.T) {
	svc := newSvc(t)
	id := mustCreate(t, svc, "/lat")
	met := RegisterMetrics(obs.NewRegistry())
	sub, err := Open("/lat", Options{Metrics: met}, Leg{Svc: svc})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	const rounds = 50
	for i := 0; i < rounds; i++ {
		mustAppend(t, svc, id, "tick")
		recvOne(t, sub)
		// Let the pump park again so the next append is a genuine wake.
		time.Sleep(200 * time.Microsecond)
	}
	n := met.wakeToDeliver.Count()
	if n == 0 {
		t.Fatal("no wake-to-deliver samples recorded")
	}
	mean := time.Duration(met.wakeToDeliver.Sum().Nanoseconds() / n)
	if mean > 50*time.Millisecond {
		t.Errorf("mean wake-to-deliver %v; expected well under any polling interval", mean)
	}
	t.Logf("wake-to-deliver mean over %d wakes: %v", n, mean)
}

func TestRecvAfterCloseAndServiceClose(t *testing.T) {
	svc := newSvc(t)
	mustCreate(t, svc, "/x")
	sub, err := Open("/x", Options{}, Leg{Svc: svc})
	if err != nil {
		t.Fatal(err)
	}
	sub.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, err := sub.Recv(ctx); err != ErrClosed {
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
	sub2, err := Open("/y", Options{}, Leg{Svc: svc2})
	if err != nil {
		t.Fatal(err)
	}
	defer sub2.Close()
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_, err := sub2.Recv(ctx)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the pump park
	svc2.Close()
	if err := <-done; err == nil || err == context.DeadlineExceeded {
		t.Fatalf("Recv over closed service: %v", err)
	}
}
