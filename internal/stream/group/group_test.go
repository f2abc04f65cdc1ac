package group

import (
	"context"
	"fmt"
	"net"
	"sort"
	"sync"
	"testing"
	"time"

	"clio/internal/client"
	"clio/internal/core"
	"clio/internal/logapi"
	"clio/internal/server"
	"clio/internal/shard"
	"clio/internal/wodev"
)

var bg = context.Background()

func newStore(t *testing.T, shards int) *shard.Store {
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
	return st
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// assigned returns the partitions currently assigned to c, sorted.
func assigned(c *Consumer) []int {
	c.mu.Lock()
	out := make([]int, 0, len(c.assigned))
	for p := range c.assigned {
		out = append(out, p)
	}
	c.mu.Unlock()
	sort.Ints(out)
	return out
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestHandoff is the deterministic rebalance walk: a lone member owns every
// partition; a second member joins; the release/claim fencing hands one
// partition over; the audit sees a clean, contiguous trail.
func TestHandoff(t *testing.T) {
	st := newStore(t, 2)
	defer st.Close()
	ids, err := EnsureTopic(bg, st, "/jobs", 2)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{TTL: 500 * time.Millisecond}

	c1, err := Join(bg, st, "g", "c1", "/jobs", 2, opt)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "c1 to own both partitions", func() bool { return sameInts(assigned(c1), []int{0, 1}) })

	produce := func(round, perPartition int) {
		for p, id := range ids {
			for i := 0; i < perPartition; i++ {
				data := fmt.Sprintf("r%d-p%d-%d", round, p, i)
				if _, err := st.Append(bg, id, []byte(data), logapi.AppendOptions{Forced: true}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	drain := func(c *Consumer, n int) map[string]int {
		t.Helper()
		got := make(map[string]int)
		for i := 0; i < n; i++ {
			ctx, cancel := context.WithTimeout(bg, 10*time.Second)
			m, err := c.Recv(ctx)
			cancel()
			if err != nil {
				t.Fatalf("Recv %d: %v", i, err)
			}
			if err := c.Ack(bg, m); err != nil {
				t.Fatalf("Ack %q: %v", m.Data, err)
			}
			got[string(m.Data)] = m.Partition
		}
		return got
	}

	produce(0, 3)
	if got := drain(c1, 6); len(got) != 6 {
		t.Fatalf("round 0: got %v", got)
	}

	c2, err := Join(bg, st, "g", "c2", "/jobs", 2, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Sorted live members [c1 c2]: partition 0 stays with c1, partition 1
	// moves to c2 once c1 releases it.
	waitFor(t, "rebalance to settle", func() bool {
		return sameInts(assigned(c1), []int{0}) && sameInts(assigned(c2), []int{1})
	})

	produce(1, 2)
	for data, p := range drain(c1, 2) {
		if p != 0 {
			t.Fatalf("c1 delivered %q from partition %d after handoff", data, p)
		}
	}
	for data, p := range drain(c2, 2) {
		if p != 1 {
			t.Fatalf("c2 delivered %q from partition %d", data, p)
		}
	}

	c1.Close()
	c2.Close()
	rep, err := Audit(bg, st, "g")
	if err != nil {
		t.Fatalf("audit: %v (report %+v)", err, rep)
	}
	if rep.Acked() != 10 {
		t.Fatalf("acked %d entries, want 10", rep.Acked())
	}
	for p, pr := range rep.Partitions {
		if pr.Count != 5 {
			t.Fatalf("partition %d count %d, want 5", p, pr.Count)
		}
	}
	if owners := rep.Partitions[1].Owners; len(owners) != 2 || owners[0] != "c1" || owners[1] != "c2" {
		t.Fatalf("partition 1 owners %v, want [c1 c2]", owners)
	}
}

// dumpTrail prints the group log record by record — the post-mortem view
// when an audit fails.
func dumpTrail(t *testing.T, svc logapi.Service, group string) {
	t.Helper()
	cur, err := svc.OpenCursor(bg, LogPath(group))
	if err != nil {
		t.Logf("dump: %v", err)
		return
	}
	defer cur.Close()
	kinds := map[byte]string{GroupJoin: "join", GroupLeave: "leave", GroupHeartbeat: "heartbeat",
		GroupAck: "ack", GroupClaim: "claim", GroupRelease: "release"}
	var t0 int64
	for i := 0; ; i++ {
		e, err := cur.Next(bg)
		if err != nil {
			return
		}
		rec, err := DecodeGroupRec(e.Data)
		if err != nil {
			continue
		}
		if t0 == 0 {
			t0 = e.Timestamp
		}
		switch rec.Kind {
		case GroupAck:
			t.Logf("%4d +%6dus %-9s %-3s p%d count=%d pos=%d/%d.%d",
				i, (e.Timestamp-t0)/1000, kinds[rec.Kind], rec.Member, rec.Partition, rec.Count, rec.Shard, rec.Block, rec.Rec)
		case GroupClaim:
			t.Logf("%4d +%6dus %-9s %-3s p%d cite=%d.%d",
				i, (e.Timestamp-t0)/1000, kinds[rec.Kind], rec.Member, rec.Partition, rec.Block, rec.Rec)
		case GroupRelease:
			t.Logf("%4d +%6dus %-9s %-3s p%d", i, (e.Timestamp-t0)/1000, kinds[rec.Kind], rec.Member, rec.Partition)
		default:
			t.Logf("%4d +%6dus %-9s %-3s", i, (e.Timestamp-t0)/1000, kinds[rec.Kind], rec.Member)
		}
	}
}

// TestSoakKillAndRejoin is the acceptance soak: a 3-consumer group over a
// 4-shard store, full network stack (each consumer a wire client), one
// consumer killed mid-stream and a replacement joining, one graceful leave —
// every published entry consumed exactly once per group, proven both by the
// recorders and by the ack-trail audit.
func TestSoakKillAndRejoin(t *testing.T) {
	const (
		partitions = 4
		wave       = 80
		waves      = 3
	)
	st := newStore(t, partitions)
	srv := server.NewStore(st)
	dialer := func(ctx context.Context) (net.Conn, error) {
		cConn, sConn := net.Pipe()
		go srv.ServeConn(sConn)
		return cConn, nil
	}
	newClient := func() *client.Client {
		t.Helper()
		cl, err := client.DialContext(bg, "", client.Options{Dialer: dialer})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		return cl
	}
	t.Cleanup(func() { srv.Close(); st.Close() })

	prod := newClient()
	ids, err := EnsureTopic(bg, prod, "/events", partitions)
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	recorded := make(map[string]int)
	record := func(data string) {
		mu.Lock()
		recorded[data]++
		mu.Unlock()
	}
	total := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(recorded)
	}

	opt := Options{TTL: 500 * time.Millisecond}
	var runners sync.WaitGroup
	start := func(member string) *Consumer {
		t.Helper()
		c, err := Join(bg, newClient(), "soak", member, "/events", partitions, opt)
		if err != nil {
			t.Fatal(err)
		}
		runners.Add(1)
		go func() {
			defer runners.Done()
			for {
				m, err := c.Recv(bg)
				if err != nil {
					return // closed or killed
				}
				// Ack-then-record: the recorder set is exactly the set of
				// entries this member acknowledged on behalf of the group.
				if err := c.Ack(bg, m); err == nil {
					record(string(m.Data))
				}
			}
		}()
		return c
	}

	c1 := start("c1")
	c2 := start("c2")
	c3 := start("c3")

	produce := func(w int) {
		for i := 0; i < wave; i++ {
			n := w*wave + i
			if _, err := prod.Append(bg, ids[n%partitions], []byte(fmt.Sprintf("e%03d", n)),
				client.AppendOptions{Forced: true}); err != nil {
				t.Fatal(err)
			}
		}
	}

	produce(0)
	waitFor(t, "wave 0 to be consumed", func() bool { return total() >= wave })

	c2.Kill() // crash: no release, no leave — the TTL takeover path
	c4 := start("c4")
	produce(1)
	waitFor(t, "wave 1 to be consumed", func() bool { return total() >= 2*wave })

	c1.Close() // graceful leave: immediate release handoff
	produce(2)
	waitFor(t, "wave 2 to be consumed", func() bool { return total() >= waves*wave })

	c3.Close()
	c4.Close()
	runners.Wait()

	mu.Lock()
	for data, n := range recorded {
		if n != 1 {
			t.Errorf("entry %q consumed %d times", data, n)
		}
	}
	if len(recorded) != waves*wave {
		t.Errorf("consumed %d distinct entries, want %d", len(recorded), waves*wave)
	}
	mu.Unlock()

	rep, err := Audit(bg, prod, "soak")
	if err != nil {
		dumpTrail(t, prod, "soak")
		t.Fatalf("audit: %v", err)
	}
	if rep.Acked() != waves*wave {
		t.Fatalf("audit counted %d acked entries, want %d", rep.Acked(), waves*wave)
	}
	if len(rep.Partitions) != partitions {
		t.Fatalf("audit saw %d partitions, want %d", len(rep.Partitions), partitions)
	}
}

// Kill stops the consumer abruptly — no releases, no leave record — as a
// crash would. The group recovers by TTL expiry. In-flight acks are drained
// first so a caller that records successful acks observes a consistent
// trail.
func (c *Consumer) Kill() {
	c.cancel()
	c.mu.Lock()
	c.assigned = make(map[int]bool)
	wgs := make([]*sync.WaitGroup, 0, len(c.ackWG))
	for _, wg := range c.ackWG {
		wgs = append(wgs, wg)
	}
	c.mu.Unlock()
	for _, wg := range wgs {
		wg.Wait()
	}
	c.wg.Wait()
}
