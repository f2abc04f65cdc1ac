package cluster

import (
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clio/internal/client"
	"clio/internal/core"
	"clio/internal/faults"
	"clio/internal/server"
	"clio/internal/wire"
	"clio/internal/wodev"
)

const testBlockSize = 256

// testNode bundles one cluster member with its devices so tests can kill,
// restart and inspect it.
type testNode struct {
	node   *Node
	addr   string
	devs   [][]wodev.Device
	nvrams []core.NVRAM
}

// startNode builds and serves one node. When dial is nil, TCP is used.
func startNode(t *testing.T, addr string, peers []string, devs [][]wodev.Device,
	nvrams []core.NVRAM, leader, create bool,
	dial func(ctx context.Context, addr string) (net.Conn, error)) *testNode {
	t.Helper()
	ln := listen(t, addr)
	n, err := New(Config{
		NodeID:     ln.Addr().String(),
		Peers:      peers,
		Quorum:     2,
		Devices:    devs,
		NVRAMs:     nvrams,
		Opts:       core.Options{BlockSize: testBlockSize, CheckpointInterval: 4},
		Create:     create,
		AckTimeout: 3 * time.Second,
		Dial:       dial,
		Reset: func(shard, dev int) (wodev.Device, error) {
			fresh := wodev.NewMem(wodev.MemOptions{BlockSize: testBlockSize, Capacity: 4096})
			return fresh, nil
		},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatalf("new node %s: %v", addr, err)
	}
	if err := n.Start(leader); err != nil {
		t.Fatalf("start %s: %v", addr, err)
	}
	go n.Serve(ln)
	tn := &testNode{node: n, addr: ln.Addr().String(), devs: devs, nvrams: nvrams}
	t.Cleanup(n.Kill)
	return tn
}

func freshShards(shards int) ([][]wodev.Device, []core.NVRAM) {
	devs := make([][]wodev.Device, shards)
	nvrams := make([]core.NVRAM, shards)
	for i := range devs {
		devs[i] = []wodev.Device{wodev.NewMem(wodev.MemOptions{BlockSize: testBlockSize, Capacity: 4096})}
		nvrams[i] = core.NewMemNVRAM()
	}
	return devs, nvrams
}

// reserved holds the listeners freeAddrs opened, by address, until the node
// started on the address takes its own over (listen) or the test ends.
var reserved = struct {
	sync.Mutex
	m map[string]net.Listener
}{m: make(map[string]net.Listener)}

// freeAddrs reserves n distinct loopback addresses, so nodes can be
// configured with each other's addresses before any of them serves. Each
// stays reserved by an open listener until its node takes it over: closing
// it to listen again would let a test running in parallel take the port in
// between.
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		reserved.Lock()
		reserved.m[addrs[i]] = ln
		reserved.Unlock()
	}
	t.Cleanup(func() {
		for _, a := range addrs {
			if ln := takeReserved(a); ln != nil {
				ln.Close()
			}
		}
	})
	return addrs
}

// deadAddr returns a loopback address that nothing listens on: a port
// reserved and closed again. A peer named by it is refused at once on every
// dial, with no resolver asked.
func deadAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

func takeReserved(addr string) net.Listener {
	reserved.Lock()
	defer reserved.Unlock()
	ln := reserved.m[addr]
	delete(reserved.m, addr)
	return ln
}

// listen returns the listener freeAddrs reserved for addr, or a new one on
// addr: a node restarted on its own address listens again.
func listen(t *testing.T, addr string) net.Listener {
	t.Helper()
	if ln := takeReserved(addr); ln != nil {
		return ln
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("listen %s: %v", addr, err)
	}
	return ln
}

func testClient(t *testing.T, session uint64, addrs []string,
	dial func(ctx context.Context, addr string) (net.Conn, error)) *client.Client {
	t.Helper()
	c, err := client.DialContext(context.Background(), addrs[0], client.Options{
		SessionID: session,
		Addrs:     addrs[1:],
		DialAddr:  dial,
		Retry: &faults.RetryPolicy{
			MaxAttempts: 80,
			BaseDelay:   2 * time.Millisecond,
			MaxDelay:    100 * time.Millisecond,
			Multiplier:  2,
			FullJitter:  true,
			Seed:        int64(session),
		},
	})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func waitFor(t *testing.T, what string, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func shardEndsEqual(a, b []int) bool {
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

// TestClusterFailover is the kill-the-leader chaos test: three nodes, a
// storm of forced appends, the leader killed mid-group-commit, a follower
// promoted, and the invariant checked that every acknowledged entry is
// readable exactly once and in per-writer order — no lost acks.
func TestClusterFailover(t *testing.T) {
	addrs := freeAddrs(t, 3)
	var tns [3]*testNode
	for i := 0; i < 3; i++ {
		devs, nvrams := freshShards(2)
		peers := make([]string, 0, 2)
		for j, a := range addrs {
			if j != i {
				peers = append(peers, a)
			}
		}
		tns[i] = startNode(t, addrs[i], peers, devs, nvrams, i == 0, i == 0, nil)
	}

	ctx := context.Background()
	admin := testClient(t, 1, addrs, nil)
	paths := []string{"/alpha", "/beta"}
	var ids [2]client.ID
	for i, p := range paths {
		id, err := admin.CreateLog(ctx, p, 0o644, "test")
		if err != nil {
			t.Fatalf("create %s: %v", p, err)
		}
		ids[i] = id
	}

	// One entry deliberately larger than a block, sealed long before the
	// kill: the follower read check below must reassemble its fragment chain
	// from the replicated devices.
	fragmented := "frag:" + strings.Repeat("f", 3*testBlockSize)
	if _, err := admin.Append(ctx, ids[0], []byte(fragmented), client.AppendOptions{Forced: true}); err != nil {
		t.Fatalf("append fragmented entry: %v", err)
	}

	const writers = 3
	const perWriter = 45
	filler := strings.Repeat("x", 24)
	var ackedTotal atomic.Int64
	acked := make([][]string, writers) // per-writer acked payloads, in order
	// Every writer dials before any starts: the leader is killed once 30
	// appends are acked, and a writer dialling after that would find it
	// dead. The writers call no t.Fatal: they run off the test goroutine.
	clients := make([]*client.Client, writers)
	for g := range clients {
		clients[g] = testClient(t, uint64(100+g), addrs, nil)
	}
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := clients[g]
			id := ids[g%2]
			for i := 0; i < perWriter; i++ {
				payload := fmt.Sprintf("g%d-%04d:%s", g, i, filler)
				_, err := c.Append(ctx, id, []byte(payload), client.AppendOptions{Forced: true})
				if err != nil {
					continue // unacked: no durability claim to check
				}
				acked[g] = append(acked[g], payload)
				ackedTotal.Add(1)
			}
		}(g)
	}

	// Kill the leader mid-storm, while group commits are in flight.
	waitFor(t, "30 acked appends", 15*time.Second, func() bool { return ackedTotal.Load() >= 30 })
	tns[0].node.Kill()

	// Promote whichever follower applied the most of the stream: the ack
	// rule guarantees it holds every acknowledged entry.
	time.Sleep(300 * time.Millisecond)
	promoted, other := tns[1], tns[2]
	if tns[2].node.Applied() > tns[1].node.Applied() {
		promoted, other = tns[2], tns[1]
	}
	newTerm, err := promoted.node.promoteExcept(nil)
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	if newTerm != 2 {
		t.Fatalf("promoted term = %d, want 2", newTerm)
	}
	wg.Wait()
	if got := ackedTotal.Load(); got < 30 {
		t.Fatalf("only %d acked appends, storm too small", got)
	}

	// Promotion must have recovered via checkpoint + tail replay, not a
	// full-volume scan.
	rec, ok := promoted.node.PromotionRecovery()
	if !ok {
		t.Fatal("no promotion recovery report")
	}
	if rec.CheckpointsUsed < 1 {
		t.Errorf("promotion used no checkpoints (sealed=%d replayed=%d)", rec.SealedBlocks, rec.BlocksReplayed)
	}
	if rec.SealedBlocks < 8 {
		t.Errorf("only %d sealed blocks; storm too small to exercise checkpointed recovery", rec.SealedBlocks)
	}
	if rec.BlocksReplayed >= rec.SealedBlocks {
		t.Errorf("promotion replayed %d of %d sealed blocks: recovery not checkpoint-bounded",
			rec.BlocksReplayed, rec.SealedBlocks)
	}

	// Every acked entry must be present exactly once, in per-writer order.
	reader := testClient(t, 7, []string{promoted.addr}, nil)
	position := make(map[string]int)   // payload -> scan position
	entryAt := make(map[string][3]int) // payload -> (shard, block, index)
	scanPos := 0
	for _, p := range paths {
		cur, err := reader.OpenCursor(ctx, p)
		if err != nil {
			t.Fatalf("cursor %s: %v", p, err)
		}
		for {
			e, err := cur.Next(ctx)
			if err != nil {
				break
			}
			payload := string(e.Data)
			if _, dup := position[payload]; dup {
				t.Errorf("payload %q appears more than once", payload[:12])
			}
			position[payload] = scanPos
			entryAt[payload] = [3]int{e.Shard, e.Block, e.Index}
			scanPos++
		}
		cur.Close()
	}
	for g := 0; g < writers; g++ {
		last := -1
		for i, payload := range acked[g] {
			pos, found := position[payload]
			if !found {
				t.Fatalf("ACKED entry lost after failover: writer %d append %d (%q)", g, i, payload[:12])
			}
			if pos <= last {
				t.Errorf("writer %d order violated: append %d at scan pos %d after pos %d", g, i, pos, last)
			}
			last = pos
		}
	}

	// Restart the killed leader as a follower on its old address: it must
	// converge with the new leader (a reset is legitimate here — it may
	// hold blocks the new leader never saw — but state must match after).
	restarted := startNode(t, addrs[0], []string{addrs[1], addrs[2]}, tns[0].devs, tns[0].nvrams, false, false, nil)
	waitFor(t, "restarted node to converge", 15*time.Second, func() bool {
		st := restarted.node.Status()
		// LeaderAddr proves the new leader's stream handshake happened — the
		// restarted node holds most blocks already, so bare extent equality
		// could pass before it has rejoined (and before it can serve clients).
		return st.LeaderAddr == promoted.addr &&
			shardEndsEqual(st.ShardEnds, promoted.node.Status().ShardEnds)
	})

	// A converged replica serves acked sealed history directly.
	follower := testClient(t, 8, []string{restarted.addr}, nil)
	checked := 0
	for g := 0; g < writers && checked < 5; g++ {
		for _, payload := range acked[g] {
			at, ok := entryAt[payload]
			if !ok {
				continue
			}
			e, err := follower.ReadAt(ctx, at[0], at[1], at[2])
			if err != nil {
				continue // tail entries are not sealed; skip
			}
			if string(e.Data) != payload {
				t.Errorf("follower read at %v = %q, want %q", at, e.Data, payload)
			}
			checked++
			if checked >= 5 {
				break
			}
		}
	}
	if checked == 0 {
		t.Error("no acked entry was readable from the restarted follower")
	}
	if at, ok := entryAt[fragmented]; !ok {
		t.Error("fragmented entry missing from the promoted leader's scan")
	} else if e, err := follower.ReadAt(ctx, at[0], at[1], at[2]); err != nil {
		t.Errorf("follower read of the fragmented entry at %v: %v", at, err)
	} else if string(e.Data) != fragmented {
		t.Errorf("follower reassembled %d bytes of the fragmented entry, want %d", len(e.Data), len(fragmented))
	}
	_ = other
}

// TestClusterPartition isolates the leader: the majority side must elect
// and accept writes, the minority leader must refuse writes BEFORE
// executing them, and on heal the old leader must demote and catch up via
// suffix fetch alone — no reset, because the refusal kept it from
// diverging.
func TestClusterPartition(t *testing.T) {
	part := newPartition()
	tcp := func(ctx context.Context, addr string) (net.Conn, error) {
		var d net.Dialer
		return d.DialContext(ctx, "tcp", addr)
	}
	addrs := freeAddrs(t, 3)
	var tns [3]*testNode
	for i := 0; i < 3; i++ {
		devs, nvrams := freshShards(1)
		peers := make([]string, 0, 2)
		for j, a := range addrs {
			if j != i {
				peers = append(peers, a)
			}
		}
		tns[i] = startNode(t, addrs[i], peers, devs, nvrams, i == 0, i == 0, part.Dialer(addrs[i], tcp))
	}
	ctx := context.Background()

	c1 := testClient(t, 11, addrs, part.Dialer("client1", tcp))
	id, err := c1.CreateLog(ctx, "/partlog", 0o644, "test")
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	big := strings.Repeat("a", testBlockSize+40) // > block size: every append seals blocks
	// Unforced appends, answered without a quorum round except where one
	// seals a block: the force after them makes u0 and u1 durable, and v0
	// and v1, after the last force, may be lost with the leader's tail.
	for _, u := range []string{"u0:" + big, "u1:" + big} {
		if _, err := c1.Append(ctx, id, []byte(u), client.AppendOptions{}); err != nil {
			t.Fatalf("pre-partition unforced append: %v", err)
		}
	}
	if _, err := c1.Append(ctx, id, []byte("w0:"+big), client.AppendOptions{Forced: true}); err != nil {
		t.Fatalf("pre-partition append: %v", err)
	}
	for _, v := range []string{"v0:x", "v1:x"} {
		if _, err := c1.Append(ctx, id, []byte(v), client.AppendOptions{}); err != nil {
			t.Fatalf("pre-partition unforced append: %v", err)
		}
	}

	// Let both followers fully catch up first: the test promotes a specific
	// follower, so that follower must hold every acked frame (in production
	// the operator promotes the max-applied replica, as TestClusterFailover
	// does).
	waitFor(t, "followers to catch up", 10*time.Second, func() bool {
		for _, p := range tns[0].node.Status().Peers {
			if !p.Alive || p.Lag != 0 {
				return false
			}
		}
		return true
	})

	// Cut the leader off from both followers (clients can still reach it).
	part.Isolate(addrs[0], addrs[1], addrs[2])
	waitFor(t, "leader to lose its followers", 10*time.Second, func() bool {
		for _, p := range tns[0].node.Status().Peers {
			if p.Alive {
				return false
			}
		}
		return true
	})

	// The minority leader must refuse the write up front, leaving its
	// devices untouched — that is what makes post-heal catch-up suffix-only.
	endsBefore := tns[0].node.Status().ShardEnds
	c2, err := client.DialContext(ctx, addrs[0], client.Options{SessionID: 12, DialAddr: tcp,
		Retry: &faults.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond}})
	if err != nil {
		t.Fatalf("dial isolated leader: %v", err)
	}
	defer c2.Close()
	if _, err := c2.Append(ctx, id, []byte("minority:"+big), client.AppendOptions{Forced: true}); err == nil {
		t.Fatal("isolated leader accepted a write without quorum")
	} else if !strings.Contains(err.Error(), "quorum") {
		t.Fatalf("refusal error = %v, want quorum refusal", err)
	}
	if got := tns[0].node.Status().ShardEnds; !shardEndsEqual(got, endsBefore) {
		t.Fatalf("minority leader executed a refused write: ends %v -> %v", endsBefore, got)
	}
	if tns[0].node.Status().QuorumRefusals == 0 {
		t.Error("quorum refusal not counted")
	}

	// Promote a majority follower over the raw wire protocol.
	conn, err := net.Dial("tcp", addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	if err := server.WriteFrame(conn, wire.OpPromote, 0, 0, nil); err != nil {
		t.Fatal(err)
	}
	status, _, _, payload, err := server.ReadFrame(conn)
	conn.Close()
	if err != nil || status != server.StatusOK {
		t.Fatalf("promote over wire: status %d err %v", status, err)
	}
	if term, _ := wire.Uint64(payload); term != 2 {
		t.Fatalf("promoted term = %d, want 2", term)
	}

	// The majority side accepts forced writes (quorum = new leader + the
	// other follower) once the new leader's stream to that follower is up;
	// the failover client finds the new leader itself.
	waitFor(t, "new leader to reach the other follower", 10*time.Second, func() bool {
		for _, p := range tns[1].node.Status().Peers {
			if p.Addr == addrs[2] && p.Alive {
				return true
			}
		}
		return false
	})
	for i := 1; i <= 3; i++ {
		if _, err := c1.Append(ctx, id, []byte(fmt.Sprintf("w%d:%s", i, big)), client.AppendOptions{Forced: true}); err != nil {
			t.Fatalf("majority append w%d: %v", i, err)
		}
	}

	// Heal. The old leader learns the higher term from its own handshakes,
	// steps down, and is caught up by the new leader — by suffix only.
	part.HealAll()
	waitFor(t, "old leader to step down", 10*time.Second, func() bool {
		return tns[0].node.Status().Role == "follower"
	})
	waitFor(t, "healed node to converge", 10*time.Second, func() bool {
		return shardEndsEqual(tns[0].node.Status().ShardEnds, tns[1].node.Status().ShardEnds)
	})
	var peerA *PeerStatus
	for i := range tns[1].node.Status().Peers {
		p := tns[1].node.Status().Peers[i]
		if p.Addr == addrs[0] {
			peerA = &p
		}
	}
	if peerA == nil {
		t.Fatal("new leader has no peer entry for the healed node")
	}
	if peerA.Resets != 0 {
		t.Errorf("healed node was reset %d times; refusal should have prevented divergence", peerA.Resets)
	}
	total := 0
	for _, w := range tns[1].node.Status().ShardEnds {
		total += w
	}
	if peerA.CatchupBlocks <= 0 {
		t.Error("no catch-up blocks shipped to the healed node")
	} else if int(peerA.CatchupBlocks) >= total+1 {
		t.Errorf("catch-up shipped %d blocks with only %d data blocks total: not a suffix fetch",
			peerA.CatchupBlocks, total)
	}
	if tns[0].node.Status().Demotions != 1 {
		t.Errorf("old leader demotions = %d, want 1", tns[0].node.Status().Demotions)
	}

	// The demoted node now redirects the minority client to the new leader
	// in one round trip (typed ErrNotLeader under the hood).
	if _, err := c2.Append(ctx, id, []byte("post-heal:"+big), client.AppendOptions{Forced: true}); err != nil {
		t.Fatalf("append via redirect after heal: %v", err)
	}

	// All acked writes, pre- and post-partition, are readable in order; an
	// unforced one after the last force at most once, in its place.
	cur, err := c1.OpenCursor(ctx, "/partlog")
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	var got, tail []string
	for {
		e, err := cur.Next(ctx)
		if err != nil {
			break
		}
		name := string(e.Data[:strings.Index(string(e.Data), ":")])
		if name[0] == 'v' {
			if len(got) != 3 {
				t.Fatalf("unforced entry %s after %v, want it right after w0", name, got)
			}
			tail = append(tail, name)
			continue
		}
		got = append(got, name)
	}
	if len(tail) > 2 || len(tail) > 0 && tail[0] != "v0" || len(tail) == 2 && tail[1] != "v1" {
		t.Fatalf("unforced entries after the last force read back as %v, want a prefix of [v0 v1]", tail)
	}
	want := []string{"u0", "u1", "w0", "w1", "w2", "w3", "post-heal"}
	if len(got) != len(want) {
		t.Fatalf("log has %d entries %v, want %v", len(got), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("entry %d = %q, want %q (full scan %v)", i, got[i], want[i], got)
		}
	}
}

// TestFollowerRedirect is the satellite regression: a write sent to a
// follower must come back as one StatusNotLeader round trip that the
// client turns into a redirect — dial follower, dial leader, done.
func TestFollowerRedirect(t *testing.T) {
	addrs := freeAddrs(t, 2)
	devsA, nvA := freshShards(1)
	devsB, nvB := freshShards(1)
	a := startNode(t, addrs[0], []string{addrs[1]}, devsA, nvA, true, true, nil)
	b := startNode(t, addrs[1], []string{addrs[0]}, devsB, nvB, false, false, nil)
	_ = a

	// Wait until the follower has learned the leader's address.
	waitFor(t, "follower to learn the leader", 10*time.Second, func() bool {
		return b.node.Status().LeaderAddr == a.addr
	})

	var mu sync.Mutex
	var dialed []string
	dial := func(ctx context.Context, addr string) (net.Conn, error) {
		mu.Lock()
		dialed = append(dialed, addr)
		mu.Unlock()
		var d net.Dialer
		return d.DialContext(ctx, "tcp", addr)
	}
	ctx := context.Background()
	c, err := client.DialContext(ctx, b.addr, client.Options{SessionID: 21, DialAddr: dial})
	if err != nil {
		t.Fatalf("dial follower: %v", err)
	}
	defer c.Close()
	if _, err := c.CreateLog(ctx, "/redlog", 0o644, "test"); err != nil {
		t.Fatalf("create via follower: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	want := []string{b.addr, a.addr}
	if len(dialed) != 2 || dialed[0] != want[0] || dialed[1] != want[1] {
		t.Fatalf("dial sequence %v, want exactly %v (one-round-trip redirect)", dialed, want)
	}
}
