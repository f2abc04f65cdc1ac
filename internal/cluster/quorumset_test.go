package cluster

// Tests for thrifty delivery: a force goes out at once only to the followers
// the quorum counts, the others are fed by the flush timer, and a quorum
// follower that stops acking trades places with one that does.

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clio/internal/client"
	"clio/internal/core"
)

// peerConns wraps the leader's replication connections, per follower
// address: it counts their socket writes, can stall them, and can hold
// back what the leader reads from them (the follower's acks).
type peerConns struct {
	mu      sync.Mutex
	writes  map[string]*atomic.Int64
	stalled map[string]chan struct{} // closed to release
	held    map[string]chan struct{} // closed to pass
	read    chan struct{}            // closed, and replaced, when the leader reads from a follower
}

func newPeerConns() *peerConns {
	return &peerConns{writes: make(map[string]*atomic.Int64), stalled: make(map[string]chan struct{}),
		held: make(map[string]chan struct{}), read: make(chan struct{})}
}

// until waits until cond, a condition on what the followers have applied,
// holds. It checks cond again each time the leader reads from a follower:
// a follower acks after it applies, so such a condition turns true only
// before one. The deadline only stops a hang.
func (pc *peerConns) until(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.After(30 * time.Second)
	for {
		pc.mu.Lock()
		read := pc.read
		pc.mu.Unlock()
		if cond() {
			return
		}
		select {
		case <-read:
		case <-deadline:
			t.Fatalf("after 30s still waiting for %s", what)
		}
	}
}

func (pc *peerConns) dial(ctx context.Context, addr string) (net.Conn, error) {
	var d net.Dialer
	c, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.writes[addr] == nil {
		pc.writes[addr] = new(atomic.Int64)
	}
	return &peerConn{Conn: c, pc: pc, addr: addr, closed: make(chan struct{})}, nil
}

func (pc *peerConns) count(addr string) int64 {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if w := pc.writes[addr]; w != nil {
		return w.Load()
	}
	return 0
}

// stall makes every write to addr block until release or the connection's
// Close: the follower stops receiving, and the connection stays open.
func (pc *peerConns) stall(addr string) {
	pc.mu.Lock()
	pc.stalled[addr] = make(chan struct{})
	pc.mu.Unlock()
}

func (pc *peerConns) release(addr string) {
	pc.mu.Lock()
	if ch := pc.stalled[addr]; ch != nil {
		close(ch)
		delete(pc.stalled, addr)
	}
	pc.mu.Unlock()
}

// holdAcks makes every read from addr's connections wait, once it has
// read, until passAcks or the connection's Close: the follower keeps
// receiving and acking, and the leader hears none of it. A read already
// waiting for data when holdAcks is called is held too.
func (pc *peerConns) holdAcks(addr string) {
	pc.mu.Lock()
	pc.held[addr] = make(chan struct{})
	pc.mu.Unlock()
}

func (pc *peerConns) passAcks(addr string) {
	pc.mu.Lock()
	if ch := pc.held[addr]; ch != nil {
		close(ch)
		delete(pc.held, addr)
	}
	pc.mu.Unlock()
}

type peerConn struct {
	net.Conn
	pc        *peerConns
	addr      string
	closeOnce sync.Once
	closed    chan struct{}
}

func (c *peerConn) Write(b []byte) (int, error) {
	c.pc.mu.Lock()
	gate := c.pc.stalled[c.addr]
	w := c.pc.writes[c.addr]
	c.pc.mu.Unlock()
	if gate != nil {
		select {
		case <-gate:
		case <-c.closed:
			return 0, net.ErrClosed
		}
	}
	w.Add(1)
	return c.Conn.Write(b)
}

func (c *peerConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.pc.mu.Lock()
	gate := c.pc.held[c.addr]
	if n > 0 {
		close(c.pc.read)
		c.pc.read = make(chan struct{})
	}
	c.pc.mu.Unlock()
	if gate != nil {
		select {
		case <-gate:
		case <-c.closed:
			return 0, net.ErrClosed
		}
	}
	return n, err
}

func (c *peerConn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

// startThree starts a leader and two followers, quorum 2, on roomy shards
// (no append in these tests seals a block), the leader dialing through pc.
// opts adjust each node's config.
func startThree(t *testing.T, pc *peerConns, opts ...func(*Config)) (addrs []string, nodes [3]*Node) {
	t.Helper()
	addrs = freeAddrs(t, 3)
	for i := range nodes {
		devs, nvrams := roomyShard()
		var peers []string
		for j, a := range addrs {
			if j != i {
				peers = append(peers, a)
			}
		}
		ln := listen(t, addrs[i])
		cfg := Config{NodeID: addrs[i], Peers: peers, Quorum: 2, Devices: devs, NVRAMs: nvrams,
			Opts: core.Options{BlockSize: 4096}, Create: i == 0, Dial: pc.dial, Logf: t.Logf}
		for _, opt := range opts {
			opt(&cfg)
		}
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Start(i == 0); err != nil {
			t.Fatal(err)
		}
		go n.Serve(ln)
		t.Cleanup(n.Kill)
		nodes[i] = n
	}
	return addrs, nodes
}

// roles returns the addresses of the leader's quorum follower and its
// trailing one, once both are caught up with the stream head and exactly
// one is in the quorum set.
func roles(leader *Node) (quorum, trailing string, ok bool) {
	st := leader.Status()
	if len(st.Peers) != 2 {
		return "", "", false
	}
	for _, p := range st.Peers {
		if !p.Alive || p.Acked != st.StreamPos {
			return "", "", false
		}
		if p.Quorum {
			quorum = p.Addr
		} else {
			trailing = p.Addr
		}
	}
	return quorum, trailing, quorum != "" && trailing != ""
}

// TestQuorumFollowerCarriesTheForce: with quorum 2 of 3, each gated force
// costs the quorum follower one socket write, and the trailing follower at
// most one per flush period; after the last force both still converge on
// the stream head, the quorum follower with no further socket write and
// the trailing one with at most one.
//
// During the loop the leader hears none of the trailing follower's acks,
// so every force commits on the quorum follower's, and the roles cannot
// swap. Heard, a flush of the trailing follower could ack a force while
// the quorum sender is descheduled, and the sender would then rightly
// write that force's frames together with the next force's. A loop in
// which the quorum follower's count is off while some force took longer
// than a flush period measured the host, not the stream: a tail held that
// long is rightly flushed without its ReplAck. Such a loop is run again,
// up to five times.
func TestQuorumFollowerCarriesTheForce(t *testing.T) {
	pc := newPeerConns()
	addrs, nodes := startThree(t, pc)
	leader := nodes[0]
	ctx := context.Background()
	c := testClient(t, 51, addrs[:1], nil)
	id, err := c.CreateLog(ctx, "/thrifty", 0o644, "test")
	if err != nil {
		t.Fatal(err)
	}
	follower := map[string]*Node{addrs[1]: nodes[1], addrs[2]: nodes[2]}

	const forces = 40
	for attempt := 1; ; attempt++ {
		var qa, ta string
		waitFor(t, "both followers caught up, one in the quorum set", 10*time.Second, func() bool {
			var ok bool
			qa, ta, ok = roles(leader)
			return ok
		})
		q0, t0 := pc.count(qa), pc.count(ta)
		pc.holdAcks(ta)
		swapped, slowest := false, time.Duration(0)
		start := time.Now()
		for i := 0; i < forces; i++ {
			begin := time.Now()
			if _, err := c.Append(ctx, id, []byte(fmt.Sprintf("force %d.%02d", attempt, i)), client.AppendOptions{Forced: true}); err != nil {
				t.Fatalf("append %d: %v", i, err)
			}
			slowest = max(slowest, time.Since(begin))
			swapped = swapped || !peerQuorum(leader.Status().Peers, qa)
		}
		pc.passAcks(ta)
		qEnd := pc.count(qa)
		tHanded := handedTo(leader, ta)
		qw, tw := qEnd-q0, pc.count(ta)-t0
		elapsed := time.Since(start)
		head := leader.stream.Pos()
		t.Logf("%d forces in %v (slowest %v): quorum follower %d writes, trailing %d", forces, elapsed, slowest, qw, tw)
		if !swapped && qw != forces && slowest > heldFlushAfter && attempt < 5 {
			t.Logf("attempt %d disturbed (a force took over a flush period); again", attempt)
			continue
		}

		if swapped {
			t.Fatalf("the quorum set changed during the loop: %+v", leader.Status().Peers)
		}
		if qw != forces {
			t.Errorf("the quorum follower got %d socket writes for %d gated forces, want one each", qw, forces)
		}
		periods := int64(elapsed / heldFlushAfter)
		if tw > periods+1 {
			t.Errorf("the trailing follower got %d socket writes in %v (%d flush periods), want at most %d",
				tw, elapsed, periods, periods+1)
		}

		// Settling is counted in socket writes and stream positions, units
		// the stream controls: the quorum follower was handed and sent every
		// frame with its force; the trailing one, once it has applied what
		// the stream had handed its sender by the last force, is handed what
		// it still holds as one batch at the next expiry. The deadlines only
		// stop a hang.
		settle(t, "the trailing follower to apply what its sender was handed", func() bool {
			return follower[ta].Applied() >= tHanded
		})
		tEnd := pc.count(ta)
		settle(t, "both followers to apply the stream head", func() bool {
			return follower[qa].Applied() >= head && follower[ta].Applied() >= head
		})
		if n := pc.count(qa) - qEnd; n != 0 {
			t.Errorf("the quorum follower got %d socket writes after the last force, want none", n)
		}
		if n := pc.count(ta) - tEnd; n > 1 {
			t.Errorf("the trailing follower got %d socket writes for what it still held after the last force, want at most one", n)
		}
		return
	}
}

// handedTo returns the last stream position the leader's stream has handed
// to addr's sender.
func handedTo(leader *Node, addr string) uint64 {
	st := leader.stream
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, sub := range st.subs {
		if sub.p.addr == addr {
			return sub.next - 1
		}
	}
	return 0
}

// settle waits until cond holds and fails the test after 10 s. It polls at
// a tenth of a flush period, not at waitFor's 20 ms, so that what the
// trailing follower still holds after the last force is usually counted
// after it, not absorbed before the count is taken.
func settle(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("after 10s still waiting for %s", what)
		}
		time.Sleep(heldFlushAfter / 10)
	}
}

func peerQuorum(peers []PeerStatus, addr string) bool {
	for _, p := range peers {
		if p.Addr == addr {
			return p.Quorum
		}
	}
	return false
}

// expiries returns how often the stream's flush timer has expired.
func expiries(st *stream) uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.expiries
}

// TestStalledQuorumFollowerIsReplaced: a quorum follower whose connection
// stops carrying frames, without closing, trades places with the trailing
// follower within a few flush periods — counted in the stream timer's
// expiries, which stop while the host deschedules the leader, where wall
// time runs on; no force waits out the quorum timeout meanwhile, and
// promoting the follower that applied the most loses no acked entry.
func TestStalledQuorumFollowerIsReplaced(t *testing.T) {
	pc := newPeerConns()
	addrs, nodes := startThree(t, pc)
	leader := nodes[0]
	ctx := context.Background()
	c := testClient(t, 52, addrs[:1], nil)
	id, err := c.CreateLog(ctx, "/stalled", 0o644, "test")
	if err != nil {
		t.Fatal(err)
	}
	var qa, ta string
	waitFor(t, "both followers caught up, one in the quorum set", 10*time.Second, func() bool {
		var ok bool
		qa, ta, ok = roles(leader)
		return ok
	})
	t.Cleanup(func() { pc.release(qa) })

	var acked []string
	appendOne := func() {
		t.Helper()
		payload := fmt.Sprintf("entry %03d", len(acked))
		if _, err := c.Append(ctx, id, []byte(payload), client.AppendOptions{Forced: true}); err != nil {
			t.Fatalf("append %d: %v", len(acked), err)
		}
		acked = append(acked, payload)
	}
	for i := 0; i < 10; i++ {
		appendOne()
	}

	pc.stall(qa)
	stalled, start := expiries(leader.stream), time.Now()
	var periods uint64
	swapped := false
	for i := 0; i < 400 && !swapped; i++ {
		appendOne()
		if st := leader.Status(); peerQuorum(st.Peers, ta) && !peerQuorum(st.Peers, qa) {
			swapped, periods = true, expiries(leader.stream)-stalled
		}
	}
	if !swapped {
		t.Fatalf("the roles did not swap within %d forces (%v) of the stall: %+v",
			len(acked), time.Since(start), leader.Status().Peers)
	}
	// The check counts staleExpiries in a row once a period has passed with
	// the frame handed over; the few more are the trailing follower's ack
	// on its way, and the force whose commit showed the swap.
	if limit := uint64(staleExpiries + 4); periods > limit {
		t.Errorf("the roles swapped %d flush periods after the stall, want at most %d", periods, limit)
	}
	// In its new role the former trailing follower carries each force.
	for i := 0; i < 20; i++ {
		appendOne()
	}
	if n := leader.Status().QuorumTimeouts; n != 0 {
		t.Fatalf("%d forces waited out the quorum timeout", n)
	}
	t.Logf("swapped %d flush periods (%v) after the stall; %d entries acked", periods, time.Since(start), len(acked))

	// Promote the follower that applied the most: it holds every acked entry.
	leader.Kill()
	promoted := nodes[1]
	if nodes[2].Applied() > nodes[1].Applied() {
		promoted = nodes[2]
	}
	if promoted.cfg.NodeID != ta {
		t.Fatalf("the stalled follower %s applied more (%d) than the live one", promoted.cfg.NodeID, promoted.Applied())
	}
	if _, err := promoted.promoteExcept(nil); err != nil {
		t.Fatalf("promote: %v", err)
	}
	reader := testClient(t, 53, []string{ta}, nil)
	cur, err := reader.OpenCursor(ctx, "/stalled")
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	for i, want := range acked {
		e, err := cur.Next(ctx)
		if err != nil {
			t.Fatalf("acked entry %d (%q) lost after promotion: %v", i, want, err)
		}
		if string(e.Data) != want {
			t.Fatalf("entry %d = %q, want %q", i, e.Data, want)
		}
	}
}
