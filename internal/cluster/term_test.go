package cluster

import (
	"bytes"
	"context"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"clio/internal/client"
	"clio/internal/core"
	"clio/internal/server"
	"clio/internal/wire"
)

// startNodeCfg is startNode for tests that need full Config control
// (TermPath, StreamQueue, ...). NodeID defaults to the listen address.
func startNodeCfg(t *testing.T, cfg Config, leader bool) (*Node, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.NodeID == "" {
		cfg.NodeID = ln.Addr().String()
	}
	n, err := New(cfg)
	if err != nil {
		ln.Close()
		t.Fatalf("new node: %v", err)
	}
	if err := n.Start(leader); err != nil {
		ln.Close()
		t.Fatalf("start: %v", err)
	}
	go n.Serve(ln)
	t.Cleanup(n.Kill)
	return n, ln.Addr().String()
}

// dialRepl opens a connection posing as a leader and performs the
// replication handshake, returning the open connection and the follower's
// (or rival leader's) answer.
func dialRepl(t *testing.T, addr string, term uint64, leaderAddr string, shards int) (net.Conn, *wire.ReplHelloResp) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	h := &wire.ReplHello{Term: term, Epoch: 7, LeaderAddr: leaderAddr,
		Shards: uint32(shards), BlockSize: testBlockSize}
	status, _, payload := roundTrip(t, conn, wire.OpReplHello, 0, h.Encode(nil))
	if status != server.StatusOK {
		t.Fatalf("hello status = %d (%s)", status, respError(payload))
	}
	hr, err := wire.DecodeReplHelloResp(payload)
	if err != nil {
		t.Fatalf("decode hello resp: %v", err)
	}
	return conn, hr
}

func roundTrip(t *testing.T, conn net.Conn, op byte, seq uint64, payload []byte) (byte, uint64, []byte) {
	t.Helper()
	if err := server.WriteFrame(conn, op, seq, 0, payload); err != nil {
		t.Fatalf("write frame 0x%x: %v", op, err)
	}
	status, rseq, _, resp, err := server.ReadFrame(conn)
	if err != nil {
		t.Fatalf("read frame 0x%x response: %v", op, err)
	}
	return status, rseq, resp
}

func replWritePayload(index uint64, fill byte) []byte {
	return (&wire.ReplWrite{Shard: 0, Dev: 0, Index: index,
		Data: bytes.Repeat([]byte{fill}, testBlockSize)}).Encode(nil)
}

// TestStaleLeaderStreamFenced: term arbitration must hold for a stream's
// whole life, not just its handshake. A stale leader whose connection
// survives a newer leader's handshake (asymmetric partition) must have its
// frames refused, or two leaders would interleave writes on the same
// write-once devices.
func TestStaleLeaderStreamFenced(t *testing.T) {
	addrs := freeAddrs(t, 2)
	devs, nvrams := freshShards(1)
	f := startNode(t, addrs[0], []string{addrs[1]}, devs, nvrams, false, false, nil)

	connA, hrA := dialRepl(t, f.addr, 1, "leader-a", 1)
	if !hrA.Accept {
		t.Fatalf("term-1 handshake refused: %s", hrA.Reason)
	}
	status, _, _ := roundTrip(t, connA, wire.OpReplWrite, 1, replWritePayload(0, 0xAA))
	if status != server.StatusOK {
		t.Fatalf("term-1 write before takeover: status %d", status)
	}

	// A new leader takes over at a higher term on a second connection.
	connB, hrB := dialRepl(t, f.addr, 2, "leader-b", 1)
	if !hrB.Accept {
		t.Fatalf("term-2 handshake refused: %s", hrB.Reason)
	}

	// The old leader's established stream is now fenced: its next frame is
	// refused (it would have been applied silently before the fix).
	status, _, payload := roundTrip(t, connA, wire.OpReplWrite, 2, replWritePayload(1, 0xAB))
	if status != server.StatusErr {
		t.Fatalf("stale leader frame status = %d, want StatusErr", status)
	}
	if msg := respError(payload); !strings.Contains(msg, "stale leader stream") {
		t.Fatalf("stale leader frame error = %q, want a stale-stream refusal", msg)
	}

	// The new leader's stream keeps working.
	status, _, payload = roundTrip(t, connB, wire.OpReplWrite, 1, replWritePayload(1, 0xBB))
	if status != server.StatusOK {
		t.Fatalf("term-2 write after takeover: status %d (%s)", status, respError(payload))
	}

	// And the stale leader's re-handshake learns the higher term, so it
	// steps down instead of retrying forever.
	connA2, hrA2 := dialRepl(t, f.addr, 1, "leader-a", 1)
	if hrA2.Accept {
		t.Fatal("stale term-1 re-handshake accepted")
	}
	if hrA2.Term != 2 {
		t.Fatalf("re-handshake reports term %d, want 2", hrA2.Term)
	}
	connA2.Close()
}

// TestSupersededStreamFenced: a reconnect's handshake supersedes the old
// connection even at the same term from the same leader — frames still
// buffered on the old connection must not race the new session's catch-up
// (a stale tail image applying late would regress the staged tail).
func TestSupersededStreamFenced(t *testing.T) {
	addrs := freeAddrs(t, 2)
	devs, nvrams := freshShards(1)
	f := startNode(t, addrs[0], []string{addrs[1]}, devs, nvrams, false, false, nil)

	connA, hrA := dialRepl(t, f.addr, 1, "leader-a", 1)
	if !hrA.Accept {
		t.Fatalf("first handshake refused: %s", hrA.Reason)
	}
	if status, _, payload := roundTrip(t, connA, wire.OpReplWrite, 1, replWritePayload(0, 0xAA)); status != server.StatusOK {
		t.Fatalf("write before reconnect: status %d (%s)", status, respError(payload))
	}

	// The same leader reconnects (fell behind, dropped conn, ...).
	if _, hrB := dialRepl(t, f.addr, 1, "leader-a", 1); !hrB.Accept {
		t.Fatalf("reconnect handshake refused: %s", hrB.Reason)
	}

	// The old connection is fenced the moment the new handshake lands.
	status, _, payload := roundTrip(t, connA, wire.OpReplWrite, 2, replWritePayload(1, 0xAB))
	if status != server.StatusErr {
		t.Fatalf("superseded stream frame status = %d, want StatusErr", status)
	}
	if msg := respError(payload); !strings.Contains(msg, "superseded") {
		t.Fatalf("superseded stream error = %q, want a supersession refusal", msg)
	}
}

// TestDuplicateWriteDivergence: a duplicate below the write point is legal
// (catch-up and live streaming overlap) but must be byte-identical — a
// conflicting image at an already-written index is divergence and must
// break the stream, not be swallowed.
func TestDuplicateWriteDivergence(t *testing.T) {
	addrs := freeAddrs(t, 2)
	devs, nvrams := freshShards(1)
	f := startNode(t, addrs[0], []string{addrs[1]}, devs, nvrams, false, false, nil)

	conn, hr := dialRepl(t, f.addr, 1, "leader-a", 1)
	if !hr.Accept {
		t.Fatalf("handshake refused: %s", hr.Reason)
	}
	for i, fill := range []byte{0x11, 0x22} {
		if status, _, payload := roundTrip(t, conn, wire.OpReplWrite, uint64(i+1), replWritePayload(uint64(i), fill)); status != server.StatusOK {
			t.Fatalf("write %d: status %d (%s)", i, status, respError(payload))
		}
	}

	// Byte-identical duplicate: idempotent, accepted.
	if status, _, payload := roundTrip(t, conn, wire.OpReplWrite, 3, replWritePayload(0, 0x11)); status != server.StatusOK {
		t.Fatalf("identical duplicate: status %d (%s)", status, respError(payload))
	}

	// Conflicting image at the same index: divergence, stream must break.
	status, _, payload := roundTrip(t, conn, wire.OpReplWrite, 4, replWritePayload(0, 0x99))
	if status != server.StatusErr {
		t.Fatalf("conflicting duplicate status = %d, want StatusErr", status)
	}
	if msg := respError(payload); !strings.Contains(msg, "divergent duplicate") {
		t.Fatalf("conflicting duplicate error = %q, want a divergence refusal", msg)
	}
}

// TestTermPersistence: the highest seen term must survive a restart, so a
// rebooted node cannot be talked back into following a stale leader, and a
// node restarted as leader claims a term above everything it has seen.
func TestTermPersistence(t *testing.T) {
	termPath := filepath.Join(t.TempDir(), "term")
	devs, nvrams := freshShards(1)
	peer := deadAddr(t)
	cfg := func() Config {
		return Config{
			Peers:    []string{peer},
			Quorum:   2,
			Devices:  devs,
			NVRAMs:   nvrams,
			Opts:     core.Options{BlockSize: testBlockSize},
			TermPath: termPath,
			Logf:     t.Logf,
		}
	}
	n1, addr1 := startNodeCfg(t, cfg(), false)
	if _, hr := dialRepl(t, addr1, 5, "leader-a", 1); !hr.Accept {
		t.Fatalf("term-5 handshake refused: %s", hr.Reason)
	}
	if got := n1.Term(); got != 5 {
		t.Fatalf("term after handshake = %d, want 5", got)
	}
	n1.Kill()

	// Restarted as follower: the term survives, so a stale leader from
	// before the reboot is still refused.
	n2, addr2 := startNodeCfg(t, cfg(), false)
	if got := n2.Term(); got != 5 {
		t.Fatalf("term after restart = %d, want 5", got)
	}
	if _, hr := dialRepl(t, addr2, 4, "leader-old", 1); hr.Accept {
		t.Fatal("restarted node accepted a stale term-4 leader")
	} else if hr.Term != 5 {
		t.Fatalf("refusal reports term %d, want 5", hr.Term)
	}
	n2.Kill()

	// Restarted as leader (operator action): it must mint a term above
	// everything it has seen, not reuse a stale one.
	fresh, freshNV := freshShards(1)
	lcfg := cfg()
	lcfg.Devices, lcfg.NVRAMs, lcfg.Create = fresh, freshNV, true
	n3, _ := startNodeCfg(t, lcfg, true)
	if got := n3.Term(); got != 6 {
		t.Fatalf("restart-as-leader term = %d, want 6", got)
	}
}

// TestEqualTermRivalRefused: one leader per term. A follower already
// streaming from a leader refuses a different claimant of the same term —
// two concurrent promotions must not interleave two orderings.
func TestEqualTermRivalRefused(t *testing.T) {
	addrs := freeAddrs(t, 2)
	devs, nvrams := freshShards(1)
	f := startNode(t, addrs[0], []string{addrs[1]}, devs, nvrams, false, false, nil)

	if _, hr := dialRepl(t, f.addr, 3, "leader-a", 1); !hr.Accept {
		t.Fatalf("leader-a handshake refused: %s", hr.Reason)
	}
	if _, hr := dialRepl(t, f.addr, 3, "leader-b", 1); hr.Accept {
		t.Fatal("same-term rival leader-b accepted")
	} else if !strings.Contains(hr.Reason, "already following") {
		t.Fatalf("rival refusal reason = %q", hr.Reason)
	}
	// The incumbent reconnecting at the same term is fine...
	if _, hr := dialRepl(t, f.addr, 3, "leader-a", 1); !hr.Accept {
		t.Fatalf("incumbent reconnect refused: %s", hr.Reason)
	}
	// ...and a genuinely higher term always wins.
	if _, hr := dialRepl(t, f.addr, 4, "leader-b", 1); !hr.Accept {
		t.Fatalf("higher-term leader-b refused: %s", hr.Reason)
	}
}

// TestSameTermLeaderArbitration: two leaders at the same term resolve
// deterministically — the greater advertised address keeps leadership, the
// other steps down — instead of refusing each other forever.
func TestSameTermLeaderArbitration(t *testing.T) {
	devs, nvrams := freshShards(1)
	n, addr := startNodeCfg(t, Config{
		Peers:   []string{deadAddr(t)},
		Quorum:  2,
		Devices: devs,
		NVRAMs:  nvrams,
		Opts:    core.Options{BlockSize: testBlockSize},
		Create:  true,
		Logf:    t.Logf,
	}, true)
	if n.Term() != 1 {
		t.Fatalf("fresh leader term = %d, want 1", n.Term())
	}

	// A same-term rival with a lesser address loses: we stay leader.
	// "!" sorts below any digit, so it loses to the 127.0.0.1:* NodeID.
	if _, hr := dialRepl(t, addr, 1, "!lesser-rival", 1); hr.Accept {
		t.Fatal("leader accepted a rival's stream")
	} else if !strings.Contains(hr.Reason, "node is leader") {
		t.Fatalf("lesser rival refusal = %q", hr.Reason)
	}
	if got := n.Status().Role; got != "leader" {
		t.Fatalf("role after lesser rival = %s, want leader", got)
	}

	// A same-term rival with a greater address wins: we step down to it.
	// "~" sorts above any digit, so it beats the 127.0.0.1:* NodeID.
	if _, hr := dialRepl(t, addr, 1, "~greater-rival", 1); hr.Accept {
		t.Fatal("leader accepted a rival's stream")
	} else if !strings.Contains(hr.Reason, "stepping down") {
		t.Fatalf("greater rival refusal = %q", hr.Reason)
	}
	waitFor(t, "arbitration step-down", 10*time.Second, func() bool {
		return n.Status().Role == "follower"
	})
	st := n.Status()
	if st.Term != 1 || st.LeaderAddr != "~greater-rival" {
		t.Fatalf("after step-down: term %d leader %q, want term 1 leader ~greater-rival", st.Term, st.LeaderAddr)
	}
	if st.Demotions != 1 {
		t.Fatalf("demotions = %d, want 1", st.Demotions)
	}
}

// gatedConn pauses writes while the test holds mu, stalling the leader's
// replication sender without killing the connection.
type gatedConn struct {
	net.Conn
	mu *sync.Mutex
}

func (c *gatedConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	//lint:ignore SA2001 the mutex is a pure gate: hold-and-release.
	c.mu.Unlock()
	return c.Conn.Write(b)
}

// TestSlowFollowerStaysAliveThroughCatchup: a follower that falls off the
// stream queue is only slow, not down — the sender must keep it counted
// live (the pre-gate's quorum input) across the reconnect-with-catch-up
// instead of flapping it dead on every drop.
func TestSlowFollowerStaysAliveThroughCatchup(t *testing.T) {
	addrs := freeAddrs(t, 2)
	var pause sync.Mutex
	gatedDial := func(ctx context.Context, addr string) (net.Conn, error) {
		var d net.Dialer
		c, err := d.DialContext(ctx, "tcp", addr)
		if err != nil {
			return nil, err
		}
		return &gatedConn{Conn: c, mu: &pause}, nil
	}

	ldevs, lnv := freshShards(1)
	fdevs, fnv := freshShards(1)
	lln := listen(t, addrs[0])
	leader, err := New(Config{
		NodeID:  lln.Addr().String(),
		Peers:   []string{addrs[1]},
		Quorum:  1, // liveness flag under test, not the ack gate
		Devices: ldevs,
		NVRAMs:  lnv,
		Opts:    core.Options{BlockSize: testBlockSize},
		Create:  true,
		// A tiny queue makes the slow follower fall off the stream quickly.
		StreamQueue: 4,
		Dial:        gatedDial,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := leader.Start(true); err != nil {
		t.Fatal(err)
	}
	go leader.Serve(lln)
	t.Cleanup(leader.Kill)
	fol := startNode(t, addrs[1], []string{addrs[0]}, fdevs, fnv, false, false, nil)

	peerAlive := func() bool {
		for _, p := range leader.Status().Peers {
			return p.Alive
		}
		return false
	}
	catchupBlocks := func() int64 {
		for _, p := range leader.Status().Peers {
			return p.CatchupBlocks
		}
		return 0
	}
	waitFor(t, "follower to come alive", 10*time.Second, func() bool { return peerAlive() })
	baseline := catchupBlocks()

	// Stall the sender and write enough to overflow its 4-frame queue.
	pause.Lock()
	ctx := context.Background()
	c := testClient(t, 31, []string{lln.Addr().String()}, nil)
	id, err := c.CreateLog(ctx, "/slowlog", 0o644, "test")
	if err != nil {
		pause.Unlock()
		t.Fatalf("create: %v", err)
	}
	big := strings.Repeat("z", testBlockSize+16) // > block size: every append seals
	for i := 0; i < 12; i++ {
		if _, err := c.Append(ctx, id, []byte(big), client.AppendOptions{Forced: true}); err != nil {
			pause.Unlock()
			t.Fatalf("append %d: %v", i, err)
		}
		// With quorum 1 the follower trails: the timer hands it one batch
		// per flush period, so each append must outlast two periods to fill
		// a queue slot of its own.
		time.Sleep(3 * heldFlushAfter)
	}
	if !peerAlive() {
		t.Error("peer marked dead while the sender was merely stalled")
	}
	pause.Unlock()

	// The dropped sender restarts with a catch-up; the peer must stay
	// counted live the whole way through.
	waitFor(t, "fell-behind catch-up to run", 10*time.Second, func() bool {
		if !peerAlive() {
			t.Fatal("peer flapped dead during fell-behind catch-up")
		}
		return catchupBlocks() > baseline
	})
	defer func() {
		if t.Failed() {
			t.Logf("leader status: %+v", leader.Status())
			t.Logf("follower status: %+v", fol.node.Status())
		}
	}()
	waitFor(t, "follower to reconverge", 10*time.Second, func() bool {
		if !peerAlive() {
			t.Fatal("peer flapped dead after fell-behind catch-up")
		}
		return shardEndsEqual(leader.Status().ShardEnds, fol.node.Status().ShardEnds)
	})
}
