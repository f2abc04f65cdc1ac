package cluster

// Tests for the unforced append on a cluster leader: its success returns
// without a quorum round, its dedup record rides the stream with the next
// eager frame, and only a block it sealed makes it wait for the quorum.

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"clio/internal/server"
	"clio/internal/wire"
)

// rawReply is one answer read off a rawSession.
type rawReply struct {
	status  byte
	payload []byte
	err     error
}

// rawSession speaks the client protocol on one connection with sequence
// numbers of the test's choosing, so a request can be replayed exactly.
type rawSession struct{ conn net.Conn }

func dialRaw(t *testing.T, addr string, session uint64) *rawSession {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	rs := &rawSession{conn: conn}
	if r := rs.call(t, server.OpHello, 0, wire.Hello{Session: session}.Encode(nil)); r.status != server.StatusOK {
		t.Fatalf("hello: status %d (%s)", r.status, respError(r.payload))
	}
	return rs
}

// send writes one request and returns the channel its answer arrives on.
func (rs *rawSession) send(t *testing.T, op byte, seq uint64, payload []byte) <-chan rawReply {
	t.Helper()
	if err := server.WriteFrame(rs.conn, op, seq, 0, payload); err != nil {
		t.Fatal(err)
	}
	ch := make(chan rawReply, 1)
	go func() {
		status, _, _, payload, err := server.ReadFrame(rs.conn)
		ch <- rawReply{status, payload, err}
	}()
	return ch
}

// await takes the answer off ch; the deadline only stops a hang.
func await(t *testing.T, what string, ch <-chan rawReply) rawReply {
	t.Helper()
	select {
	case r := <-ch:
		if r.err != nil {
			t.Fatalf("%s: %v", what, r.err)
		}
		return r
	case <-time.After(30 * time.Second):
		t.Fatalf("%s: no answer after 30s", what)
		return rawReply{}
	}
}

func (rs *rawSession) call(t *testing.T, op byte, seq uint64, payload []byte) rawReply {
	t.Helper()
	return await(t, fmt.Sprintf("op %d seq %d", op, seq), rs.send(t, op, seq, payload))
}

// createLog creates path under seq and returns its id.
func (rs *rawSession) createLog(t *testing.T, seq uint64, path string) uint64 {
	t.Helper()
	p := server.PutString(nil, path)
	p = wire.PutUint16(p, 0o644)
	r := rs.call(t, server.OpCreate, seq, server.PutString(p, "test"))
	if r.status != server.StatusOK {
		t.Fatalf("create %s: status %d (%s)", path, r.status, respError(r.payload))
	}
	id, _, _ := wire.Uvarint(r.payload)
	return id
}

func appendReq(id uint64, data string, forced bool) []byte {
	p := wire.PutUvarint(nil, id)
	var flags byte
	if forced {
		flags = server.AppendForced
	}
	return server.PutBytes(append(p, flags), []byte(data))
}

// sessionSeqs reports the max seq of session id in a session table and
// the seqs its window holds.
func sessionSeqs(ss *server.Sessions, id uint64) (maxSeq uint64, seqs map[uint64]bool) {
	seqs = make(map[uint64]bool)
	for _, st := range ss.Export(0) {
		if st.ID == id {
			for _, r := range st.Resps {
				seqs[r.Seq] = true
			}
			return st.MaxSeq, seqs
		}
	}
	return 0, seqs
}

// replicatedSessions is a follower's replicated session table; leaderSessions
// a leader's own.
func replicatedSessions(n *Node) *server.Sessions {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.fol.sessions
}

func leaderSessions(n *Node) *server.Sessions {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.srv.Sessions
}

// waitRoles waits until both followers are caught up and one is in the
// quorum set: before that the pre-gate refuses writes.
func waitRoles(t *testing.T, leader *Node) {
	t.Helper()
	waitFor(t, "both followers caught up, one in the quorum set", 10*time.Second, func() bool {
		_, _, ok := roles(leader)
		return ok
	})
}

// watch subscribes a watcher to n's stream, as a sender does before its
// catch-up but never marked caught up: it trails and never joins the
// quorum set, so it changes no commit, and it is handed every frame
// emitted after the call, within two flush periods of its emit.
func watch(t *testing.T, n *Node) *subscriber {
	sub, _ := n.stream.subscribe(newPeer("watcher"))
	t.Cleanup(func() { n.stream.unsubscribe(sub) })
	return sub
}

// awaitFrame takes batches off the watcher w until one holds a frame that
// match accepts, and returns that frame. The deadline only stops a hang.
func awaitFrame(t *testing.T, w *subscriber, what string, match func(frame) bool) frame {
	t.Helper()
	deadline := time.After(30 * time.Second)
	for {
		select {
		case batch, ok := <-w.ch:
			if !ok {
				t.Fatalf("waiting for %s: the watcher was dropped", what)
			}
			for _, f := range batch {
				if match(f) {
					return f
				}
			}
		case <-deadline:
			t.Fatalf("after 30s still waiting for %s", what)
		}
	}
}

// isAck matches the ReplAck frame of session's seq.
func isAck(session, seq uint64) func(frame) bool {
	return func(f frame) bool {
		if f.op != wire.OpReplAck {
			return false
		}
		a, err := wire.DecodeReplAck(f.payload)
		return err == nil && a.Session == session && a.Seq == seq
	}
}

// catchUpSessions runs n's catch-up for a new follower whose stream
// subscription starts above base, over a pipe, and returns the seqs of the
// session table it is sent, by session.
func catchUpSessions(t *testing.T, n *Node, base uint64) map[uint64]map[uint64]bool {
	t.Helper()
	n.mu.Lock()
	srv := n.srv
	n.mu.Unlock()
	ours, theirs := net.Pipe()
	defer ours.Close()
	defer theirs.Close()
	done := make(chan error, 1)
	go func() { done <- n.catchUp(server.NewFrameConn(ours), newPeer("catch-up"), srv, nil, base) }()
	got := make(map[uint64]map[uint64]bool)
	for {
		op, seq, _, payload, err := server.ReadFrame(theirs)
		if err != nil {
			t.Fatalf("reading the catch-up: %v", err)
		}
		switch op {
		case wire.OpReplSessions:
			rs, err := wire.DecodeReplSessions(payload)
			if err != nil {
				t.Fatal(err)
			}
			for _, st := range rs.Sessions {
				got[st.ID] = make(map[uint64]bool)
				for _, r := range st.Resps {
					got[st.ID][r.Seq] = true
				}
			}
		case wire.OpReplBase:
			if seq != base {
				t.Fatalf("the catch-up ended at base %d, want %d", seq, base)
			}
			if err := <-done; err != nil {
				t.Fatalf("catch-up: %v", err)
			}
			return got
		}
	}
}

// stallFollowers stops the leader's writes to both followers until the
// returned release; the connections stay open, so the pre-gate still
// counts the followers live.
func stallFollowers(t *testing.T, pc *peerConns, addrs []string) (release func()) {
	for _, a := range addrs[1:] {
		pc.stall(a)
	}
	release = func() {
		for _, a := range addrs[1:] {
			pc.release(a)
		}
	}
	t.Cleanup(release)
	return release
}

// TestUnforcedAppendSkipsQuorum: with both followers stalled, unforced
// appends that stay inside one block are acked, while a forced append
// waits for the release; afterwards both followers' session tables hold
// every seq, the unforced appends' ones included.
func TestUnforcedAppendSkipsQuorum(t *testing.T) {
	pc := newPeerConns()
	addrs, nodes := startThree(t, pc)
	leader := nodes[0]
	const session = 61
	waitRoles(t, leader)
	rs := dialRaw(t, addrs[0], session)
	id := rs.createLog(t, 1, "/unforced")
	devPos := leader.stream.devicePos()

	release := stallFollowers(t, pc, addrs)
	const k = 20
	seq := uint64(1)
	for i := 0; i < k; i++ {
		seq++
		if r := rs.call(t, server.OpAppend, seq, appendReq(id, fmt.Sprintf("unforced %02d", i), false)); r.status != server.StatusOK {
			t.Fatalf("unforced append %d with the followers stalled: status %d (%s)", i, r.status, respError(r.payload))
		}
	}
	if leader.stream.devicePos() != devPos {
		t.Fatal("test premise: an unforced append wrote a device block")
	}

	seq++
	w := watch(t, leader)
	forced := rs.send(t, server.OpAppend, seq, appendReq(id, "forced", true))
	awaitFrame(t, w, "the forced append's ReplAck", isAck(session, seq))
	select {
	case r := <-forced:
		t.Fatalf("the forced append was answered (status %d) with both followers stalled", r.status)
	default:
	}
	release()
	if r := await(t, "forced append", forced); r.status != server.StatusOK {
		t.Fatalf("forced append after the release: status %d (%s)", r.status, respError(r.payload))
	}

	head := leader.stream.Pos()
	for _, f := range nodes[1:] {
		pc.until(t, "the followers to apply the stream head", func() bool { return f.Applied() >= head })
		maxSeq, seqs := sessionSeqs(replicatedSessions(f), session)
		if maxSeq != seq {
			t.Errorf("follower %s: max seq %d, want %d", f.cfg.NodeID, maxSeq, seq)
		}
		for s := uint64(1); s <= seq; s++ {
			if !seqs[s] {
				t.Errorf("follower %s: session table lacks seq %d", f.cfg.NodeID, s)
			}
		}
	}
}

// TestUnforcedSealWaitsForQuorum: the unforced append that seals a block
// is not answered until a quorum holds the block; with both followers
// stalled it waits for the release, and past the ack timeout it fails and
// is recorded nowhere.
func TestUnforcedSealWaitsForQuorum(t *testing.T) {
	pc := newPeerConns()
	const ackTimeout = 2 * time.Second
	addrs, nodes := startThree(t, pc, func(c *Config) { c.AckTimeout = ackTimeout })
	leader := nodes[0]
	const session = 62
	waitRoles(t, leader)
	rs := dialRaw(t, addrs[0], session)
	id := rs.createLog(t, 1, "/sealing")
	caughtUp := func() {
		head := leader.stream.Pos()
		pc.until(t, "the followers to apply the stream head", func() bool {
			return nodes[1].Applied() >= head && nodes[2].Applied() >= head
		})
	}
	caughtUp()
	entry := strings.Repeat("s", 1000) // four to a 4 KiB block
	w := watch(t, leader)

	// appendUntilSeal sends unforced appends, each answered before the next,
	// until one seals a block: the watcher is handed that one's device
	// frame, and no answer may come with both followers stalled. It returns
	// that append's seq and answer channel.
	seq := uint64(1)
	appendUntilSeal := func() (uint64, <-chan rawReply) {
		t.Helper()
		deadline := time.After(30 * time.Second)
		for i := 0; i < 10; i++ {
			seq++
			devPos := leader.stream.devicePos()
			ch := rs.send(t, server.OpAppend, seq, appendReq(id, entry, false))
			for answered := false; !answered; {
				select {
				case r := <-ch:
					if leader.stream.devicePos() > devPos {
						t.Fatalf("seq %d sealed a block and was answered (status %d) with both followers stalled", seq, r.status)
					}
					if r.err != nil || r.status != server.StatusOK {
						t.Fatalf("unforced append seq %d inside a block: status %d err %v (%s)", seq, r.status, r.err, respError(r.payload))
					}
					answered = true
				case batch, ok := <-w.ch:
					if !ok {
						t.Fatal("the watcher was dropped")
					}
					for _, f := range batch {
						if f.pos > devPos && (f.op == wire.OpReplWrite || f.op == wire.OpReplInvalidate) {
							return seq, ch // emitted before the answer: the answer waits on it
						}
					}
				case <-deadline:
					t.Fatalf("after 30s seq %d has neither an answer nor a device frame", seq)
				}
			}
		}
		t.Fatal("ten 1000-byte appends sealed no 4 KiB block")
		return 0, nil
	}

	release := stallFollowers(t, pc, addrs)
	_, ch := appendUntilSeal()
	release()
	if r := await(t, "the sealing append", ch); r.status != server.StatusOK {
		t.Fatalf("the sealing append after the release: status %d (%s)", r.status, respError(r.payload))
	}
	caughtUp()

	stallFollowers(t, pc, addrs)
	failed, ch := appendUntilSeal()
	r := await(t, "the sealing append", ch)
	if r.status != server.StatusErr || !strings.Contains(respError(r.payload), "quorum") {
		t.Fatalf("the sealing append past the ack timeout: status %d (%s), want a quorum failure", r.status, respError(r.payload))
	}
	if maxSeq, seqs := sessionSeqs(leaderSessions(leader), session); maxSeq >= failed || seqs[failed] {
		t.Fatalf("the failed seq %d was recorded on the leader (max seq %d)", failed, maxSeq)
	}
	release()
	caughtUp()
	for _, f := range nodes[1:] {
		if maxSeq, seqs := sessionSeqs(replicatedSessions(f), session); maxSeq >= failed || seqs[failed] {
			t.Errorf("follower %s recorded the failed seq %d (max seq %d)", f.cfg.NodeID, failed, maxSeq)
		}
	}
}

// TestUnforcedAppendsFailOverOnce: k unforced appends and then a forced one
// are all read back once from the follower promoted after the leader's
// kill, and a replay of each is answered from the replicated session table
// without writing again.
func TestUnforcedAppendsFailOverOnce(t *testing.T) {
	pc := newPeerConns()
	addrs, nodes := startThree(t, pc)
	leader := nodes[0]
	const session = 63
	waitRoles(t, leader)
	rs := dialRaw(t, addrs[0], session)
	id := rs.createLog(t, 1, "/failover")

	const k = 12
	var reqs, answers, want [][]byte
	for i := 0; i <= k; i++ {
		data := fmt.Sprintf("entry %02d", i)
		req := appendReq(id, data, i == k)
		r := rs.call(t, server.OpAppend, uint64(i+2), req)
		if r.status != server.StatusOK {
			t.Fatalf("append %d: status %d (%s)", i, r.status, respError(r.payload))
		}
		reqs, answers, want = append(reqs, req), append(answers, r.payload), append(want, []byte(data))
	}

	leader.Kill()
	promoted := nodes[1]
	if nodes[2].Applied() > promoted.Applied() {
		promoted = nodes[2]
	}
	if _, err := promoted.promoteExcept(nil); err != nil {
		t.Fatalf("promote: %v", err)
	}
	readBack := func(when string) {
		t.Helper()
		c := testClient(t, 64, []string{promoted.cfg.NodeID}, nil)
		ctx := context.Background()
		cur, err := c.OpenCursor(ctx, "/failover")
		if err != nil {
			t.Fatal(err)
		}
		defer cur.Close()
		var got [][]byte
		for {
			e, err := cur.Next(ctx)
			if err != nil {
				break
			}
			got = append(got, e.Data)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d entries %q, want %q", when, len(got), got, want)
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("%s: entry %d = %q, want %q", when, i, got[i], want[i])
			}
		}
	}
	readBack("after the promotion")

	replay := dialRaw(t, promoted.cfg.NodeID, session)
	for i, req := range reqs {
		r := replay.call(t, server.OpAppend, uint64(i+2), req)
		if r.status != server.StatusOK || !bytes.Equal(r.payload, answers[i]) {
			t.Fatalf("replay of append %d: status %d payload %x (%s), want OK %x", i, r.status, r.payload, respError(r.payload), answers[i])
		}
	}
	readBack("after the replays")
}

// TestCatchUpSendsGatedAckOnlyAtOrBelowBase: a forced append held in the
// gate, both followers stalled, is not in the session table sent to a new
// follower whose base lies below its ReplAck: that follower gets the
// ReplAck as a stream frame, after the frames it depends on, and told of
// the answer earlier it could be promoted holding the record but not the
// entry. A follower whose base covers the ReplAck is handed no frame for
// it, so its catch-up carries the record.
func TestCatchUpSendsGatedAckOnlyAtOrBelowBase(t *testing.T) {
	pc := newPeerConns()
	addrs, nodes := startThree(t, pc)
	leader := nodes[0]
	const session = 65
	waitRoles(t, leader)
	rs := dialRaw(t, addrs[0], session)
	id := rs.createLog(t, 1, "/catchup")
	release := stallFollowers(t, pc, addrs)

	w := watch(t, leader)
	sub, below := leader.stream.subscribe(newPeer("below")) // as a new follower's sender does
	t.Cleanup(func() { leader.stream.unsubscribe(sub) })
	forced := rs.send(t, server.OpAppend, 2, appendReq(id, "held", true))
	ack := awaitFrame(t, w, "the forced append's ReplAck", isAck(session, 2))
	if ack.pos <= below {
		t.Fatalf("test premise: the ReplAck at %d is not above the base %d", ack.pos, below)
	}
	if got := catchUpSessions(t, leader, below)[session]; !got[1] || got[2] {
		t.Errorf("catch-up at base %d, ReplAck at %d: sent seqs %v, want 1 and not 2", below, ack.pos, got)
	}
	if got := catchUpSessions(t, leader, ack.pos)[session]; !got[1] || !got[2] {
		t.Errorf("catch-up at base %d, the ReplAck's: sent seqs %v, want 1 and 2", ack.pos, got)
	}
	select {
	case r := <-forced:
		t.Fatalf("the forced append was answered (status %d) with both followers stalled", r.status)
	default:
	}
	release()
	if r := await(t, "forced append", forced); r.status != server.StatusOK {
		t.Fatalf("forced append after the release: status %d (%s)", r.status, respError(r.payload))
	}
}
