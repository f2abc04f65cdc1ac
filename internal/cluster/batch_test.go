package cluster

// Tests for the batched replication stream: a forced tail rides with the
// ReplAck that needs it (one socket write per quorum follower per gated
// force, one cumulative ack back; a trailing follower gets a batch per
// flush period, see quorumset_test.go), without reordering, without a held
// frame ever being stranded or delivered below a subscriber's base, and
// with the follower acking only what it applied on the connection it
// answers on. The two
// compatibility tests speak the parent commit's side of the wire by hand:
// frames and acks are byte-for-byte what they were, only their grouping into
// socket writes changed.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clio/internal/client"
	"clio/internal/core"
	"clio/internal/logapi"
	"clio/internal/server"
	"clio/internal/wire"
	"clio/internal/wodev"
)

// drain empties a subscriber's queue into one flat frame list.
func drain(sub *subscriber) []frame {
	var out []frame
	for {
		select {
		case b, ok := <-sub.ch:
			if !ok {
				return out
			}
			out = append(out, b...)
		default:
			return out
		}
	}
}

// manualStream is a stream whose timer never fires: the test drives every
// expiry by hand, so no delivery depends on how fast it runs.
func manualStream(queue, quorum int) *stream {
	st := newStream(queue, quorum)
	st.timer = time.AfterFunc(time.Hour, func() {})
	st.timer.Stop()
	return st
}

// readySub subscribes a caught-up subscriber, as a sender does after its
// catch-up: it joins the quorum set if there is room.
func readySub(st *stream, addr string) *subscriber {
	sub, _ := st.subscribe(newPeer(addr))
	st.ready(sub)
	return sub
}

// TestStreamDeliversInEmitOrder: held and eager frames from four writers
// reach a quorum subscriber and a trailing one in position order — within a
// batch and across batches — so a ReplTail is never delivered after an
// eager frame that was emitted after it.
func TestStreamDeliversInEmitOrder(t *testing.T) {
	const writers, each = 4, 500
	st := manualStream(writers*each+1, 1)
	sub, base := st.subscribe(newPeer("q"))
	if base != 0 {
		t.Fatalf("fresh stream base = %d", base)
	}
	st.ready(sub)
	trailing := readySub(st, "t")
	if !sub.quorum || trailing.quorum {
		t.Fatal("test premise: the first ready subscriber fills the quorum set of one")
	}
	var ops sync.Map // pos -> op, as the emitters were told
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				op, lazy := byte(wire.OpReplAck), false
				if (i+w)%3 != 0 {
					op, lazy = wire.OpReplTail, true
				}
				ops.Store(st.emit(op, nil, lazy), op)
			}
		}(w)
	}
	wg.Wait()
	st.flush()
	st.expire() // the trailing subscriber's frames: the first expiry notes them,
	st.expire() // the second finds them held a period and delivers
	for name, s := range map[string]*subscriber{"quorum": sub, "trailing": trailing} {
		got := drain(s)
		if len(got) != writers*each {
			t.Fatalf("%s: delivered %d frames, emitted %d", name, len(got), writers*each)
		}
		for i, f := range got {
			if f.pos != uint64(i+1) {
				t.Fatalf("%s: frame %d has position %d: delivery order is not emit order", name, i, f.pos)
			}
			if want, _ := ops.Load(f.pos); want != f.op {
				t.Fatalf("%s: position %d delivered as op 0x%x, emitted as 0x%x", name, f.pos, f.op, want)
			}
		}
	}
}

// TestStreamHeldFrame: a lazy frame is not delivered on its own, rides out
// with the next eager one as a single batch, and when nothing follows is
// flushed by the timer.
func TestStreamHeldFrame(t *testing.T) {
	st := newStream(16, 1)
	sub := readySub(st, "q")

	st.emit(wire.OpReplTail, nil, true)
	if len(sub.ch) != 0 {
		t.Fatal("a lazy frame was delivered at once")
	}
	st.emit(wire.OpReplAck, nil, false)
	select {
	case b := <-sub.ch:
		if len(b) != 2 || b[0].pos != 1 || b[0].op != wire.OpReplTail || b[1].pos != 2 || b[1].op != wire.OpReplAck {
			t.Fatalf("batch = %+v, want the tail then the ack", b)
		}
	default:
		t.Fatal("the eager frame did not deliver the batch synchronously")
	}

	// Nothing behind it: the timer delivers it, once.
	start := time.Now()
	st.emit(wire.OpReplTail, nil, true)
	select {
	case b := <-sub.ch:
		if len(b) != 1 || b[0].pos != 3 {
			t.Fatalf("timer batch = %+v", b)
		}
		if d := time.Since(start); d < heldFlushAfter/2 {
			t.Errorf("held frame delivered after %v, before the timer", d)
		}
	case <-time.After(2 * time.Second):
		t.Fatalf("held frame not delivered within %v of the %v bound", 2*time.Second, heldFlushAfter)
	}
	time.Sleep(3 * heldFlushAfter)
	if len(sub.ch) != 0 {
		t.Fatal("the timer delivered again with nothing held")
	}

	// flush is what the gate's no-ack paths use.
	st.emit(wire.OpReplTail, nil, true)
	st.flush()
	if b := drain(sub); len(b) != 1 || b[0].pos != 4 {
		t.Fatalf("flushed %+v, want position 4", b)
	}

	// The timer stays off the force path: an expiry with nothing held lets
	// it lapse, a lazy emit while it is pending does not touch it, and the
	// expiry that first finds a frame held only notes it — a tail is split
	// from its ack only after it waited a whole period. Driven by hand, once
	// the real timer has lapsed.
	armed := func() bool {
		st.mu.Lock()
		defer st.mu.Unlock()
		return st.armed
	}
	for deadline := time.Now().Add(2 * time.Second); armed(); time.Sleep(heldFlushAfter) {
		if time.Now().After(deadline) {
			t.Fatal("the timer never lapsed with nothing held")
		}
	}
	st.mu.Lock()
	st.armed = true // as if pending since before the next frame
	st.mu.Unlock()
	st.emit(wire.OpReplTail, nil, true)
	st.expire()
	if len(sub.ch) != 0 {
		t.Fatal("an expiry flushed a frame it had not seen held a period ago")
	}
	st.expire()
	if b := drain(sub); len(b) != 1 || b[0].pos != 5 {
		t.Fatalf("second expiry flushed %+v, want position 5", b)
	}
	if armed() {
		t.Fatal("the timer stayed armed after flushing")
	}
}

// TestStreamSubscribeWhileHeld: a subscriber's base counts held frames, and
// it never receives one of them — its catch-up reads state that already
// includes them — whether it joins the quorum set or trails.
func TestStreamSubscribeWhileHeld(t *testing.T) {
	for _, quorum := range []int{2, 1} {
		st := manualStream(16, quorum)
		early := readySub(st, "early")
		st.emit(wire.OpReplTail, nil, true)
		st.emit(wire.OpReplTail, nil, true)
		late, base := st.subscribe(newPeer("late"))
		if base != 2 {
			t.Fatalf("quorum %d: base = %d, want 2 (the held frames' positions are taken)", quorum, base)
		}
		st.ready(late)
		if late.quorum != (quorum == 2) {
			t.Fatalf("quorum set of %d: late subscriber in it = %v", quorum, late.quorum)
		}
		st.emit(wire.OpReplAck, nil, false)
		if !late.quorum {
			st.expire() // a trailing subscriber is fed by the timer: two
			st.expire() // expiries find its frame held a whole period
		}
		if got := drain(early); len(got) != 3 {
			t.Fatalf("quorum %d: early subscriber got %d frames, want 3", quorum, len(got))
		}
		got := drain(late)
		if len(got) != 1 || got[0].pos != 3 {
			t.Fatalf("quorum %d: late subscriber got %+v, want only position 3", quorum, got)
		}
	}
	// A batch wholly at or below the base delivers nothing, not an empty batch.
	st2 := manualStream(16, 1)
	st2.emit(wire.OpReplTail, nil, true)
	late2 := readySub(st2, "late")
	st2.flush()
	st2.expire()
	st2.expire()
	if len(late2.ch) != 0 {
		t.Fatal("a subscriber received a batch of frames below its base")
	}
}

// TestStreamCatchingUpNeverInQuorum: a subscriber still catching up is
// never in the quorum set, however much room it has; it trails until ready,
// and then joins at once.
func TestStreamCatchingUpNeverInQuorum(t *testing.T) {
	st := manualStream(16, 2)
	p := newPeer("catching-up")
	sub, _ := st.subscribe(p)
	other := readySub(st, "caught-up") // the set is refilled: a vacancy stays
	st.emit(wire.OpReplTail, nil, true)
	st.emit(wire.OpReplAck, nil, false)
	if sub.quorum || p.quorum.Load() {
		t.Fatal("a subscriber still catching up is in the quorum set")
	}
	if !other.quorum {
		t.Fatal("test premise: the caught-up subscriber is not in the quorum set")
	}
	if len(sub.ch) != 0 {
		t.Fatal("an eager frame reached a subscriber still catching up at once")
	}
	st.ready(sub)
	if !sub.quorum || !p.quorum.Load() {
		t.Fatal("a caught-up subscriber did not join a quorum set with room")
	}
	if got := drain(sub); len(got) != 2 || got[0].pos != 1 || got[1].pos != 2 {
		t.Fatalf("on joining, the subscriber got %+v, want its held frames 1 and 2", got)
	}
	// A vacancy left by an unsubscribe, and the expiry's refill, pass over
	// a subscriber still catching up too.
	late, _ := st.subscribe(newPeer("late"))
	st.unsubscribe(other)
	st.emit(wire.OpReplAck, nil, false)
	st.expire()
	st.expire()
	if late.quorum || late.p.quorum.Load() {
		t.Fatal("a vacancy went to a subscriber still catching up")
	}
}

// TestStreamSwapsStalledQuorumSub: at an expiry, a quorum subscriber whose
// follower has not acked a frame handed over before the previous expiry
// trades places with a trailing one whose follower has; not while the
// trailing follower is no further along.
func TestStreamSwapsStalledQuorumSub(t *testing.T) {
	st := manualStream(16, 1)
	q, tr := readySub(st, "q"), readySub(st, "t")
	st.emit(wire.OpReplAck, nil, false) // q is handed position 1 at once
	st.expire()                         // tr is handed it; q's mark is 1
	st.expire()
	if !q.quorum || tr.quorum {
		t.Fatal("the roles swapped while neither follower had acked anything")
	}
	tr.p.acked.Store(1)
	st.expire()
	if q.quorum || !tr.quorum || q.p.quorum.Load() || !tr.p.quorum.Load() {
		t.Fatal("a quorum follower that left position 1 unacked for a period kept its role from one that acked it")
	}
	st.emit(wire.OpReplAck, nil, false)
	if got := drain(tr); len(got) != 2 || got[1].pos != 2 {
		t.Fatalf("after the swap the new quorum subscriber got %+v, want position 2 at once", got)
	}
}

// TestStreamKeepsQuorumSubThroughOneStalePeriod: a quorum follower that is
// behind at one expiry, and acks before the next, keeps its role — a
// follower descheduled for a period is not a stalled one. Behind at two
// expiries in a row, it trades places with the trailing follower that has
// acked further.
func TestStreamKeepsQuorumSubThroughOneStalePeriod(t *testing.T) {
	st := manualStream(16, 1)
	q, tr := readySub(st, "q"), readySub(st, "t")
	st.emit(wire.OpReplAck, nil, false) // q is handed position 1 at once
	st.expire()                         // tr is handed it; q's mark is 1
	tr.p.acked.Store(1)
	st.expire() // q is behind once
	if !q.quorum || tr.quorum {
		t.Fatal("the roles swapped after one stale expiry")
	}
	q.p.acked.Store(1)
	st.emit(wire.OpReplAck, nil, false)
	st.expire() // q is current: its count clears; its mark is 2
	tr.p.acked.Store(2)
	st.expire() // behind once again, not twice in a row
	if !q.quorum || tr.quorum {
		t.Fatal("the roles swapped though the quorum follower acked between two stale expiries")
	}
	st.expire() // behind at two expiries in a row
	if q.quorum || !tr.quorum || q.p.quorum.Load() || !tr.p.quorum.Load() {
		t.Fatal("a quorum follower behind at two expiries in a row kept its role from one that acked")
	}
}

// TestStreamDroppedQuorumSubReplaced: a quorum subscriber that is dropped —
// here for a full queue — passes its role at once to a caught-up trailing
// one, whose held frames go out first, in order, with the frame whose
// delivery dropped the other; one still catching up is passed over.
func TestStreamDroppedQuorumSubReplaced(t *testing.T) {
	st := manualStream(2, 1)
	q := readySub(st, "q")
	t1 := readySub(st, "t1")
	t2, _ := st.subscribe(newPeer("t2")) // catching up
	if !q.quorum || t1.quorum || t2.quorum {
		t.Fatal("test premise: q is the quorum set")
	}
	st.emit(wire.OpReplTail, nil, true)
	st.emit(wire.OpReplAck, nil, false) // q: batch 1
	st.emit(wire.OpReplAck, nil, false) // q: batch 2, its queue is full
	if len(t1.ch) != 0 {
		t.Fatal("test premise: the trailing subscriber was fed")
	}
	st.emit(wire.OpReplAck, nil, false) // q's queue overflows: dropped
	if _, ok := <-q.ch; !ok {
		t.Fatal("the dropped subscriber's queued batches were lost")
	}
	drain(q)
	if _, ok := <-q.ch; ok {
		t.Fatal("the overflowing subscriber was not dropped")
	}
	if q.p.quorum.Load() {
		t.Fatal("a dropped subscriber's peer still reports the quorum role")
	}
	if !t1.quorum || !t1.p.quorum.Load() || t2.quorum {
		t.Fatal("the quorum role did not pass to the caught-up trailing subscriber")
	}
	got := drain(t1)
	if len(got) != 4 {
		t.Fatalf("the replacement got %+v, want its 4 held frames at once", got)
	}
	for i, f := range got {
		if f.pos != uint64(i+1) {
			t.Fatalf("the replacement's frame %d has position %d", i, f.pos)
		}
	}
	st.emit(wire.OpReplAck, nil, false)
	if got := drain(t1); len(got) != 1 || got[0].pos != 5 {
		t.Fatalf("after taking the role the replacement got %+v, want position 5 at once", got)
	}
}

// TestGateFlushesOnError: the gate's early return for a failed mutation
// emits no ReplAck, so it must flush — the mutation may have staged a tail
// before it failed.
func TestGateFlushesOnError(t *testing.T) {
	devs, nvrams := freshShards(1)
	n, err := New(Config{NodeID: "gate-test", Peers: []string{"peer"}, Quorum: 2, Devices: devs, NVRAMs: nvrams})
	if err != nil {
		t.Fatal(err)
	}
	sub := readySub(n.stream, "peer") // in the quorum set: the gate's flush reaches it
	tap := &tapNVRAM{NVRAM: nvrams[0], n: n}
	if err := tap.Store(3, []byte("staged before the failure")); err != nil {
		t.Fatal(err)
	}
	if len(sub.ch) != 0 {
		t.Fatal("test premise: the tail frame was not held")
	}
	if status, _, record := n.gate(server.OpAppend, 1, 1, server.StatusErr, nil, true, nil); status != server.StatusErr || !record {
		t.Fatalf("gate rewrote a failed mutation: status %d record %v", status, record)
	}
	if got := drain(sub); len(got) != 1 || got[0].op != wire.OpReplTail {
		t.Fatalf("after the gate's error return the subscriber holds %+v, want the tail frame", got)
	}
}

// TestGateHoldsUnforcedAck: an unforced append's success returns without a
// quorum round, its ReplAck held for the next eager frame; once a device
// frame is out, the next one waits for that frame to commit, and on a
// timeout it fails unrecorded and emits no ReplAck. Each ReplAck emitted
// reports its position to the server.
func TestGateHoldsUnforcedAck(t *testing.T) {
	devs, nvrams := freshShards(1)
	n, err := New(Config{NodeID: "gate-test", Peers: []string{"peer"}, Quorum: 2, Devices: devs, NVRAMs: nvrams,
		AckTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	n.role = wire.RoleLeader
	n.stream = manualStream(16, 1)
	sub := readySub(n.stream, "peer")
	ok := wire.PutUint64(nil, 7)
	var noted []uint64
	emitted := func(pos uint64) { noted = append(noted, pos) }

	if status, _, record := n.gate(server.OpAppend, 1, 1, server.StatusOK, ok, false, emitted); status != server.StatusOK || !record {
		t.Fatalf("unforced append with nothing on the device: status %d record %v", status, record)
	}
	if len(sub.ch) != 0 {
		t.Fatal("the unforced append's ReplAck was delivered, not held")
	}
	n.emitFrame(wire.OpReplWrite, (&wire.ReplWrite{Data: make([]byte, testBlockSize)}).Encode(nil))
	if got := drain(sub); len(got) != 2 || got[0].op != wire.OpReplAck || got[1].op != wire.OpReplWrite {
		t.Fatalf("the next eager frame delivered %+v, want the held ReplAck and itself", got)
	}

	status, _, record := n.gate(server.OpAppend, 1, 2, server.StatusOK, ok, false, emitted)
	if status != server.StatusErr || record {
		t.Fatalf("unforced append with an uncommitted device frame: status %d record %v, want a failure, unrecorded", status, record)
	}
	if pos := n.stream.Pos(); pos != 2 {
		t.Fatalf("the failed gate emitted a frame: stream at %d, want 2", pos)
	}

	n.advanceCommitted(2)
	if status, _, record := n.gate(server.OpAppend, 1, 3, server.StatusOK, ok, false, emitted); status != server.StatusOK || !record {
		t.Fatalf("unforced append after the device frame committed: status %d record %v", status, record)
	}
	if pos := n.stream.Pos(); pos != 3 || len(sub.ch) != 0 {
		t.Fatalf("stream at %d with %d batches queued, want the ReplAck held at 3", pos, len(sub.ch))
	}
	if len(noted) != 2 || noted[0] != 1 || noted[1] != 3 {
		t.Fatalf("the gate reported ReplAck positions %v, want [1 3]", noted)
	}
}

// countConn counts the socket operations of one replication connection.
type countConn struct {
	net.Conn
	writes, reads *atomic.Int64
}

func (c *countConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(b)
}

func (c *countConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if n > 0 {
		c.reads.Add(1)
	}
	return n, err
}

// roomyShard is one shard whose blocks are large enough that the test's
// appends never seal one: every force is exactly a tail store and an ack.
func roomyShard() ([][]wodev.Device, []core.NVRAM) {
	const bs = 4096
	return [][]wodev.Device{{wodev.NewMem(wodev.MemOptions{BlockSize: bs, Capacity: 64})}},
		[]core.NVRAM{core.NewMemNVRAM()}
}

// TestOneWritePerGatedForce counts on the leader's own connection to the one
// follower its quorum waits on: over a loop of gated forces the follower
// gets exactly one socket write per force, two frames each, and answers each
// write with one cumulative ack.
func TestOneWritePerGatedForce(t *testing.T) {
	addrs := freeAddrs(t, 2)
	var sockWrites, sockReads atomic.Int64
	dial := func(ctx context.Context, addr string) (net.Conn, error) {
		var d net.Dialer
		c, err := d.DialContext(ctx, "tcp", addr)
		if err != nil {
			return nil, err
		}
		return &countConn{Conn: c, writes: &sockWrites, reads: &sockReads}, nil
	}
	var nodes [2]*Node
	for i := range nodes {
		devs, nvrams := roomyShard()
		ln := listen(t, addrs[i])
		n, err := New(Config{NodeID: addrs[i], Peers: []string{addrs[1-i]}, Quorum: 2, Devices: devs, NVRAMs: nvrams,
			Opts: core.Options{BlockSize: 4096}, Create: i == 0, Dial: dial, Logf: t.Logf})
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
	leader := nodes[0]
	settled := func() bool {
		st := leader.Status()
		return len(st.Peers) == 1 && st.Peers[0].Alive && st.Peers[0].Acked == st.StreamPos
	}
	ctx := context.Background()
	c := testClient(t, 41, addrs[:1], nil)
	id, err := c.CreateLog(ctx, "/counted", 0o644, "test")
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the follower caught up", 10*time.Second, settled)

	const forces = 40
	sealed := leader.Store().Stats().BlocksSealed
	frames0, writes0, acks0 := leader.stream.Pos(), leader.streamWrites.Load(), leader.acksReceived.Load()
	sw0, sr0 := sockWrites.Load(), sockReads.Load()
	for i := 0; i < forces; i++ {
		if _, err := c.Append(ctx, id, []byte(fmt.Sprintf("force %02d", i)), client.AppendOptions{Forced: true}); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	waitFor(t, "the follower caught up", 10*time.Second, settled)
	if got := leader.Store().Stats().BlocksSealed; got != sealed {
		t.Fatalf("test premise: %d blocks sealed during the loop, want none", got-sealed)
	}

	frames := int64(leader.stream.Pos() - frames0)
	if frames != 2*forces {
		t.Fatalf("%d frames for %d forces, want a tail and an ack each", frames, forces)
	}
	writes, reads := sockWrites.Load()-sw0, sockReads.Load()-sr0
	if writes != forces {
		t.Errorf("%d socket writes for %d gated forces, want one each (frames ÷ writes = %.2f, want 2)",
			writes, forces, float64(frames)/float64(writes))
	}
	// One ack per write. A read may carry two acks or (the kernel splitting
	// a write on the follower's side) an ack may come per half, but never
	// one per frame.
	if reads < 1 || reads > forces+forces/4 {
		t.Errorf("%d ack reads for %d writes", reads, forces)
	}
	if got := leader.streamWrites.Load() - writes0; got != writes {
		t.Errorf("stream_writes counted %d, the connection saw %d", got, writes)
	}
	if got := leader.acksReceived.Load() - acks0; got < forces || got > forces+forces/4 {
		t.Errorf("acks_received counted %d for %d writes", got, forces)
	}
}

// countNVRAM counts the Loads of the NVRAM it wraps.
type countNVRAM struct {
	core.NVRAM
	loads atomic.Int64
}

func (c *countNVRAM) Load() (int, []byte, error) {
	c.loads.Add(1)
	return c.NVRAM.Load()
}

// TestFollowerStatusReadsNoSidecar: a follower's Status — every /statusz and
// OpReplStatus — takes each shard's staged-tail end from what apply kept,
// not from its NVRAM, and still reports the leader's ShardEnds.
func TestFollowerStatusReadsNoSidecar(t *testing.T) {
	addrs := freeAddrs(t, 2)
	var nodes [2]*Node
	folDevs, folNVs := roomyShard()
	folNV := &countNVRAM{NVRAM: folNVs[0]}
	for i := range nodes {
		devs, nvrams := roomyShard()
		if i == 1 {
			devs, nvrams = folDevs, []core.NVRAM{folNV}
		}
		ln := listen(t, addrs[i])
		n, err := New(Config{NodeID: addrs[i], Peers: []string{addrs[1-i]}, Quorum: 2, Devices: devs, NVRAMs: nvrams,
			Opts: core.Options{BlockSize: 4096}, Create: i == 0, Logf: t.Logf})
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
	leader, follower := nodes[0], nodes[1]
	ctx := context.Background()
	c := testClient(t, 43, addrs[:1], nil)
	id, err := c.CreateLog(ctx, "/tail", 0o644, "test")
	if err != nil {
		t.Fatal(err)
	}
	// check waits for the follower to converge, then makes 100 Status calls.
	check := func(phase string) {
		t.Helper()
		waitFor(t, "the follower's shard ends reach the leader's", 10*time.Second, func() bool {
			return shardEndsEqual(follower.Status().ShardEnds, leader.Status().ShardEnds)
		})
		want := leader.Status().ShardEnds
		folNV.loads.Store(0)
		for i := 0; i < 100; i++ {
			if got := follower.Status().ShardEnds; !shardEndsEqual(got, want) {
				t.Fatalf("%s: follower ShardEnds %v, leader %v", phase, got, want)
			}
		}
		if n := folNV.loads.Load(); n != 0 {
			t.Fatalf("%s: 100 follower Status calls loaded the sidecar %d times, want 0", phase, n)
		}
	}
	for i := 0; i < 10; i++ {
		if _, err := c.Append(ctx, id, []byte(fmt.Sprintf("staged %02d", i)), client.AppendOptions{Forced: true}); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	check("tail only")
	if folDevs[0][0].Written() > 1 {
		t.Fatal("test premise: a block was sealed, so the tail end was not what Status reported")
	}
	// Entries larger than a block seal blocks and restage the tail behind them.
	big := bytes.Repeat([]byte("s"), 3000)
	for i := 0; i < 4; i++ {
		if _, err := c.Append(ctx, id, big, client.AppendOptions{Forced: true}); err != nil {
			t.Fatalf("big append %d: %v", i, err)
		}
	}
	check("after seals")
	if folDevs[0][0].Written() <= 1 {
		t.Fatal("test premise: no block was sealed")
	}
}

// sameReplicaState compares a follower's devices and NVRAM tails with the
// leader's, byte for byte.
func sameReplicaState(leader, follower *testNode) error {
	for s := range leader.devs {
		ld, fd := leader.devs[s][0], follower.devs[s][0]
		if ld.Written() != fd.Written() {
			return fmt.Errorf("shard %d: %d blocks, leader has %d", s, fd.Written(), ld.Written())
		}
		lb, fb := make([]byte, ld.BlockSize()), make([]byte, fd.BlockSize())
		for i := 0; i < ld.Written(); i++ {
			lerr, ferr := ld.ReadBlock(i, lb), fd.ReadBlock(i, fb)
			if (lerr == nil) != (ferr == nil) || (lerr == nil && !bytes.Equal(lb, fb)) {
				return fmt.Errorf("shard %d block %d differs (%v / %v)", s, i, lerr, ferr)
			}
		}
		lg, limg, _ := leader.nvrams[s].Load()
		fg, fimg, _ := follower.nvrams[s].Load()
		if lg != fg || !bytes.Equal(limg, fimg) {
			return fmt.Errorf("shard %d staged tail differs: global %d (%d bytes), leader %d (%d bytes)",
				s, fg, len(fimg), lg, len(limg))
		}
	}
	return nil
}

// TestHeldTailReachesFollowerWithoutGate: a forced append made on the
// leader's store directly passes no quorum gate, so no ReplAck follows its
// tail frame; the timer must still carry it out, and Applied() converge on
// the stream head.
func TestHeldTailReachesFollowerWithoutGate(t *testing.T) {
	addrs := freeAddrs(t, 2)
	ldevs, lnv := freshShards(1)
	fdevs, fnv := freshShards(1)
	leader := startNode(t, addrs[0], addrs[1:], ldevs, lnv, true, true, nil)
	fol := startNode(t, addrs[1], addrs[:1], fdevs, fnv, false, false, nil)
	ctx := context.Background()
	c := testClient(t, 42, addrs[:1], nil)
	if _, err := c.CreateLog(ctx, "/ungated", 0o644, "test"); err != nil {
		t.Fatal(err)
	}
	store := leader.node.Store()
	id, err := store.Resolve(ctx, "/ungated")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Append(ctx, id, []byte("forced, but not through the server"), logapi.AppendOptions{Forced: true}); err != nil {
		t.Fatal(err)
	}
	head := leader.node.stream.Pos()
	waitFor(t, "the held tail to reach the follower", 2*time.Second, func() bool {
		return fol.node.Applied() == head
	})
	if err := sameReplicaState(leader, fol); err != nil {
		t.Fatal(err)
	}
}

// TestLateJoinerConverges: a follower that subscribes while writers keep
// tail frames held (four of them, so some frame is usually in the held
// state) receives nothing at or below its base and still ends byte-identical
// to the leader — devices and staged tails.
func TestLateJoinerConverges(t *testing.T) {
	addrs := freeAddrs(t, 3)
	var tns [3]*testNode
	for i := 0; i < 2; i++ {
		devs, nvrams := freshShards(2)
		var peers []string
		for j, a := range addrs {
			if j != i {
				peers = append(peers, a)
			}
		}
		tns[i] = startNode(t, addrs[i], peers, devs, nvrams, i == 0, i == 0, nil)
	}
	ctx := context.Background()
	admin := testClient(t, 43, addrs[:1], nil)
	var ids [2]client.ID
	for i, p := range []string{"/late-a", "/late-b"} {
		id, err := admin.CreateLog(ctx, p, 0o644, "test")
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	var acked atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := testClient(t, uint64(430+g), addrs[:1], nil)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := c.Append(ctx, ids[g%2], []byte(fmt.Sprintf("late g%d-%04d", g, i)), client.AppendOptions{Forced: true}); err != nil {
					t.Errorf("append: %v", err)
					return
				}
				acked.Add(1)
			}
		}(g)
	}
	waitFor(t, "writers under way", 10*time.Second, func() bool { return acked.Load() > 40 })
	devs, nvrams := freshShards(2)
	tns[2] = startNode(t, addrs[2], addrs[:2], devs, nvrams, false, false, nil)
	joined := acked.Load()
	waitFor(t, "the joiner to be streamed to under load", 10*time.Second, func() bool {
		for _, p := range tns[0].node.Status().Peers {
			if p.Addr == addrs[2] && p.Alive && acked.Load() > joined+40 {
				return true
			}
		}
		return false
	})
	close(stop)
	wg.Wait()
	head := tns[0].node.stream.Pos()
	waitFor(t, "followers to apply the whole stream", 10*time.Second, func() bool {
		return tns[1].node.Applied() == head && tns[2].node.Applied() == head
	})
	for f := 1; f <= 2; f++ {
		if err := sameReplicaState(tns[0], tns[f]); err != nil {
			t.Errorf("follower %d: %v", f, err)
		}
	}
}

// writeFrames sends the given frames in ONE socket write, as the batching
// sender does.
func writeFrames(t *testing.T, conn net.Conn, frames ...frame) {
	t.Helper()
	var buf bytes.Buffer
	for _, f := range frames {
		if err := server.WriteFrame(&buf, f.op, f.pos, 0, f.payload); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := conn.Write(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
}

// readAck reads one response frame, or reports that none came in time.
func readAck(t *testing.T, conn net.Conn, wait time.Duration) (status byte, seq uint64, payload []byte, ok bool) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(wait))
	defer conn.SetReadDeadline(time.Time{})
	status, seq, _, payload, err := server.ReadFrame(conn)
	if err != nil {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			return 0, 0, nil, false
		}
		t.Fatalf("read ack: %v", err)
	}
	return status, seq, payload, true
}

func tailPayload(global uint64, fill byte) []byte {
	return (&wire.ReplTail{Shard: 0, Global: global, Image: bytes.Repeat([]byte{fill}, testBlockSize)}).Encode(nil)
}

func basePayload(pos uint64) []byte { return (&wire.ReplBase{Pos: pos}).Encode(nil) }

// TestAckIsPerConnection: the cumulative ack is the highest position applied
// on the answering connection since its handshake. After a change of leader
// the new stream restarts low; a follower echoing the position it reached on
// the old leader's stream (fol.applied, before it was reset per handshake)
// would let the new leader commit frames this node never applied. Catch-up
// frames carry position 0 and must never produce a positive ack.
func TestAckIsPerConnection(t *testing.T) {
	addrs := freeAddrs(t, 2)
	devs, nvrams := freshShards(1)
	f := startNode(t, addrs[0], addrs[1:], devs, nvrams, false, false, nil)

	connA, hr := dialRepl(t, f.addr, 1, "leader-a", 1)
	if !hr.Accept {
		t.Fatalf("term-1 handshake refused: %s", hr.Reason)
	}
	if _, seq, _ := roundTrip(t, connA, wire.OpReplBase, 100, basePayload(100)); seq != 100 {
		t.Fatalf("old stream base ack = %d, want 100", seq)
	}
	if _, seq, _ := roundTrip(t, connA, wire.OpReplWrite, 101, replWritePayload(0, 0xA1)); seq != 101 {
		t.Fatalf("old stream ack = %d, want 101", seq)
	}
	if got := f.node.Applied(); got != 101 {
		t.Fatalf("Applied() on the old stream = %d, want 101", got)
	}

	connB, hr := dialRepl(t, f.addr, 2, "leader-b", 1)
	if !hr.Accept {
		t.Fatalf("term-2 handshake refused: %s", hr.Reason)
	}
	if got := f.node.Applied(); got != 0 {
		t.Fatalf("Applied() = %d after the new leader's handshake, want 0: it counts the old stream", got)
	}
	// Catch-up: the block the follower already holds, and the tail state.
	writeFrames(t, connB,
		frame{op: wire.OpReplWrite, payload: replWritePayload(0, 0xA1)},
		frame{op: wire.OpReplTailClear, payload: (&wire.ReplTailClear{}).Encode(nil)})
	if _, seq, _, ok := readAck(t, connB, 150*time.Millisecond); ok && seq > 0 {
		t.Fatalf("catch-up frames were acked at position %d", seq)
	}
	// The new stream's base is far below the old stream's head.
	writeFrames(t, connB, frame{op: wire.OpReplBase, pos: 2, payload: basePayload(2)})
	status, seq, payload, ok := readAck(t, connB, 2*time.Second)
	if !ok || status != server.StatusOK {
		t.Fatalf("no ack for the base (status %d, %s)", status, respError(payload))
	}
	if seq != 2 {
		t.Fatalf("first positive ack on the new stream = %d, want 2 (the new stream's head)", seq)
	}
	// A batch is answered once, with its last position.
	writeFrames(t, connB,
		frame{op: wire.OpReplTail, pos: 3, payload: tailPayload(0, 0xB3)},
		frame{op: wire.OpReplAck, pos: 4, payload: (&wire.ReplAck{Session: 9, Seq: 1, Status: server.StatusOK}).Encode(nil)})
	if _, seq, _, ok := readAck(t, connB, 2*time.Second); !ok || seq != 4 {
		t.Fatalf("batch ack = %d (%v), want one ack at 4", seq, ok)
	}
	if _, seq, _, ok := readAck(t, connB, 100*time.Millisecond); ok {
		t.Fatalf("a second ack (%d) for one batch", seq)
	}
	if got := f.node.Applied(); got != 4 {
		t.Fatalf("Applied() = %d, want 4", got)
	}
}

// TestApplyErrorMidBuffer: per-frame checks are not batched away. A frame
// that cannot be applied in the middle of a buffer is answered at once with
// the error, the stream ends, and nothing behind it is applied or acked.
func TestApplyErrorMidBuffer(t *testing.T) {
	addrs := freeAddrs(t, 2)
	devs, nvrams := freshShards(1)
	f := startNode(t, addrs[0], addrs[1:], devs, nvrams, false, false, nil)
	conn, hr := dialRepl(t, f.addr, 1, "leader-a", 1)
	if !hr.Accept {
		t.Fatalf("handshake refused: %s", hr.Reason)
	}
	if _, seq, _ := roundTrip(t, conn, wire.OpReplBase, 1, basePayload(1)); seq != 1 {
		t.Fatalf("base ack = %d", seq)
	}
	writeFrames(t, conn,
		frame{op: wire.OpReplWrite, pos: 2, payload: replWritePayload(0, 0x01)},
		frame{op: wire.OpReplWrite, pos: 3, payload: replWritePayload(5, 0x05)}, // gap: blocks 1-4 missing
		frame{op: wire.OpReplWrite, pos: 4, payload: replWritePayload(1, 0x02)})
	sawErr := false
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for {
		status, seq, _, payload, err := server.ReadFrame(conn)
		if err != nil {
			if !errors.Is(err, io.EOF) {
				t.Fatalf("stream did not end cleanly: %v", err)
			}
			break
		}
		switch {
		case status == server.StatusOK && seq >= 3:
			t.Fatalf("position %d acked at or behind the failed frame", seq)
		case status == server.StatusErr:
			if seq != 3 || !strings.Contains(respError(payload), "gap") {
				t.Fatalf("error answer at %d: %s", seq, respError(payload))
			}
			sawErr = true
		}
	}
	if !sawErr {
		t.Fatal("the stream ended without the apply error")
	}
	if w := devs[0][0].Written(); w != 1 {
		t.Fatalf("%d blocks written: the frame behind the failed one was applied", w)
	}
	if got := f.node.Applied(); got != 2 {
		t.Fatalf("Applied() = %d, want 2", got)
	}
}

// parentFollower speaks the parent commit's follower side by hand: it reads
// one frame at a time from the socket and answers EVERY frame with its own
// response echoing the frame's position (0 for catch-up frames), applying
// what it is sent to a device and an NVRAM of its own.
type parentFollower struct {
	t   *testing.T
	dev *wodev.MemDevice
	nv  *core.MemNVRAM

	mu        sync.Mutex
	positions []uint64 // of live frames, in arrival order
}

func (pf *parentFollower) serve(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		go func() {
			defer conn.Close()
			for {
				op, seq, trace, payload, err := server.ReadFrame(conn)
				if err != nil {
					return
				}
				var resp []byte
				if op == wire.OpReplHello {
					h, _ := wire.DecodeReplHello(payload)
					hr := &wire.ReplHelloResp{Accept: true, Term: h.Term}
					hr.Devs = append(hr.Devs, wire.ReplDevState{Written: uint64(pf.dev.Written())})
					if w := pf.dev.Written(); w > 0 {
						hr.Devs[0].LastCRC = blockCRC(pf.dev, w-1)
					}
					resp = hr.Encode(nil)
				} else if err := pf.apply(op, seq, payload); err != nil {
					pf.t.Errorf("parent follower: frame 0x%x at %d: %v", op, seq, err)
					return
				}
				if server.WriteFrame(conn, server.StatusOK, seq, trace, resp) != nil {
					return
				}
			}
		}()
	}
}

func (pf *parentFollower) apply(op byte, seq uint64, payload []byte) error {
	v, err := wire.DecodeRepl(op, payload)
	if err != nil {
		return err
	}
	pf.mu.Lock()
	defer pf.mu.Unlock()
	if seq > 0 {
		pf.positions = append(pf.positions, seq)
	}
	switch m := v.(type) {
	case *wire.ReplWrite:
		if int(m.Index) == pf.dev.Written() {
			_, err = pf.dev.AppendBlock(m.Data)
		} else if int(m.Index) > pf.dev.Written() {
			err = fmt.Errorf("gap at block %d", m.Index)
		}
	case *wire.ReplInvalidate:
		err = pf.dev.Invalidate(int(m.Index))
	case *wire.ReplTail:
		err = pf.nv.Store(int(m.Global), m.Image)
	case *wire.ReplTailClear:
		err = pf.nv.Clear()
	}
	return err
}

// TestParentFollowerUnderNewLeader: the wire format is unchanged, so a
// follower of the parent commit — one response per frame — still gives the
// new leader its quorum and converges on its state.
func TestParentFollowerUnderNewLeader(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	pf := &parentFollower{t: t,
		dev: wodev.NewMem(wodev.MemOptions{BlockSize: testBlockSize, Capacity: 4096}), nv: core.NewMemNVRAM()}
	go pf.serve(ln)

	addrs := freeAddrs(t, 1)
	ldevs, lnv := freshShards(1)
	leader := startNode(t, addrs[0], []string{ln.Addr().String()}, ldevs, lnv, true, true, nil)
	ctx := context.Background()
	c := testClient(t, 44, addrs, nil)
	id, err := c.CreateLog(ctx, "/compat", 0o644, "test")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ { // enough to seal blocks: writes, clears, tails, acks
		if _, err := c.Append(ctx, id, []byte(fmt.Sprintf("compat entry %03d", i)), client.AppendOptions{Forced: true}); err != nil {
			t.Fatalf("append %d under a parent-commit follower: %v", i, err)
		}
	}
	head := leader.node.stream.Pos()
	waitFor(t, "the parent follower to ack the whole stream", 5*time.Second, func() bool {
		st := leader.node.Status()
		return len(st.Peers) == 1 && st.Peers[0].Acked == head
	})
	pf.mu.Lock()
	defer pf.mu.Unlock()
	for i := 1; i < len(pf.positions); i++ {
		if pf.positions[i] < pf.positions[i-1] {
			t.Fatalf("positions out of order at %d: %d after %d", i, pf.positions[i], pf.positions[i-1])
		}
	}
	if err := sameReplicaState(leader, &testNode{
		devs: [][]wodev.Device{{pf.dev}}, nvrams: []core.NVRAM{pf.nv}}); err != nil {
		t.Fatal(err)
	}
}

// TestParentLeaderOverNewFollower: and the reverse — a leader of the parent
// commit writes one frame per socket write and takes whatever acks come as a
// running maximum; the new follower's cumulative acks reach its last
// position and the follower holds exactly what was sent.
func TestParentLeaderOverNewFollower(t *testing.T) {
	addrs := freeAddrs(t, 2)
	devs, nvrams := freshShards(1)
	f := startNode(t, addrs[0], addrs[1:], devs, nvrams, false, false, nil)
	conn, hr := dialRepl(t, f.addr, 1, "parent-leader", 1)
	if !hr.Accept {
		t.Fatalf("handshake refused: %s", hr.Reason)
	}
	var acked atomic.Uint64
	go func() { // the parent's ack reader: unbuffered, CAS-max, zero acks ignored
		for {
			status, seq, _, _, err := server.ReadFrame(conn)
			if err != nil || status != server.StatusOK {
				return
			}
			for cur := acked.Load(); seq > cur && !acked.CompareAndSwap(cur, seq); cur = acked.Load() {
			}
		}
	}()
	send := func(op byte, pos uint64, payload []byte) {
		t.Helper()
		if err := server.WriteFrame(conn, op, pos, 0, payload); err != nil {
			t.Fatal(err)
		}
	}
	// Catch-up (position 0), base, then live frames, one write each.
	send(wire.OpReplWrite, 0, replWritePayload(0, 0x10))
	send(wire.OpReplTailClear, 0, (&wire.ReplTailClear{}).Encode(nil))
	send(wire.OpReplBase, 7, basePayload(7))
	pos := uint64(7)
	for i := 1; i <= 20; i++ {
		pos++
		send(wire.OpReplWrite, pos, replWritePayload(uint64(i), byte(0x10+i)))
		pos++
		send(wire.OpReplTail, pos, tailPayload(uint64(i), byte(0x80+i)))
		pos++
		send(wire.OpReplAck, pos, (&wire.ReplAck{Session: 5, Seq: uint64(i), Status: server.StatusOK}).Encode(nil))
	}
	waitFor(t, "cumulative acks to reach the last position", 5*time.Second, func() bool { return acked.Load() == pos })
	if got := f.node.Applied(); got != pos {
		t.Fatalf("Applied() = %d, want %d", got, pos)
	}
	if w := devs[0][0].Written(); w != 21 {
		t.Fatalf("follower holds %d blocks, want 21", w)
	}
	if g, img, _ := nvrams[0].Load(); g != 20 || !bytes.Equal(img, bytes.Repeat([]byte{0x80 + 20}, testBlockSize)) {
		t.Fatalf("follower's staged tail: global %d, %d bytes", g, len(img))
	}
}

// TestAppliedResetsOnLeaderChange: Applied() is a position on the stream
// being followed. After a failover the new leader's stream restarts at 0, and
// a third node that kept the old leader's (higher) position would make a
// "wait until followers applied the whole stream" return at once.
func TestAppliedResetsOnLeaderChange(t *testing.T) {
	addrs := freeAddrs(t, 3)
	var tns [3]*testNode
	for i := range tns {
		devs, nvrams := freshShards(1)
		var peers []string
		for j, a := range addrs {
			if j != i {
				peers = append(peers, a)
			}
		}
		tns[i] = startNode(t, addrs[i], peers, devs, nvrams, i == 0, i == 0, nil)
	}
	ctx := context.Background()
	c := testClient(t, 45, addrs, nil)
	id, err := c.CreateLog(ctx, "/failover", 0o644, "test")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, err := c.Append(ctx, id, []byte(fmt.Sprintf("before %02d", i)), client.AppendOptions{Forced: true}); err != nil {
			t.Fatal(err)
		}
	}
	oldHead := tns[0].node.stream.Pos()
	waitFor(t, "followers to apply the old stream", 10*time.Second, func() bool {
		return tns[1].node.Applied() == oldHead && tns[2].node.Applied() == oldHead
	})
	tns[0].node.Kill()
	if _, err := tns[1].node.promoteExcept(nil); err != nil {
		t.Fatal(err)
	}
	newLeader, third := tns[1].node, tns[2].node
	waitFor(t, "the third node to follow the new leader", 10*time.Second, func() bool {
		st := third.Status()
		return st.LeaderAddr == addrs[1] && st.Term == 2
	})
	// From here on its applied position is one on the NEW stream. Read it
	// before the head: the head only grows, so applied > head is a real
	// violation, never a sampling artefact.
	check := func() {
		t.Helper()
		if a, head := third.Applied(), newLeader.stream.Pos(); a > head {
			t.Fatalf("third node reports applied %d, the new leader's stream head is %d (the old stream ended at %d)",
				a, head, oldHead)
		}
	}
	check()
	for i := 0; i < 10; i++ {
		if _, err := c.Append(ctx, id, []byte(fmt.Sprintf("after %02d", i)), client.AppendOptions{Forced: true}); err != nil {
			t.Fatal(err)
		}
		check()
	}
	if head := newLeader.stream.Pos(); head >= oldHead {
		t.Fatalf("test premise: new stream head %d did not stay below the old stream's %d", head, oldHead)
	}
	waitFor(t, "the third node to apply the new stream", 10*time.Second, func() bool {
		return third.Applied() == newLeader.stream.Pos()
	})
}

// TestFollowerDedupWindowByteBudget: the session table a follower builds
// from its leader's stream is the server's own, so it honours the server's
// byte budget (one cursor batch, 64 KiB, of retained responses per session)
// on both ways in — live ReplAcks and the window a catch-up installs, whose
// batched-read responses run to that size each — instead of a count bound
// alone.
func TestFollowerDedupWindowByteBudget(t *testing.T) {
	const budget = server.MaxBatchBytes
	fol := newFollowerState(&Node{})
	big := make([]byte, budget/4)
	installed := wire.ReplSession{ID: 7, MaxSeq: 10}
	for seq := uint64(1); seq <= 10; seq++ {
		ack := &wire.ReplAck{Session: 9, Seq: seq, Status: server.StatusOK, Resp: big}
		if err := fol.apply(wire.OpReplAck, ack.Encode(nil)); err != nil {
			t.Fatal(err)
		}
		installed.Resps = append(installed.Resps, wire.ReplResp{Seq: seq, Status: server.StatusOK, Resp: big})
	}
	snap := &wire.ReplSessions{Sessions: []wire.ReplSession{installed}}
	if err := fol.apply(wire.OpReplSessions, snap.Encode(nil)); err != nil {
		t.Fatal(err)
	}
	sessions := fol.sessions.Export(0)
	if len(sessions) != 2 {
		t.Fatalf("follower holds %d sessions, want 2", len(sessions))
	}
	for _, s := range sessions {
		retained := 0
		for _, r := range s.Resps {
			retained += len(r.Resp)
		}
		if s.MaxSeq != 10 || retained > budget || len(s.Resps) != budget/len(big) || s.Resps[len(s.Resps)-1].Seq != 10 {
			t.Errorf("session %d: maxSeq %d, %d responses, %d bytes retained; want maxSeq 10 and the newest %d responses (%d bytes)",
				s.ID, s.MaxSeq, len(s.Resps), retained, budget/len(big), budget)
		}
	}
}
