package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"clio/internal/faults"
	"clio/internal/server"
	"clio/internal/wire"
	"clio/internal/wodev"
)

// maxStreamWrite is where the sender stops gathering queued batches into one
// socket write; a single frame may still exceed it.
const maxStreamWrite = 64 << 10

// sessionChunk bounds how many sessions ride one ReplSessions frame during
// catch-up, keeping frames well under the protocol limit.
const sessionChunk = 64

// errFellBehind marks a subscriber dropped for a full stream queue. It is
// the one stream failure that says nothing about the peer's health — the
// follower is reachable and applying, just slower than the emit rate — so
// the sender reconnects immediately (no backoff) and leaves p.alive set
// while the catch-up ships the missed suffix. Clearing it would make a
// slow follower flap the pre-gate's live-replica count and refuse writes
// cluster-wide even though quorum acks are still arriving.
var errFellBehind = errors.New("cluster: fell behind the stream; restarting with catch-up")

// peer is the leader's view of one follower: its cumulative ack position
// (the quorum input) and liveness (the pre-gate input).
type peer struct {
	addr          string
	acked         atomic.Uint64
	alive         atomic.Bool
	quorum        atomic.Bool // its subscriber is in the stream's quorum set
	catchupBlocks atomic.Int64
	resets        atomic.Int64

	mu       sync.Mutex
	conn     net.Conn
	stopOnce sync.Once
	stopCh   chan struct{}
}

func newPeer(addr string) *peer { return &peer{addr: addr, stopCh: make(chan struct{})} }

func (p *peer) stop() {
	p.stopOnce.Do(func() { close(p.stopCh) })
	p.mu.Lock()
	c := p.conn
	p.conn = nil
	p.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

// setConn registers the live connection so stop can sever it; false means
// the peer was already stopped.
func (p *peer) setConn(c net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	select {
	case <-p.stopCh:
		return false
	default:
	}
	p.conn = c
	return true
}

// runSender owns one follower's replication stream for the node's whole
// leadership: dial, hand-shake, catch up, stream, and on any failure back
// off and start over. The backoff is full-jitter so a cluster-wide blip
// does not resynchronize every sender's retries.
func (n *Node) runSender(p *peer) {
	defer n.wg.Done()
	pol := faults.RetryPolicy{
		MaxAttempts: 1 << 30, // the loop itself decides when to stop
		BaseDelay:   10 * time.Millisecond,
		MaxDelay:    500 * time.Millisecond,
		Multiplier:  2,
		FullJitter:  true,
		Seed:        addrSeed(p.addr),
	}
	attempt := 0
	for {
		select {
		case <-p.stopCh:
			return
		default:
		}
		err := n.streamTo(p)
		if errors.Is(err, errFellBehind) {
			// Only slow, not down: keep the peer counted live and go
			// straight back into a catch-up session. Progress is
			// guaranteed — each round ships the device suffix accumulated
			// since — and a real failure (dial, handshake, conn) on the
			// way back clears alive below.
			n.logf("cluster: replica %s: %v", p.addr, err)
			attempt = 0
			continue
		}
		p.alive.Store(false)
		select {
		case <-p.stopCh:
			return
		default:
		}
		if err == nil {
			return // stopped cleanly mid-stream
		}
		attempt++
		n.logf("cluster: replica %s: %v", p.addr, err)
		select {
		case <-p.stopCh:
			return
		case <-time.After(pol.Backoff(attempt)):
		}
	}
}

// streamTo runs one replication session: handshake (which reports the
// follower's per-device extents), catch-up of the missing suffix plus
// NVRAM tails and the session table, then live frames until something
// breaks.
func (n *Node) streamTo(p *peer) error {
	ctx, cancel := context.WithTimeout(context.Background(), DefaultDialTimeout)
	raw, err := n.dialPeer(ctx, p.addr)
	cancel()
	if err != nil {
		return err
	}
	if !p.setConn(raw) {
		raw.Close()
		return nil
	}
	defer raw.Close()
	// The handshake and then the ack reader read through conn; this
	// goroutine is its only writer.
	conn := server.NewFrameConn(raw)

	n.mu.Lock()
	if n.role != wire.RoleLeader || n.srv == nil {
		n.mu.Unlock()
		return errors.New("no longer leader")
	}
	term, epoch, srv := n.term, n.epoch, n.srv
	devs := n.devs
	n.mu.Unlock()

	hello := &wire.ReplHello{
		Term:       term,
		Epoch:      epoch,
		LeaderAddr: n.cfg.NodeID,
		Shards:     uint32(len(devs)),
		BlockSize:  uint32(devs[0][0].BlockSize()),
	}
	if err := conn.WriteFrame(wire.OpReplHello, 0, 0, hello.Encode(nil)); err != nil {
		return err
	}
	status, _, _, payload, err := conn.ReadFrame()
	if err != nil {
		return err
	}
	if status != server.StatusOK {
		return fmt.Errorf("handshake refused: %s", respError(payload))
	}
	hr, err := wire.DecodeReplHelloResp(payload)
	if err != nil {
		return err
	}
	if !hr.Accept {
		if hr.Term > term {
			// A higher term exists: someone was promoted past us. Stop
			// being leader; the sender dies with the demotion.
			go n.stepDown(hr.Term, "")
			return fmt.Errorf("follower at term %d > ours %d; stepping down", hr.Term, term)
		}
		return fmt.Errorf("follower refused stream: %s", hr.Reason)
	}

	// The ack reader runs for the rest of the session so catch-up writes
	// never deadlock against the follower's buffered responses. Acks are
	// cumulative and a follower sends one per buffer it drained, so one read
	// usually carries one ack covering a whole batch. An ack is read in
	// place, with no allocation.
	errCh := make(chan error, 1)
	ackDone := make(chan struct{})
	go func() {
		defer close(ackDone)
		for {
			st, seq, _, pl, err := conn.ReadFrame()
			if err != nil {
				errCh <- err
				return
			}
			if st != server.StatusOK {
				errCh <- fmt.Errorf("follower error: %s", respError(pl))
				return
			}
			if seq == 0 {
				continue
			}
			for {
				cur := p.acked.Load()
				if seq <= cur || p.acked.CompareAndSwap(cur, seq) {
					break
				}
			}
			n.noteAck()
		}
	}()
	defer func() {
		conn.Close()
		<-ackDone
	}()

	// Subscribe BEFORE snapshotting device extents: anything written after
	// the snapshot is covered twice (suffix copy + stream frame) and the
	// follower's apply is idempotent; subscribing after would leave a gap.
	sub, base := n.stream.subscribe(p)
	defer n.stream.unsubscribe(sub)

	if err := n.catchUp(conn, p, srv, hr.Devs, base); err != nil {
		return fmt.Errorf("catch-up: %w", err)
	}

	// alive is cleared by runSender, not here: a fell-behind restart keeps
	// it set across the reconnect's catch-up. Only now may the subscriber
	// join the quorum set: one still catching up could not ack in time.
	p.alive.Store(true)
	n.stream.ready(sub)

	for {
		select {
		case batch, ok := <-sub.ch:
			if !ok {
				return errFellBehind
			}
			n.streamWrites.Add(1)
			if err := sendBatches(conn, sub.ch, batch); err != nil {
				return err
			}
		case err := <-errCh:
			return err
		case <-p.stopCh:
			return nil
		}
	}
}

// sendBatches writes batch and whatever else is already queued behind it on
// ch (the second writer's ReplAck of a group commit, a seal's block) in one
// socket write, gathering until maxStreamWrite: the follower reads them in
// one buffer and answers once. The frames are appended into conn's write
// buffer, so a write allocates nothing.
func sendBatches(conn *server.FrameConn, ch <-chan []frame, batch []frame) error {
	for batch != nil {
		for _, f := range batch {
			if err := conn.Queue(f.op, f.pos, 0, f.payload); err != nil {
				return err
			}
		}
		batch = nil
		if conn.Queued() < maxStreamWrite {
			select {
			case batch = <-ch: // nil when closed: the next receive reports it
			default:
			}
		}
	}
	return conn.Flush()
}

// catchUp ships everything the follower is missing below the subscription
// base: per-device block suffixes (the checkpoint-bounded "newest state,
// not full history" path — a follower that was briefly down receives only
// what it missed), the current NVRAM tail images, and the session
// duplicate-suppression table. It ends with a ReplBase frame whose ack
// (seq=base) tells the quorum counter the follower is caught up.
func (n *Node) catchUp(conn *server.FrameConn, p *peer, srv *server.Server, theirDevs []wire.ReplDevState, base uint64) error {
	their := make(map[[2]uint32]wire.ReplDevState, len(theirDevs))
	for _, d := range theirDevs {
		their[[2]uint32{d.Shard, d.Dev}] = d
	}
	n.mu.Lock()
	devs := n.devs
	n.mu.Unlock()
	// Catch-up frames are gathered like live ones, a socket write per
	// maxStreamWrite rather than per frame.
	send := func(op byte, seq uint64, payload []byte) error {
		if err := conn.Queue(op, seq, 0, payload); err != nil || conn.Queued() < maxStreamWrite {
			return err
		}
		return conn.Flush()
	}
	var scratch []byte // a block's frame payload, copied out by send
	for si, shardDevs := range devs {
		for di, dev := range shardDevs {
			st := their[[2]uint32{uint32(si), uint32(di)}]
			fw := int(st.Written)
			lw := dev.Written()
			diverged := fw > lw
			if !diverged && fw > 0 && st.LastCRC != blockCRC(dev, fw-1) {
				diverged = true
			}
			if diverged {
				// The follower's blocks are not a prefix of ours (it was a
				// leader whose unreplicated writes survived a crash).
				// Write-once media cannot be rewound in place: order a
				// device reset and restream from block zero.
				p.resets.Add(1)
				n.logf("cluster: replica %s shard %d dev %d diverged (%d blocks vs our %d); resetting",
					p.addr, si, di, fw, lw)
				rst := (&wire.ReplReset{Shard: uint32(si), Dev: uint32(di)}).Encode(nil)
				if err := send(wire.OpReplReset, 0, rst); err != nil {
					return err
				}
				fw = 0
			}
			buf := make([]byte, dev.BlockSize())
			for idx := fw; idx < lw; idx++ {
				err := dev.ReadBlock(idx, buf)
				switch {
				case errors.Is(err, wodev.ErrInvalidated):
					inv := (&wire.ReplInvalidate{Shard: uint32(si), Dev: uint32(di), Index: uint64(idx)}).Encode(nil)
					if err := send(wire.OpReplInvalidate, 0, inv); err != nil {
						return err
					}
				case err != nil:
					return fmt.Errorf("shard %d dev %d block %d: %w", si, di, idx, err)
				default:
					scratch = (&wire.ReplWrite{Shard: uint32(si), Dev: uint32(di), Index: uint64(idx), Data: buf}).Encode(scratch[:0])
					if err := send(wire.OpReplWrite, 0, scratch); err != nil {
						return err
					}
				}
				p.catchupBlocks.Add(1)
			}
		}
	}
	for si, nv := range n.cfg.NVRAMs {
		g, img, err := nv.Load()
		if err != nil {
			return fmt.Errorf("shard %d nvram: %w", si, err)
		}
		var op byte
		var pl []byte
		if len(img) > 0 {
			op = wire.OpReplTail
			pl = (&wire.ReplTail{Shard: uint32(si), Global: uint64(g), Image: img}).Encode(nil)
		} else {
			op = wire.OpReplTailClear
			pl = (&wire.ReplTailClear{Shard: uint32(si)}).Encode(nil)
		}
		if err := send(op, 0, pl); err != nil {
			return err
		}
	}
	// A reply still inside the gate is in the table only if its ReplAck
	// lies at or below base: then no frame for it reaches the follower. One
	// above base must not be: it reaches the follower as its frame, after
	// the frames it depends on.
	states := srv.Sessions.Export(base)
	for len(states) > 0 {
		k := min(len(states), sessionChunk)
		rs := &wire.ReplSessions{Sessions: states[:k]}
		states = states[k:]
		if err := send(wire.OpReplSessions, 0, rs.Encode(nil)); err != nil {
			return err
		}
	}
	if err := send(wire.OpReplBase, base, (&wire.ReplBase{Pos: base}).Encode(nil)); err != nil {
		return err
	}
	return conn.Flush()
}

// addrSeed derives a per-peer jitter seed (FNV-1a) so sender backoffs
// spread without needing a randomness source.
func addrSeed(addr string) int64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(addr); i++ {
		h ^= uint64(addr[i])
		h *= 1099511628211
	}
	return int64(h)
}
