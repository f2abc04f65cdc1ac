package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"clio/internal/core"
	"clio/internal/server"
	"clio/internal/volume"
	"clio/internal/wire"
	"clio/internal/wodev"
)

// folAckEvery is the most frames a follower applies before answering even
// though more are already buffered, so a saturated stream cannot keep the
// quorum waiting on an ack that is always one frame away.
const folAckEvery = 32

// followerState is everything a follower accumulates from the leader's
// stream: device writes land directly on the node's devices, tail images on
// its NVRAMs, and session acks here. It is fenced (frozen) and drained
// before a promotion recovers a live store over the same devices.
type followerState struct {
	n       *Node
	frozen  atomic.Bool
	applied atomic.Uint64
	resets  atomic.Int64

	// wg counts connection handlers that may touch devices; a promotion waits
	// it out after freezing. mu guards vsets and the frozen/Add handoff in
	// serveFollowerConn.
	wg sync.WaitGroup
	mu sync.Mutex

	// sessions is the leader's session table as replicated so far — the
	// server's own type, so the window a follower holds is bounded like the
	// leader's. A promotion hands it to the new leader's server whole.
	sessions *server.Sessions
	vsets    []*volume.Set // lazy read-only views per shard

	// tailEnds is, per shard, the data-block end of the staged tail in the
	// shard's NVRAM (stagedEnd), so Status reads no sidecar. One Load per
	// shard seeds it; apply keeps it as tails are stored and cleared. A
	// leader stepping down may stage a tail after the seed, until its store
	// stops; the next stream's catch-up restates every shard's tail.
	tailEnds []atomic.Int64
}

func newFollowerState(n *Node) *followerState {
	fol := &followerState{
		n:        n,
		sessions: server.NewSessions(),
		vsets:    make([]*volume.Set, len(n.cfg.Devices)),
		tailEnds: make([]atomic.Int64, len(n.cfg.NVRAMs)),
	}
	for i, nv := range n.cfg.NVRAMs {
		if g, img, err := nv.Load(); err == nil {
			fol.tailEnds[i].Store(stagedEnd(g, img))
		}
	}
	return fol
}

// stagedEnd is the data-block end a staged tail image reaches — one past
// its block — or 0 when none is staged. A leader's End() counts its staged
// tail the same way.
func stagedEnd(global int, img []byte) int64 {
	if len(img) == 0 {
		return 0
	}
	return int64(global) + 1
}

// serveFollowerConn handles one connection on a follower. The same
// listener serves both sides of the node's life: a leader's replication
// stream (after an OpReplHello) and ordinary clients, who get sealed reads,
// session hellos answered from replicated state, and one-round-trip
// StatusNotLeader redirects for everything that needs the leader.
func (n *Node) serveFollowerConn(conn net.Conn) {
	n.mu.Lock()
	fol := n.fol
	n.mu.Unlock()
	if fol == nil {
		return // role transition in flight; the client will reconnect
	}
	fol.mu.Lock()
	if fol.frozen.Load() {
		fol.mu.Unlock()
		return
	}
	fol.wg.Add(1)
	fol.mu.Unlock()
	detached := false
	defer func() {
		if !detached {
			fol.wg.Done()
		}
	}()

	leaderConn := false
	var connTerm uint64 // term the stream handshake was accepted at
	var connGen uint64  // stream generation the handshake was accepted at
	var sessID uint64
	// The stream is acked cumulatively: connApplied is the highest position
	// applied on THIS connection since its handshake, unacked the frames
	// applied since the last answer. Never fol.applied or anything else that
	// outlives the connection: a new leader's stream restarts at 0, and
	// echoing a position counted on the old leader's stream would let it
	// commit frames this node never saw.
	var connApplied uint64
	unacked := 0
	// One read usually takes in everything a leader's socket write carried (a
	// tail image, its ReplAck, perhaps a sealed block), which is then applied
	// frame by frame and answered once. A payload is borrowed from fc: apply
	// keeps nothing of it (the NVRAM and the device copy what they store, a
	// ReplAck's response is copied), and every answer goes out through fc's
	// write buffer, this goroutine being the connection's only writer.
	fc := server.NewFrameConn(conn)
	for {
		op, seq, trace, payload, err := fc.ReadFrame()
		if err != nil {
			return
		}
		var status byte
		var resp []byte
		fatal := false
		answer := true
		switch op {
		case wire.OpReplHello:
			status, resp, leaderConn, connTerm, connGen = n.folHello(fol, payload)
			connApplied, unacked = 0, 0
		case wire.OpReplWrite, wire.OpReplInvalidate, wire.OpReplTail,
			wire.OpReplTailClear, wire.OpReplAck, wire.OpReplSessions,
			wire.OpReplBase, wire.OpReplReset:
			if !leaderConn {
				status, resp, fatal = server.StatusErr, server.PutString(nil, "cluster: replication frame before handshake"), true
				break
			}
			// Term arbitration must hold for the connection's whole life, not
			// just the handshake: if a newer leader has handshaken since, this
			// stream belongs to a deposed leader that may not know it yet
			// (asymmetric partition), and applying its frames would diverge
			// the write-once media. Refusing fatally forces it back through
			// folHello, which tells it the higher term so it steps down.
			if cur := n.Term(); connTerm < cur {
				status, resp, fatal = server.StatusErr, server.PutString(nil,
					fmt.Sprintf("cluster: stale leader stream (handshake term %d, highest seen %d)", connTerm, cur)), true
				break
			}
			// One stream at a time, same leader included: a reconnect's
			// handshake supersedes this connection, and any frame still in
			// flight here (buffered behind a stall) would race the new
			// session's catch-up — a stale tail image applying late regresses
			// the staged tail, and a stale block write could double-append.
			// The generation check runs under applyMu so it is atomic with
			// the apply itself.
			n.applyMu.Lock()
			if connGen != n.streamGen.Load() {
				n.applyMu.Unlock()
				n.logf("cluster: dropping superseded replication stream (generation %d, newest %d)", connGen, n.streamGen.Load())
				status, resp, fatal = server.StatusErr, server.PutString(nil,
					"cluster: superseded replication stream (a newer stream has handshaken)"), true
				break
			}
			err := fol.apply(op, payload)
			if err == nil {
				fol.noteApplied(seq)
			}
			n.applyMu.Unlock()
			if err != nil {
				// An out-of-sync stream cannot be patched mid-flight; drop
				// the connection and let the leader's reconnect catch up.
				// Log locally too: the leader's sender often loses the
				// response to the connection teardown.
				n.logf("cluster: dropping replication stream: %v", err)
				status, resp, fatal = server.StatusErr, server.PutString(nil, err.Error()), true
				break
			}
			// Applied; answered below, once per drained buffer. An error
			// above is answered at once instead, and ends the stream with no
			// ack for the frames buffered behind it.
			connApplied = max(connApplied, seq)
			unacked++
			answer = false
		case wire.OpPromote:
			// This handler is about to tear down the very state that its
			// drain fence waits on, so it steps out of the accounting
			// first; its connection is exempted from the fence's sweep so
			// the response still goes out.
			detached = true
			fol.wg.Done()
			term, err := n.promoteExcept(conn)
			if err != nil {
				status, resp = server.StatusErr, server.PutString(nil, err.Error())
			} else {
				status, resp = server.StatusOK, wire.PutUint64(nil, term)
			}
			fc.WriteFrame(status, seq, trace, resp)
			return
		case wire.OpReplStatus:
			status, resp = server.StatusOK, n.statusPayload()
		case server.OpHello:
			status, resp, sessID = n.folClientHello(fol, payload)
		case server.OpPing:
			status = server.StatusOK
		case server.OpReadAt:
			status, resp = fol.handleReadAt(payload)
		default:
			// Everything else needs the leader: answer with its address so
			// the client redirects in one round trip.
			_ = sessID
			n.mu.Lock()
			leader := n.leaderAddr
			n.mu.Unlock()
			status, resp = server.StatusNotLeader, server.PutString(nil, leader)
		}
		if answer {
			if err := fc.WriteFrame(status, seq, trace, resp); err != nil {
				return
			}
			if fatal {
				return
			}
		}
		if unacked > 0 && (fc.Buffered() == 0 || unacked >= folAckEvery) {
			unacked = 0
			// Catch-up frames carry position 0: until the ReplBase there is
			// nothing to report, and the leader ignores a zero ack anyway.
			if connApplied > 0 {
				if err := fc.WriteFrame(server.StatusOK, connApplied, 0, nil); err != nil {
					return
				}
			}
		}
	}
}

// folHello answers a leader's stream handshake: term arbitration, geometry
// check, then the per-device extents the leader needs to compute the
// missing suffix. The returned term and stream generation are the ones the
// stream was accepted at; the connection handler re-checks both against the
// node's per frame.
func (n *Node) folHello(fol *followerState, payload []byte) (byte, []byte, bool, uint64, uint64) {
	h, err := wire.DecodeReplHello(payload)
	if err != nil {
		return server.StatusErr, server.PutString(nil, err.Error()), false, 0, 0
	}
	n.mu.Lock()
	refuse := func(reason string) (byte, []byte, bool, uint64, uint64) {
		resp := &wire.ReplHelloResp{Accept: false, Term: n.term, Reason: reason}
		n.mu.Unlock()
		return server.StatusOK, resp.Encode(nil), false, 0, 0
	}
	if int(h.Shards) != len(n.devs) || int(h.BlockSize) != n.devs[0][0].BlockSize() {
		return refuse(fmt.Sprintf("geometry mismatch: leader %d shards x %dB blocks, local %d x %dB",
			h.Shards, h.BlockSize, len(n.devs), n.devs[0][0].BlockSize()))
	}
	if h.Term < n.term {
		return refuse(fmt.Sprintf("stale term %d, highest seen %d", h.Term, n.term))
	}
	if h.Term == n.term && n.leaderAddr != "" && n.leaderAddr != h.LeaderAddr {
		// One leader per term: a second claimant of the current term is a
		// same-term split brain (two concurrent promotions, or an operator
		// double-start), and following both would interleave two orderings
		// onto the same devices. The rivals resolve it between themselves
		// (leaderExtOp's arbitration); this node keeps the leader it has.
		return refuse(fmt.Sprintf("already following %s at term %d", n.leaderAddr, n.term))
	}
	if h.Term > n.term {
		// Persist before accepting: once this stream lands frames, a restart
		// must never regress below the term those frames were ordered under.
		if err := n.persistTerm(h.Term); err != nil {
			return refuse(fmt.Sprintf("cannot persist term %d: %v", h.Term, err))
		}
		n.term = h.Term
	}
	n.epoch = h.Epoch
	n.leaderAddr = h.LeaderAddr
	term := n.term
	n.mu.Unlock()

	// Supersede every older stream before snapshotting extents: bump the
	// generation (frames from older connections are refused from here on),
	// then pass through applyMu so an apply that was already past its
	// generation check finishes first. Without the barrier, an old stream's
	// in-flight frame could land after the snapshot below and the leader's
	// catch-up would compute its suffix against stale extents.
	// The barrier is also where the applied position restarts: it counts
	// positions of the stream being followed, and this handshake begins a new
	// one (a new leader's restarts at 0) — left standing, Applied() would
	// report the old stream's head until the new one overtook it.
	gen := n.streamGen.Add(1)
	n.applyMu.Lock()
	fol.applied.Store(0)
	n.applyMu.Unlock()

	n.mu.Lock()
	resp := &wire.ReplHelloResp{Accept: true, Term: term}
	for si, shardDevs := range n.devs {
		for di, dev := range shardDevs {
			st := wire.ReplDevState{Shard: uint32(si), Dev: uint32(di), Written: uint64(dev.Written())}
			if st.Written > 0 {
				st.LastCRC = blockCRC(dev, int(st.Written)-1)
			}
			resp.Devs = append(resp.Devs, st)
		}
	}
	n.mu.Unlock()
	return server.StatusOK, resp.Encode(nil), true, term, gen
}

// folClientHello answers a client session attach from replicated state: the
// cluster epoch (so the client's session survives failover) and the
// session's replicated high-water sequence.
func (n *Node) folClientHello(fol *followerState, payload []byte) (byte, []byte, uint64) {
	h, err := wire.DecodeHello(payload)
	if err != nil {
		return server.StatusErr, server.PutString(nil, err.Error()), 0
	}
	id := h.Session
	n.mu.Lock()
	epoch := n.epoch
	n.mu.Unlock()
	if epoch == 0 {
		// Nothing replicated yet: there is no epoch to promise a session
		// under. Refuse; the client rotates to another node.
		return server.StatusErr, server.PutString(nil, "cluster: follower has no leader yet"), 0
	}
	out := wire.PutUint64(nil, epoch)
	out = wire.PutUint64(out, fol.sessions.MaxSeq(id))
	return server.StatusOK, out, id
}

// apply dispatches one replication frame onto local state. Every path is
// idempotent, because catch-up and live streaming deliberately overlap.
func (fol *followerState) apply(op byte, payload []byte) error {
	if fol.frozen.Load() {
		return errors.New("cluster: follower fenced for promotion")
	}
	v, err := wire.DecodeRepl(op, payload)
	if err != nil {
		return err
	}
	switch m := v.(type) {
	case *wire.ReplWrite:
		return fol.applyWrite(m)
	case *wire.ReplInvalidate:
		dev, err := fol.n.device(m.Shard, m.Dev)
		if err != nil {
			return err
		}
		return dev.Invalidate(int(m.Index))
	case *wire.ReplTail:
		nv, err := fol.nvram(m.Shard)
		if err != nil {
			return err
		}
		if err := nv.Store(int(m.Global), m.Image); err != nil {
			return err
		}
		fol.tailEnds[m.Shard].Store(stagedEnd(int(m.Global), m.Image))
		return nil
	case *wire.ReplTailClear:
		nv, err := fol.nvram(m.Shard)
		if err != nil {
			return err
		}
		if err := nv.Clear(); err != nil {
			return err
		}
		fol.tailEnds[m.Shard].Store(0)
		return nil
	case *wire.ReplAck:
		fol.sessions.Record(m.Session, m.Seq, m.Status, m.Resp)
		return nil
	case *wire.ReplSessions:
		fol.sessions.Install(m.Sessions)
		return nil
	case *wire.ReplBase:
		fol.noteApplied(m.Pos)
		return nil
	case *wire.ReplReset:
		return fol.applyReset(m)
	}
	return fmt.Errorf("cluster: unexpected replication op 0x%x", op)
}

// applyWrite lands one block image: a duplicate below the write point is
// verified byte-identical and skipped, the block at the write point is
// appended, and anything past it is a gap — the stream is broken and must
// restart with a catch-up.
func (fol *followerState) applyWrite(w *wire.ReplWrite) error {
	dev, err := fol.n.device(w.Shard, w.Dev)
	if err != nil {
		return err
	}
	written := uint64(dev.Written())
	switch {
	case w.Index < written:
		// Catch-up and live streaming deliberately overlap, so duplicates
		// are expected — but only byte-identical ones. A conflicting image
		// at an already-written index is divergence (a stale leader, or a
		// bug upstream); swallowing it would mask corruption, so break the
		// stream and let the reconnect's handshake-level probe resolve it.
		local := make([]byte, dev.BlockSize())
		rerr := dev.ReadBlock(int(w.Index), local)
		switch {
		case errors.Is(rerr, wodev.ErrInvalidated):
			return nil // the write was superseded by a replicated invalidate
		case rerr != nil:
			return fmt.Errorf("cluster: verify duplicate block %d (shard %d dev %d): %w",
				w.Index, w.Shard, w.Dev, rerr)
		case !bytes.Equal(local, w.Data):
			return fmt.Errorf("cluster: divergent duplicate: block %d (shard %d dev %d) differs from the replicated image",
				w.Index, w.Shard, w.Dev)
		}
		return nil
	case w.Index > written:
		return fmt.Errorf("cluster: replication gap: block %d arrived with only %d written (shard %d dev %d)",
			w.Index, written, w.Shard, w.Dev)
	}
	if _, err := dev.AppendBlock(w.Data); err != nil {
		return err
	}
	if w.Index == 0 {
		// A new volume header: the cached read-only view is stale.
		fol.dropVset(int(w.Shard))
	}
	return nil
}

// applyReset swaps in a blank device for a diverged one via the node's
// Reset hook.
func (fol *followerState) applyReset(m *wire.ReplReset) error {
	n := fol.n
	if n.cfg.Reset == nil {
		return fmt.Errorf("cluster: shard %d dev %d diverged and no Reset hook is configured", m.Shard, m.Dev)
	}
	fresh, err := n.cfg.Reset(int(m.Shard), int(m.Dev))
	if err != nil {
		return fmt.Errorf("cluster: reset shard %d dev %d: %w", m.Shard, m.Dev, err)
	}
	n.mu.Lock()
	if int(m.Shard) >= len(n.devs) || int(m.Dev) >= len(n.devs[m.Shard]) {
		n.mu.Unlock()
		return fmt.Errorf("cluster: no device (shard %d, dev %d)", m.Shard, m.Dev)
	}
	n.devs[m.Shard][m.Dev] = fresh
	n.mu.Unlock()
	fol.dropVset(int(m.Shard))
	fol.resets.Add(1)
	n.logf("cluster: shard %d dev %d reset for re-sync", m.Shard, m.Dev)
	return nil
}

// noteApplied raises the applied position. n.applyMu held: the same lock
// orders it after the reset an accepted handshake makes, so a superseded
// connection can never raise it again.
func (fol *followerState) noteApplied(pos uint64) {
	if pos > fol.applied.Load() {
		fol.applied.Store(pos)
	}
}

func (fol *followerState) nvram(shard uint32) (core.NVRAM, error) {
	if int(shard) >= len(fol.n.cfg.NVRAMs) {
		return nil, fmt.Errorf("cluster: no NVRAM for shard %d", shard)
	}
	return fol.n.cfg.NVRAMs[shard], nil
}

// --- sealed-history reads ---

// handleReadAt serves OpReadAt (same payload and entry layout as the
// leader) against the replicated devices, read-only: sealed blocks only,
// which is exactly the guarantee replication gives (the staged tail lives
// in NVRAM until sealed).
func (fol *followerState) handleReadAt(payload []byte) (byte, []byte) {
	r := wire.NewReader(payload, errReadAtPayload)
	shardN, block, index := r.Uvarint(), r.Uvarint(), r.Uvarint()
	if r.Err() != nil {
		return server.StatusErr, server.PutString(nil, r.Err().Error())
	}
	e, err := fol.readAt(int(shardN), int(block), int(index))
	if err != nil {
		return server.StatusErr, server.PutString(nil, err.Error())
	}
	return server.StatusOK, server.EncodeEntry(e)
}

var errReadAtPayload = errors.New("cluster: malformed read-at payload")

// vset returns (building lazily) the shard's read-only volume view.
func (fol *followerState) vset(shard int) (*volume.Set, error) {
	fol.mu.Lock()
	defer fol.mu.Unlock()
	if shard < 0 || shard >= len(fol.vsets) {
		return nil, fmt.Errorf("cluster: no shard %d", shard)
	}
	if fol.vsets[shard] != nil {
		return fol.vsets[shard], nil
	}
	n := fol.n
	n.mu.Lock()
	devs := append([]wodev.Device(nil), n.devs[shard]...)
	n.mu.Unlock()
	set, err := volume.MountSet(devs)
	if err != nil {
		return nil, err
	}
	if set == nil {
		return nil, errors.New("cluster: no replicated volumes yet")
	}
	fol.vsets[shard] = set
	return set, nil
}

func (fol *followerState) dropVset(shard int) {
	fol.mu.Lock()
	if shard >= 0 && shard < len(fol.vsets) {
		fol.vsets[shard] = nil
	}
	fol.mu.Unlock()
}

// readAt is the core's ReadAt over the replicated sealed history: the same
// block decode, fragment-chain rule and record→Entry construction
// (core.DecodeEntry), fetching blocks straight from the replicated devices.
func (fol *followerState) readAt(shard, block, index int) (*core.Entry, error) {
	set, err := fol.vset(shard)
	if err != nil {
		return nil, err
	}
	p, err := set.ReadBlock(block)
	if err != nil {
		return nil, fmt.Errorf("cluster: block %d not readable in the replicated sealed history: %w", block, err)
	}
	e, err := core.DecodeEntry(p, block, index, set.ReadBlock)
	if err != nil {
		return nil, err
	}
	e.Shard = shard
	return &e, nil
}
