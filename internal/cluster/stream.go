package cluster

import (
	"sync"
	"time"

	"clio/internal/core"
	"clio/internal/wire"
	"clio/internal/wodev"
)

// frame is one replication stream element: a totally ordered record of one
// device-level mutation (or session ack) with its stream position.
type frame struct {
	pos     uint64
	op      byte
	payload []byte
}

// subscriber is one sender's feed. base is the stream position its catch-up
// covers: nothing at or below it is ever delivered (a frame held when the
// sender subscribed is already in the device and NVRAM state the catch-up
// reads, and arriving after the catch-up's newer tail image it would regress
// it).
type subscriber struct {
	ch   chan []frame
	base uint64
}

// heldFlushAfter is the period of the timer that bounds how long a lazily
// emitted frame waits for an eager one to ride with: a frame is flushed by
// the first expiry that finds it held a whole period — this long after its
// emit on a quiet stream, at most twice this on a busy one. A
// gated force follows its tail store with a ReplAck within microseconds; the
// timer only serves a store no gate follows (a forced append made on the
// store itself rather than through the server), so Applied() always
// converges on Pos().
//
// The timer is kept off the force path: it is armed by a lazy emit only when
// it is not already pending, never stopped, and disarms itself when it
// expires with nothing held — one arm and one expiry per period under any
// load. A Reset and a Stop per force would each be a runtime timer operation
// on the commit path, and every Reset of a P's earliest timer breaks the
// netpoller's sleep: it wakes the leader's idle thread on hosts whose cores
// the followers need.
const heldFlushAfter = time.Millisecond

// stream is the leader's totally ordered mutation log, existing only as a
// position counter and live fan-out: frames are not retained, because every
// prefix of the stream is equivalent to the device state that produced it.
//
// Delivery is in batches. An eager emit delivers its frame at once, together
// with every frame held before it; a lazy emit takes its position at once
// but is held, in order, for the next eager frame — so the tail image a
// force staged and the ReplAck the quorum gate emits for it reach each
// sender as one batch, one socket write, and come back as one ack. A batch
// is what one channel send carries: positions are consecutive and
// ascending within it and across batches (= emit order).
//
// queue is each subscriber's buffer in batches (Config.StreamQueue): a
// sender that falls this far behind is cut loose and restarts with a fresh
// device-level catch-up — cheaper than retaining unbounded history
// centrally, and correct because a follower's state is always
// reconstructible from the devices themselves. The sender keeps the peer
// counted live across that restart (see errFellBehind), so a merely slow
// follower does not flap the pre-gate's quorum estimate.
type stream struct {
	queue int

	mu    sync.Mutex
	pos   uint64
	held  []frame // lazily emitted, not yet delivered
	timer *time.Timer
	armed bool   // timer pending
	seen  uint64 // oldest held position when the timer was last set
	subs  map[*subscriber]struct{}
}

func newStream(queue int) *stream {
	st := &stream{queue: queue, subs: make(map[*subscriber]struct{})}
	st.timer = time.AfterFunc(time.Hour, st.expire)
	st.timer.Stop()
	return st
}

// emit assigns the next position. Eager (lazy false): the frame and every
// held one before it are delivered now, as one batch. Lazy: the frame is
// held for the next eager emit, flush, or the timer.
func (st *stream) emit(op byte, payload []byte, lazy bool) uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.pos++
	if lazy && !st.armed {
		// Nothing is held (the timer only lapses then), so this frame is the
		// oldest: if the expiry still finds it, it waited the whole period.
		st.armed, st.seen = true, st.pos
		st.timer.Reset(heldFlushAfter)
	}
	if st.held == nil {
		st.held = make([]frame, 0, 2) // the common batch: a tail and its ack
	}
	st.held = append(st.held, frame{pos: st.pos, op: op, payload: payload})
	if !lazy {
		st.deliverLocked()
	}
	return st.pos
}

// flush delivers whatever is held; the gate calls it on the paths that emit
// no ReplAck.
func (st *stream) flush() {
	st.mu.Lock()
	st.deliverLocked()
	st.mu.Unlock()
}

// expire is the timer: it flushes a frame it already saw held one period
// ago, and otherwise only notes the oldest one held now — a frame whose gate
// is microseconds away is never split from it. With nothing held it lets the
// timer lapse; the next lazy emit arms it again.
func (st *stream) expire() {
	st.mu.Lock()
	defer st.mu.Unlock()
	switch {
	case len(st.held) == 0:
		st.armed = false
	case st.held[0].pos == st.seen:
		st.deliverLocked()
		st.armed = false
	default:
		st.seen = st.held[0].pos
		st.timer.Reset(heldFlushAfter)
	}
}

// deliverLocked hands the held frames to every live subscriber as one batch
// (shared, read-only). A subscriber with a full queue is dropped on the spot
// (its channel closed); blocking here would stall the group-commit path on
// the slowest replica.
func (st *stream) deliverLocked() {
	if len(st.held) == 0 {
		return
	}
	batch := st.held
	st.held = nil
	for sub := range st.subs {
		b := batch
		for len(b) > 0 && b[0].pos <= sub.base {
			b = b[1:]
		}
		if len(b) == 0 {
			continue
		}
		select {
		case sub.ch <- b:
		default:
			delete(st.subs, sub)
			close(sub.ch)
		}
	}
}

// subscribe registers a new consumer and returns the current position,
// held frames included: the caller owns catching the follower up to it by
// other means (device suffix copy, NVRAM tails); everything after arrives on
// the channel.
func (st *stream) subscribe() (*subscriber, uint64) {
	sub := &subscriber{ch: make(chan []frame, st.queue)}
	st.mu.Lock()
	sub.base = st.pos
	st.subs[sub] = struct{}{}
	st.mu.Unlock()
	return sub, sub.base
}

func (st *stream) unsubscribe(sub *subscriber) {
	st.mu.Lock()
	if _, ok := st.subs[sub]; ok {
		delete(st.subs, sub)
		close(sub.ch)
	}
	st.mu.Unlock()
}

func (st *stream) Pos() uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.pos
}

// tapDevice wraps a leader's device and emits a stream frame after every
// successful mutation — after, so a frame never describes a write the local
// media rejected. The core serializes writes per device, so per-device
// frame order matches device order; cross-device interleaving is harmless
// because frames address (shard, dev, index) explicitly.
//
// One deliberate gap: a write that succeeds only via the core's
// ErrRewrite read-back path (the device wrote but reported failure) emits
// no frame. The follower detects the resulting index gap on the next frame
// for that device, drops the stream, and the reconnect's suffix catch-up
// repairs it.
type tapDevice struct {
	wodev.Device
	n     *Node
	shard uint32
	dev   uint32
}

func (t *tapDevice) AppendBlock(data []byte) (int, error) {
	idx, err := t.Device.AppendBlock(data)
	if err == nil {
		t.n.emitFrame(wire.OpReplWrite,
			(&wire.ReplWrite{Shard: t.shard, Dev: t.dev, Index: uint64(idx), Data: data}).Encode(nil))
	}
	return idx, err
}

func (t *tapDevice) WriteAt(idx int, data []byte) error {
	err := t.Device.WriteAt(idx, data)
	if err == nil {
		t.n.emitFrame(wire.OpReplWrite,
			(&wire.ReplWrite{Shard: t.shard, Dev: t.dev, Index: uint64(idx), Data: data}).Encode(nil))
	}
	return err
}

func (t *tapDevice) Invalidate(idx int) error {
	err := t.Device.Invalidate(idx)
	if err == nil {
		t.n.emitFrame(wire.OpReplInvalidate,
			(&wire.ReplInvalidate{Shard: t.shard, Dev: t.dev, Index: uint64(idx)}).Encode(nil))
	}
	return err
}

// tapNVRAM mirrors the forced-tail staging writes: replicating these frames
// is what extends the paper's NVRAM crash guarantee across machines — a
// follower holds the exact partial-block image a leader crash would have
// recovered from locally.
//
// It forwards Store and Clear only, so the core sees no StagingNVRAM and
// seals inline, in commit order, under a cluster leader. That is measured,
// not a stopgap (ISSUE 20, three cliods under two closed-loop forced
// appenders): the inline seal the pipeline would hide costs 0.164 seals per
// force × 2.4 µs of device append ≈ 0.4 µs per force, less than the
// StoreSealed and DropSealed (a sidecar write each) the pipeline would add;
// the cluster's cost was syscalls — then one rename per force in the sidecar,
// one socket write and one ack per frame — which is what the held tail frame
// below and the one-write sidecar remove.
type tapNVRAM struct {
	core.NVRAM
	n     *Node
	shard uint32
}

// Store emits the tail frame lazily when a quorum gate will follow it: the
// force that staged this image cannot be acked before its ReplAck frame, so
// the tail rides in that frame's batch instead of costing its own socket
// write and its own ack. Without a gate (quorum 1) nothing would follow, and
// the frame goes out at once.
func (t *tapNVRAM) Store(global int, image []byte) error {
	err := t.NVRAM.Store(global, image)
	if err == nil {
		t.n.stream.emit(wire.OpReplTail,
			(&wire.ReplTail{Shard: t.shard, Global: uint64(global), Image: image}).Encode(nil),
			t.n.cfg.Quorum > 1)
	}
	return err
}

func (t *tapNVRAM) Clear() error {
	err := t.NVRAM.Clear()
	if err == nil {
		t.n.emitFrame(wire.OpReplTailClear,
			(&wire.ReplTailClear{Shard: t.shard}).Encode(nil))
	}
	return err
}

// emitFrame emits an eager frame: it, and any tail frame held before it,
// reach every sender now.
func (n *Node) emitFrame(op byte, payload []byte) uint64 {
	return n.stream.emit(op, payload, false)
}
