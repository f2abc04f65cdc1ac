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

// subscriber is one sender's feed. next is the first position not yet
// handed to ch: the frames from next to the stream head are the ones held
// for it. It starts just above the subscription's base, the stream position
// its catch-up covers: nothing at or below the base is ever delivered (a
// frame held when the sender subscribed is already in the device and NVRAM
// state the catch-up reads, and arriving after the catch-up's newer tail
// image it would regress it).
type subscriber struct {
	ch    chan []frame
	p     *peer // whose acks the swap check reads, and whose role Status reports
	next  uint64
	bytes uint64 // st.bytes when next last moved: held payload = st.bytes - bytes

	ready  bool   // caught up: may join the quorum set
	quorum bool   // in the quorum set: eager frames reach it at once
	mark   uint64 // last position handed over as of the previous expiry (quorum only)
	stale  int    // expiries in a row that found the follower's ack below mark (quorum only)
}

// staleExpiries is how many expiries in a row must find a quorum follower
// behind before it trades places: one is a descheduled follower, two a stall.
const staleExpiries = 2

// heldFlushAfter is the period of the timer that bounds how long a held
// frame waits: a frame is flushed by the first expiry that finds it held a
// whole period — this long after its emit on a quiet stream, at most twice
// this on a busy one. A quorum subscriber holds only lazily emitted frames:
// tail images, which a gated force follows with a ReplAck within
// microseconds, and unforced appends' ReplAcks, which nothing waits on. For
// it the timer serves those ReplAcks after a client's last append, and a
// store no gate follows (a forced append made on the store itself rather
// than through the server), so Applied() always converges on Pos(). A
// trailing subscriber holds every frame, and the timer is what feeds it.
//
// The timer is kept off the force path: it is armed by an emit that leaves a
// frame held only when it is not already pending, never stopped, and
// disarms itself when it expires with nothing held — one arm and one expiry
// per period under any load. A Reset and a Stop per force would each be a
// runtime timer operation on the commit path, and every Reset of a P's
// earliest timer breaks the netpoller's sleep: it wakes the leader's idle
// thread on hosts whose cores the followers need.
const heldFlushAfter = time.Millisecond

// stream is the leader's totally ordered mutation log, existing only as a
// position counter and live fan-out: frames are not retained once every
// subscriber has been handed them, because every prefix of the stream is
// equivalent to the device state that produced it.
//
// Delivery is in batches, and what a subscriber is handed when depends on
// its role. The quorum set is at most quorum subscribers (Config.Quorum−1)
// that have finished catch-up: only their acks can be the ones a gate
// waits for. An eager emit delivers its frame to each of them at once,
// together with every frame held for it before; a lazy emit takes its
// position at once but is held, in order, for the next eager frame — so the
// tail image a force staged and the ReplAck the quorum gate emits for it
// reach a quorum sender as one batch, one socket write, and come back as one
// ack. Every other subscriber is trailing: it holds every frame until the
// timer finds one held a whole period, or until its held payload reaches
// maxStreamWrite, and then receives them all as one batch — the leader
// pays one socket write per period for a follower no commit waits on, not
// one per force, and the follower one ack per buffer it drains. With quorum
// 0 (Config.Quorum 1) every subscriber trails and no gate waits.
//
// The set repairs itself. A quorum subscriber that is dropped or
// unsubscribes is replaced at once by a caught-up trailing one, whose held
// frames are delivered first. And a quorum subscriber whose follower has
// left a frame unacked at staleExpiries expiries in a row, while a trailing
// follower has acked it, trades places with that follower: a stalled but
// unclosed connection holds commits to the timer's pace for a few periods,
// not for good.
//
// A batch is what one channel send carries: positions are consecutive and
// ascending within it and across batches (= emit order), and every frame
// above a subscriber's base reaches it, whatever its role. Batches are
// windows on one shared frame log, read-only to the senders.
//
// queue is each subscriber's buffer in batches (Config.StreamQueue): a
// sender that falls this far behind is cut loose and restarts with a fresh
// device-level catch-up — cheaper than retaining unbounded history
// centrally, and correct because a follower's state is always
// reconstructible from the devices themselves. The sender keeps the peer
// counted live across that restart (see errFellBehind), so a merely slow
// follower does not flap the pre-gate's quorum estimate.
type stream struct {
	queue  int
	quorum int // size of the quorum set

	mu     sync.Mutex
	pos    uint64
	bytes  uint64 // payload bytes emitted
	devPos uint64 // position of the last device frame (ReplWrite, ReplInvalidate)
	// log holds the frames from the oldest position some subscriber has
	// not been handed yet to pos. It only ever grows at its end, so a
	// batch handed out (a window below len) is never written again.
	log      []frame
	timer    *time.Timer
	armed    bool   // timer pending
	seen     uint64 // stream head when the timer was last set
	expiries uint64 // how often the timer has expired: the clock the swap check counts in
	subs     []*subscriber
}

func newStream(queue, quorum int) *stream {
	st := &stream{queue: queue, quorum: quorum}
	st.timer = time.AfterFunc(time.Hour, st.expire)
	st.timer.Stop()
	return st
}

// emit assigns the next position. Eager (lazy false): the frame and every
// frame held before it are delivered now to the quorum set, as one batch
// each. Lazy: the frame is held for the next eager emit, flush, or the
// timer. Trailing subscribers hold it either way.
func (st *stream) emit(op byte, payload []byte, lazy bool) uint64 {
	return st.emitNoted(op, payload, lazy, nil)
}

// emitNoted is emit that also hands the position, under the stream's lock,
// to noted when it is not nil: a subscriber whose base covers the frame
// subscribes after noted has returned.
func (st *stream) emitNoted(op byte, payload []byte, lazy bool, noted func(pos uint64)) uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.pos++
	st.bytes += uint64(len(payload))
	if noted != nil {
		noted(st.pos)
	}
	if op == wire.OpReplWrite || op == wire.OpReplInvalidate {
		st.devPos = st.pos
	}
	if len(st.subs) == 0 {
		return st.pos
	}
	if len(st.log) == cap(st.log) {
		// Grow in steps of at least 64 frames: a log every subscriber has
		// drained keeps its spare capacity, so a quorum-only stream
		// allocates once per 32 forces, not once per batch.
		grown := make([]frame, len(st.log), max(2*len(st.log), 64))
		copy(grown, st.log)
		st.log = grown
	}
	st.log = append(st.log, frame{pos: st.pos, op: op, payload: payload})
	dropped := false
	for i := len(st.subs) - 1; i >= 0; i-- { // backwards: a drop moves the last one here
		sub := st.subs[i]
		if (sub.quorum && !lazy) || st.bytes-sub.bytes >= maxStreamWrite {
			dropped = !st.deliverLocked(sub) || dropped
		}
	}
	if dropped {
		st.fillLocked()
	}
	if !st.armed && st.heldLocked() {
		// Nothing was held (the timer only lapses then), so this frame is
		// the oldest: if the expiry still finds it, it waited the whole period.
		st.armed, st.seen = true, st.pos
		st.timer.Reset(heldFlushAfter)
	}
	st.trimLocked()
	return st.pos
}

// flush delivers whatever the quorum set holds; the gate calls it on the
// paths that emit no ReplAck.
func (st *stream) flush() {
	st.mu.Lock()
	defer st.mu.Unlock()
	dropped := false
	for i := len(st.subs) - 1; i >= 0; i-- {
		if sub := st.subs[i]; sub.quorum {
			dropped = !st.deliverLocked(sub) || dropped
		}
	}
	if dropped {
		st.fillLocked()
	}
	st.trimLocked()
}

// expire is the timer. It delivers to every subscriber holding a frame it
// already saw held one period ago — a frame whose gate is microseconds away
// is never split from it — then makes the swap check, and notes the head for
// the next expiry. With nothing held it lets the timer lapse; the next emit
// that holds a frame arms it again.
func (st *stream) expire() {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.expiries++
	for i := len(st.subs) - 1; i >= 0; i-- {
		if sub := st.subs[i]; sub.next <= st.seen {
			st.deliverLocked(sub)
		}
	}
	st.swapLocked()
	st.fillLocked()
	for _, sub := range st.subs {
		if sub.quorum {
			sub.mark = sub.next - 1
		}
	}
	if st.heldLocked() {
		st.seen = st.pos
		st.timer.Reset(heldFlushAfter)
	} else {
		st.armed = false
	}
	st.trimLocked()
}

// swapLocked trades each quorum subscriber whose follower has not acked the
// first frame after its ack, though it was handed over before the previous
// expiry, at staleExpiries expiries in a row, for the caught-up trailing
// subscriber furthest ahead, if that one has acked it.
func (st *stream) swapLocked() {
	for i := len(st.subs) - 1; i >= 0; i-- { // backwards: a newcomer's drop moves the last one
		q := st.subs[i]
		if !q.quorum {
			continue
		}
		acked := q.p.acked.Load()
		if acked >= q.mark {
			q.stale = 0
			continue
		}
		if q.stale++; q.stale < staleExpiries {
			continue
		}
		if t := st.leadingTrailerLocked(); t != nil && t.p.acked.Load() > acked {
			st.setRoleLocked(q, false)
			st.setRoleLocked(t, true)
			st.deliverLocked(t) // a drop leaves a vacancy; the caller refills
		}
	}
}

// fillLocked tops the quorum set up from the caught-up trailing
// subscribers, furthest acked first, and hands each newcomer its held frames
// at once: the gate may already be waiting on one of them.
func (st *stream) fillLocked() {
	for {
		n := 0
		for _, sub := range st.subs {
			if sub.quorum {
				n++
			}
		}
		if n >= st.quorum {
			return
		}
		t := st.leadingTrailerLocked()
		if t == nil {
			return
		}
		st.setRoleLocked(t, true)
		st.deliverLocked(t) // dropped: the loop looks again
	}
}

// leadingTrailerLocked returns the caught-up trailing subscriber whose
// follower has acked the most, or nil.
func (st *stream) leadingTrailerLocked() *subscriber {
	var best *subscriber
	for _, sub := range st.subs {
		if sub.ready && !sub.quorum && (best == nil || sub.p.acked.Load() > best.p.acked.Load()) {
			best = sub
		}
	}
	return best
}

func (st *stream) setRoleLocked(sub *subscriber, quorum bool) {
	sub.quorum = quorum
	sub.mark, sub.stale = 0, 0 // a whole period in the role before the swap check applies
	sub.p.quorum.Store(quorum)
}

// heldLocked reports whether any subscriber holds a frame.
func (st *stream) heldLocked() bool {
	for _, sub := range st.subs {
		if sub.next <= st.pos {
			return true
		}
	}
	return false
}

// deliverLocked hands sub every frame held for it as one batch (shared,
// read-only). A subscriber with a full queue is dropped on the spot (its
// channel closed) and false returned; blocking here would stall the
// group-commit path on the slowest replica.
func (st *stream) deliverLocked(sub *subscriber) bool {
	if sub.next > st.pos {
		return true
	}
	first := st.pos + 1 - uint64(len(st.log))
	select {
	case sub.ch <- st.log[sub.next-first : len(st.log) : len(st.log)]:
		sub.next, sub.bytes = st.pos+1, st.bytes
		return true
	default:
		st.removeLocked(sub)
		return false
	}
}

// trimLocked forgets the frames every subscriber has been handed.
func (st *stream) trimLocked() {
	low := st.pos + 1
	for _, sub := range st.subs {
		low = min(low, sub.next)
	}
	first := st.pos + 1 - uint64(len(st.log))
	st.log = st.log[low-first:]
}

// removeLocked takes sub out of the stream and closes its channel. The
// caller refills the quorum set.
func (st *stream) removeLocked(sub *subscriber) {
	for i, s := range st.subs {
		if s == sub {
			last := len(st.subs) - 1
			st.subs[i], st.subs[last] = st.subs[last], nil
			st.subs = st.subs[:last]
			close(sub.ch)
			if sub.quorum {
				st.setRoleLocked(sub, false)
			}
			return
		}
	}
}

// subscribe registers a new consumer for p and returns the current
// position, held frames included: the caller owns catching the follower up
// to it by other means (device suffix copy, NVRAM tails); everything after
// arrives on the channel. The subscriber trails until ready.
func (st *stream) subscribe(p *peer) (*subscriber, uint64) {
	sub := &subscriber{ch: make(chan []frame, st.queue), p: p}
	st.mu.Lock()
	base := st.pos
	sub.next, sub.bytes = base+1, st.bytes
	st.subs = append(st.subs, sub)
	st.mu.Unlock()
	return sub, base
}

// ready marks sub caught up, so it may join the quorum set.
func (st *stream) ready(sub *subscriber) {
	st.mu.Lock()
	defer st.mu.Unlock()
	sub.ready = true
	st.fillLocked()
	st.trimLocked()
}

func (st *stream) unsubscribe(sub *subscriber) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, s := range st.subs {
		if s == sub {
			st.removeLocked(sub)
			st.fillLocked()
			st.trimLocked()
			return
		}
	}
}

// devicePos is the position of the last device frame emitted, 0 for none.
func (st *stream) devicePos() uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.devPos
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
// below and the one-write sidecar remove. Only the quorum set's followers
// stage each force's tail as it happens; a trailing follower stages a
// period's images from one batch, so a promotion must take the follower
// that applied the most (DESIGN.md, Replication).
type tapNVRAM struct {
	core.NVRAM
	n     *Node
	shard uint32
}

// Store emits the tail frame lazily when a quorum gate will follow it: the
// force that staged this image cannot be acked before its ReplAck frame, so
// the tail rides in that frame's batch instead of costing its own socket
// write and its own ack. Without a gate (quorum 1) nothing would follow, and
// the frame is eager — though with no quorum set there, every follower
// trails and receives it with the timer's next batch.
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
// reach the quorum set's senders now, and the trailing ones with their next
// batch.
func (n *Node) emitFrame(op byte, payload []byte) uint64 {
	return n.stream.emit(op, payload, false)
}
