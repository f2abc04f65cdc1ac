// Package group implements consumer groups over streaming reads: N clients
// sharing a group name divide the partitions of a topic among themselves,
// and every acknowledged offset is an ordinary log entry in the reserved
// ".offsets" sublog — write-once storage is the group coordinator.
//
// A topic is a set of top-level partition logs (PartitionPath), spread
// across a sharded store by the ordinary root-segment hash. The group log
// ("/.offsets/<group>") routes to a single shard, so join, heartbeat,
// claim, release and ack records form one total order that every member
// observes through the same live tail subscription it uses for data. The
// protocol needs no other channel:
//
//   - Assignment is deterministic: partition p belongs to the p-th (mod n)
//     member of the sorted live-member list, so members agree without
//     negotiating. Liveness is judged by the log's own clock — a member is
//     live while its last join/heartbeat timestamp is within TTL of the
//     newest group-log timestamp observed — so the live set is a pure
//     function of the applied log prefix, identical for every member at
//     the same prefix.
//   - Claims are fenced by the total order: a claim cites the log position
//     of the last ownership event (claim, release or leave) the claimer
//     observed for the partition, and is valid only if that citation still
//     matches when the claim lands in the log. Two racing claimers cite
//     the same event; the log orders them; the first is valid, the second
//     void. A member starts delivering only after its own claim echoes
//     back valid, so a void claimer never delivers at all.
//   - Handoff rides the same fence: a member that loses a partition stops
//     consuming, drains in-flight acks, then appends a release; the next
//     owner's claim cites that release. An acknowledged entry is never
//     delivered twice within the group.
//   - Recovery is a log replay: at the moment a claim echoes back valid,
//     the claimer's folded state includes every valid ack that preceded
//     the claim in the log, exactly the cursor Watch's From option
//     restores.
package group

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"clio/internal/logapi"
	"clio/internal/stream"
)

// DefaultTTL is the liveness lease: a member unheard from (join or
// heartbeat) for longer — on the group log's own clock — is treated as
// crashed and its partitions are taken over.
const DefaultTTL = 3 * time.Second

// DefaultBuffer bounds the consumer's delivered-message buffer in entries.
const DefaultBuffer = 64

// ErrClosed is returned by Recv after the consumer is closed or killed.
var ErrClosed = errors.New("group: consumer closed")

// ErrNotOwner is returned by Ack when the message's partition has been
// reassigned since delivery; the caller must drop the message — the new
// owner will redeliver it.
var ErrNotOwner = errors.New("group: partition no longer assigned to this consumer")

// LogPath returns the offsets log path for a group.
func LogPath(group string) string { return logapi.OffsetsRoot + "/" + group }

// PartitionPath returns partition p's log path. Partitions are top-level
// logs ("/events" → "/events.p0", "/events.p1", …) so a sharded store
// spreads them across shards by the root-segment hash.
func PartitionPath(topic string, p int) string { return fmt.Sprintf("%s.p%d", topic, p) }

// EnsureLog resolves — creating on first use — a group's offsets log.
// Racing creators are fine: the loser's CreateLog fails and the re-resolve
// finds the winner's log.
func EnsureLog(ctx context.Context, svc logapi.Service, group string) (logapi.ID, error) {
	path := LogPath(group)
	if id, err := svc.Resolve(ctx, path); err == nil {
		return id, nil
	}
	svc.CreateLog(ctx, logapi.OffsetsRoot, 0o600, "system")
	if id, err := svc.CreateLog(ctx, path, 0o600, "system"); err == nil {
		return id, nil
	}
	return svc.Resolve(ctx, path)
}

// EnsureTopic resolves — creating as needed — every partition log of a
// topic and returns their ids in partition order. Producers append to
// ids[p]; consumers only need the topic name.
func EnsureTopic(ctx context.Context, svc logapi.Service, topic string, partitions int) ([]logapi.ID, error) {
	ids := make([]logapi.ID, partitions)
	for p := range ids {
		path := PartitionPath(topic, p)
		id, err := svc.Resolve(ctx, path)
		if err != nil {
			if id, err = svc.CreateLog(ctx, path, 0o644, "group"); err != nil {
				if id, err = svc.Resolve(ctx, path); err != nil {
					return nil, err
				}
			}
		}
		ids[p] = id
	}
	return ids, nil
}

// Options tunes a consumer; the zero value uses the defaults.
type Options struct {
	// TTL is the liveness lease (DefaultTTL when zero); heartbeats are
	// appended every Heartbeat (TTL/3 when zero).
	TTL       time.Duration
	Heartbeat time.Duration
	// Buffer bounds the delivered-message buffer shared by the consumer's
	// partition tails (DefaultBuffer when zero).
	Buffer int
	// Metrics, when set, records group membership and ack counts.
	Metrics *stream.Metrics
}

// Msg is one delivered entry plus the partition bookkeeping Ack needs.
type Msg struct {
	*logapi.Entry
	Partition int

	count uint64 // cumulative per-partition delivery count, carried into the ack
	gen   uint64 // pump generation fencing stale buffered messages
}

// ackPos is the furthest acknowledged gap position observed for one
// partition.
type ackPos struct {
	shard      int
	block, rec int
	count      uint64
	valid      bool
}

func (a ackPos) before(b ackPos) bool {
	if a.block != b.block {
		return a.block < b.block
	}
	return a.rec < b.rec
}

// logPos is a gap position inside the group log itself (Block, Index+1 of
// a record): the fencing epoch a claim cites. The zero value means "no
// ownership event yet".
type logPos struct {
	block, rec int
}

// pump is one running partition tail.
type pump struct {
	cancel context.CancelFunc
	done   chan struct{}
}

// Consumer is one member of a consumer group. Join starts it; Recv/Ack
// drive it; Close leaves gracefully, Kill simulates a crash.
type Consumer struct {
	svc        logapi.StreamService
	me         string
	topic      string
	partitions int
	opt        Options
	logID      logapi.ID

	ctx    context.Context
	cancel context.CancelFunc
	quit   chan struct{}
	once   sync.Once
	wg     sync.WaitGroup
	out    chan *Msg

	// rmu serializes retarget/startConfirmed/leave — the only paths that
	// start and stop pumps.
	rmu sync.Mutex

	mu       sync.Mutex
	members  map[string]int64 // member → group-log timestamp of last join/heartbeat
	lastTS   int64            // newest group-log timestamp observed (the log's clock)
	owner    map[int]string   // partition → current claim holder (valid events only)
	epoch    map[int]logPos   // partition → position of the last valid ownership event
	pending  map[int]bool     // partition → our claim is in the log awaiting its echo
	acked    map[int]ackPos
	assigned map[int]bool
	pumps    map[int]*pump
	counts   map[int]uint64
	gens     map[int]uint64
	ackWG    map[int]*sync.WaitGroup
	failure  error
}

// Join adds a member to a consumer group over a topic with the given
// partition count and returns the running consumer. Every member of a group
// must use the same topic and partition count; member names must be unique
// among live members.
func Join(ctx context.Context, svc logapi.StreamService, grp, member, topic string, partitions int, opt Options) (*Consumer, error) {
	if grp == "" || member == "" || partitions <= 0 {
		return nil, fmt.Errorf("group: need a group name, a member name and a positive partition count")
	}
	if opt.TTL <= 0 {
		opt.TTL = DefaultTTL
	}
	if opt.Heartbeat <= 0 {
		opt.Heartbeat = opt.TTL / 3
	}
	if opt.Buffer <= 0 {
		opt.Buffer = DefaultBuffer
	}
	logID, err := EnsureLog(ctx, svc, grp)
	if err != nil {
		return nil, err
	}
	rctx, cancel := context.WithCancel(context.Background())
	c := &Consumer{
		svc:        svc,
		me:         member,
		topic:      topic,
		partitions: partitions,
		opt:        opt,
		logID:      logID,
		ctx:        rctx,
		cancel:     cancel,
		quit:       make(chan struct{}),
		out:        make(chan *Msg, opt.Buffer),
		members:    make(map[string]int64),
		owner:      make(map[int]string),
		epoch:      make(map[int]logPos),
		pending:    make(map[int]bool),
		acked:      make(map[int]ackPos),
		assigned:   make(map[int]bool),
		pumps:      make(map[int]*pump),
		counts:     make(map[int]uint64),
		gens:       make(map[int]uint64),
		ackWG:      make(map[int]*sync.WaitGroup),
	}
	// Subscribe to the group log before appending the join record so the
	// record — and everything before it — flows through the watch.
	sub, err := svc.Watch(rctx, LogPath(grp), logapi.WatchOptions{FromStart: true})
	if err != nil {
		cancel()
		return nil, err
	}
	if err := c.append(ctx, GroupRec{Kind: GroupJoin, Member: member}); err != nil {
		sub.Close()
		cancel()
		return nil, err
	}
	opt.Metrics.GroupMemberAdd(1)
	c.wg.Add(2)
	go c.watchOffsets(sub)
	go c.manage()
	return c, nil
}

// append writes one group record to the offsets log, forced (an ack must
// not be lost with the tail) and timestamped (record order is audit order,
// and the timestamps are the group's liveness clock).
func (c *Consumer) append(ctx context.Context, rec GroupRec) error {
	_, err := c.svc.Append(ctx, c.logID, rec.Encode(nil),
		logapi.AppendOptions{Forced: true, Timestamped: true})
	return err
}

// watchOffsets replays and tails the group log, feeding every record
// through apply and re-deriving the assignment.
func (c *Consumer) watchOffsets(sub logapi.Subscription) {
	defer c.wg.Done()
	defer sub.Close()
	for {
		e, err := sub.Recv(c.ctx)
		if err != nil {
			if c.ctx.Err() == nil {
				c.fail(fmt.Errorf("group: offsets watch: %w", err))
			}
			return
		}
		rec, err := DecodeGroupRec(e.Data)
		if err != nil {
			continue // not a group record; ignore
		}
		if p := c.apply(e, rec); p >= 0 {
			c.startConfirmed(p)
		}
		c.retarget()
	}
}

// apply folds one group record into the membership state and returns the
// partition whose claim by this member just echoed back valid (-1
// otherwise). The fold is a pure function of the log prefix: claim
// validity, ownership and liveness never consult local time, so every
// member — and the offline audit — agrees record by record.
func (c *Consumer) apply(e *logapi.Entry, rec *GroupRec) int {
	confirmed := -1
	p := int(rec.Partition)
	pos := logPos{block: e.Block, rec: e.Index + 1}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e.Timestamp > c.lastTS {
		c.lastTS = e.Timestamp
	}
	switch rec.Kind {
	case GroupJoin, GroupHeartbeat:
		if e.Timestamp > c.members[rec.Member] {
			c.members[rec.Member] = e.Timestamp
		}
	case GroupLeave:
		delete(c.members, rec.Member)
		for q, o := range c.owner {
			if o == rec.Member {
				delete(c.owner, q)
				c.epoch[q] = pos
			}
		}
	case GroupClaim:
		cite := logPos{block: int(rec.Block), rec: int(rec.Rec)}
		if valid := cite == c.epoch[p]; valid {
			if c.owner[p] == c.me && rec.Member != c.me {
				// A valid takeover of a partition we hold (our lease looked
				// expired to the claimer): fence our acks immediately; the
				// retarget that follows stops the pump.
				delete(c.assigned, p)
			}
			c.owner[p] = rec.Member
			c.epoch[p] = pos
			if rec.Member == c.me && c.pending[p] {
				confirmed = p
			}
		}
		if rec.Member == c.me {
			delete(c.pending, p) // echoed — valid or void, it is resolved
		}
	case GroupRelease:
		if c.owner[p] == rec.Member {
			delete(c.owner, p)
			c.epoch[p] = pos
		}
	case GroupAck:
		if c.owner[p] != rec.Member {
			break // void: landed after the member lost the partition
		}
		st := ackPos{shard: int(rec.Shard), block: int(rec.Block), rec: int(rec.Rec), count: rec.Count, valid: true}
		if cur := c.acked[p]; !cur.valid || cur.before(st) {
			c.acked[p] = st
		}
	}
	return confirmed
}

// manage appends heartbeats and re-derives the assignment on every tick (a
// member may have expired); on Close it performs the graceful leave.
func (c *Consumer) manage() {
	defer c.wg.Done()
	defer c.opt.Metrics.GroupMemberAdd(-1)
	t := time.NewTicker(c.opt.Heartbeat)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			c.append(c.ctx, GroupRec{Kind: GroupHeartbeat, Member: c.me})
			c.retarget()
		case <-c.quit:
			c.leave()
			return
		case <-c.ctx.Done():
			return
		}
	}
}

// liveLocked returns the sorted live-member list; the caller holds c.mu.
// A member is live while its last join/heartbeat timestamp is within TTL
// of the newest group-log timestamp observed: the log is its own liveness
// clock, so the live set depends only on the applied prefix. (Local
// receipt time would diverge across members — a joiner replaying the log
// would restart every dead member's lease at its own join time.)
func (c *Consumer) liveLocked() []string {
	live := make([]string, 0, len(c.members))
	for m, ts := range c.members {
		if c.lastTS-ts <= int64(c.opt.TTL) {
			live = append(live, m)
		}
	}
	sort.Strings(live)
	return live
}

// retarget re-derives the deterministic assignment (partition p → sorted
// live member p mod n) and converges the running pumps to it: lost
// partitions stop, drain their in-flight acks and append a release; gained
// partitions are claimed — citing the fencing epoch — once the previous
// holder has released or expired. Pumps start in startConfirmed, never
// here: delivery waits for the claim's valid echo.
func (c *Consumer) retarget() {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	select {
	case <-c.quit:
		return // the leave path owns the pumps now
	default:
	}
	c.mu.Lock()
	live := c.liveLocked()
	mine := make(map[int]bool)
	if len(live) > 0 {
		for p := 0; p < c.partitions; p++ {
			if live[p%len(live)] == c.me {
				mine[p] = true
			}
		}
	}
	type handoff struct {
		p       int
		pu      *pump
		wg      *sync.WaitGroup
		release bool
	}
	var drop []handoff
	for p, pu := range c.pumps {
		if mine[p] && c.owner[p] == c.me {
			continue
		}
		// Lost the assignment (normal handoff: release after the drain) or
		// the ownership itself (a valid takeover fenced us; the new owner's
		// claim is already in the log, there is nothing to release).
		drop = append(drop, handoff{p, pu, c.ackWG[p], c.owner[p] == c.me})
		delete(c.pumps, p)
		delete(c.assigned, p)
	}
	var take []int
	var cites []logPos
	for p := range mine {
		if c.pumps[p] != nil || c.pending[p] {
			continue
		}
		if o, held := c.owner[p]; held && o != c.me {
			if ts, ok := c.members[o]; ok && c.lastTS-ts <= int64(c.opt.TTL) {
				continue // a live holder has not released yet; the release record will retrigger us
			}
		}
		c.pending[p] = true
		take = append(take, p)
		cites = append(cites, c.epoch[p])
	}
	c.mu.Unlock()

	for _, d := range drop {
		// Stop consuming, drain in-flight acks, then release: the release
		// record lands after our last ack in the group log's total order,
		// so the claimer's resume position covers everything we acked.
		d.pu.cancel()
		<-d.pu.done
		if d.wg != nil {
			d.wg.Wait()
		}
		if d.release {
			c.append(c.ctx, GroupRec{Kind: GroupRelease, Member: c.me, Partition: uint32(d.p)})
		}
	}
	for i, p := range take {
		// The claim cites the last ownership event we observed. If another
		// claim citing the same event lands first, ours is void when it
		// echoes and we never start delivering.
		err := c.append(c.ctx, GroupRec{
			Kind: GroupClaim, Member: c.me, Partition: uint32(p),
			Block: uint64(cites[i].block), Rec: uint64(cites[i].rec),
		})
		if err != nil {
			c.mu.Lock()
			delete(c.pending, p)
			c.mu.Unlock()
		}
	}
}

// startConfirmed starts the pump for a partition whose claim just echoed
// back valid. At this point in the fold we are the owner, and acked
// includes every valid ack that preceded our claim in the log — so the
// resume position is exact by total order, not by local timing.
func (c *Consumer) startConfirmed(p int) {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	select {
	case <-c.quit:
		return
	default:
	}
	c.mu.Lock()
	if c.pumps[p] != nil || c.owner[p] != c.me || c.ctx.Err() != nil {
		c.mu.Unlock()
		return
	}
	pctx, cancel := context.WithCancel(c.ctx)
	pu := &pump{cancel: cancel, done: make(chan struct{})}
	c.pumps[p] = pu
	c.assigned[p] = true
	c.gens[p]++
	gen := c.gens[p]
	st := c.acked[p]
	c.counts[p] = st.count
	if c.ackWG[p] == nil {
		c.ackWG[p] = &sync.WaitGroup{}
	}
	c.mu.Unlock()
	c.wg.Add(1)
	go c.runPump(pctx, p, gen, st, pu)
}

// runPump tails one partition into the shared delivery buffer.
func (c *Consumer) runPump(ctx context.Context, p int, gen uint64, st ackPos, pu *pump) {
	defer c.wg.Done()
	defer close(pu.done)
	var opts logapi.WatchOptions
	if st.valid {
		opts.From = []logapi.Position{{Shard: st.shard, Block: st.block, Rec: st.rec}}
	} else {
		opts.FromStart = true
	}
	sub, err := c.svc.Watch(ctx, PartitionPath(c.topic, p), opts)
	if err != nil {
		if ctx.Err() == nil {
			c.fail(fmt.Errorf("group: watch partition %d: %w", p, err))
		}
		return
	}
	defer sub.Close()
	for {
		e, err := sub.Recv(ctx)
		if err != nil {
			if ctx.Err() == nil {
				c.fail(fmt.Errorf("group: partition %d: %w", p, err))
			}
			return
		}
		c.mu.Lock()
		c.counts[p]++
		cnt := c.counts[p]
		c.mu.Unlock()
		m := &Msg{Entry: e, Partition: p, count: cnt, gen: gen}
		select {
		case c.out <- m:
		case <-ctx.Done():
			return
		}
	}
}

// Recv returns the next delivered message from any assigned partition.
// Within a partition, messages arrive in log order.
func (c *Consumer) Recv(ctx context.Context) (*Msg, error) {
	select {
	case m := <-c.out:
		return m, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-c.ctx.Done():
		if err := c.Err(); err != nil {
			return nil, err
		}
		return nil, ErrClosed
	}
}

// Ack durably acknowledges a message on behalf of the group: one forced
// record in the offsets log carrying the gap position after the entry. A
// message whose partition has moved since delivery is refused (ErrNotOwner)
// — dropping it is correct, because only the current owner redelivers.
func (c *Consumer) Ack(ctx context.Context, m *Msg) error {
	c.mu.Lock()
	if !c.assigned[m.Partition] || c.gens[m.Partition] != m.gen {
		c.mu.Unlock()
		return ErrNotOwner
	}
	wg := c.ackWG[m.Partition]
	wg.Add(1)
	c.mu.Unlock()
	defer wg.Done()
	err := c.append(ctx, GroupRec{
		Kind:      GroupAck,
		Member:    c.me,
		Partition: uint32(m.Partition),
		Shard:     uint32(m.Entry.Shard),
		Block:     uint64(m.Entry.Block),
		Rec:       uint64(m.Entry.Index + 1),
		Count:     m.count,
	})
	if err != nil {
		return err
	}
	c.opt.Metrics.GroupAckInc()
	c.mu.Lock()
	st := ackPos{shard: m.Entry.Shard, block: m.Entry.Block, rec: m.Entry.Index + 1, count: m.count, valid: true}
	if cur := c.acked[m.Partition]; !cur.valid || cur.before(st) {
		c.acked[m.Partition] = st
	}
	c.mu.Unlock()
	return nil
}

// Err returns the failure that stopped the consumer, if any.
func (c *Consumer) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.failure
}

func (c *Consumer) fail(err error) {
	c.mu.Lock()
	if c.failure == nil {
		c.failure = err
	}
	c.mu.Unlock()
	c.cancel()
}

// leave is the graceful exit: stop every pump, drain in-flight acks,
// release each held partition, append the leave record, then tear down.
func (c *Consumer) leave() {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	c.mu.Lock()
	held := make(map[int]*pump, len(c.pumps))
	wgs := make(map[int]*sync.WaitGroup, len(c.pumps))
	for p, pu := range c.pumps {
		held[p] = pu
		wgs[p] = c.ackWG[p]
	}
	c.pumps = make(map[int]*pump)
	c.assigned = make(map[int]bool)
	c.mu.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	for p, pu := range held {
		pu.cancel()
		<-pu.done
		if wgs[p] != nil {
			wgs[p].Wait()
		}
		c.append(ctx, GroupRec{Kind: GroupRelease, Member: c.me, Partition: uint32(p)})
	}
	// The leave record clears any partition still owned — including one
	// whose claim is in flight and will land before it in the log.
	c.append(ctx, GroupRec{Kind: GroupLeave, Member: c.me})
	c.cancel()
}

// Close leaves the group gracefully: held partitions are released so the
// remaining members take them over immediately, without waiting out the
// TTL.
func (c *Consumer) Close() error {
	c.once.Do(func() { close(c.quit) })
	c.wg.Wait()
	return nil
}
