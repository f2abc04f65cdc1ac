package server

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"clio/internal/logapi"
	"clio/internal/shard"
	"clio/internal/wire"
)

// DefaultStreamCredit is the delivery window granted to a subscription whose
// subscribe payload leaves Credit zero.
const DefaultStreamCredit = 256

// deliverBatch is about how many bytes of deliver frames a pusher writes at
// once: it stops queueing after the frame that crosses it.
const deliverBatch = 64 << 10

// connStreams is one connection's subscription registry. Subscriptions are
// connection-domain (like cursors are session-domain): tearing down the
// connection tears down its subscriptions, and a reconnecting client
// re-subscribes from its last delivered position.
type connStreams struct {
	srv *Server
	// h is the owning connection's handler; subscribe consults its tenant
	// binding to scope watch paths.
	h *connHandler
	// send writes whole frames under the connection's write lock
	// (ServeConn's closure); kill closes the connection to wake its read
	// loop after a pusher's write failed.
	send func(frames []byte) bool
	kill func()
	wg   *sync.WaitGroup

	mu     sync.Mutex
	next   uint32
	subs   map[uint32]*connSub
	closed bool
}

// connSub is one live subscription: the store-side Sub plus the client's
// delivery window.
type connSub struct {
	id     uint32
	sub    *shard.Sub
	ctx    context.Context
	cancel context.CancelFunc
	// credit is the remaining delivery window; the pusher parks on wake
	// when it hits zero and OpStreamCredit tops it up.
	credit atomic.Int64
	wake   chan struct{}
}

func newConnStreams(srv *Server, h *connHandler, send func([]byte) bool, kill func(), wg *sync.WaitGroup) *connStreams {
	return &connStreams{srv: srv, h: h, send: send, kill: kill, wg: wg, subs: make(map[uint32]*connSub)}
}

// handle processes one streaming control frame inline in the read loop; the
// return value mirrors send's (false ends the connection). A new
// subscription's pusher starts only after the subscribe response is written,
// so its first deliver cannot overtake the response onto the wire.
func (cs *connStreams) handle(op byte, seq, traceID uint64, payload []byte) bool {
	rep, started := cs.control(op, payload)
	ok := cs.send(appendFrame(nil, rep.status, seq, traceID, rep.head))
	if started != nil {
		cs.wg.Add(1)
		go cs.push(started)
	}
	return ok
}

// control executes one streaming control op; started is the subscription a
// subscribe registered, whose pusher the caller owes.
func (cs *connStreams) control(op byte, payload []byte) (rep reply, started *connSub) {
	switch op {
	case wire.OpStreamSubscribe:
		req, err := wire.DecodeStreamSubscribe(payload)
		if err != nil {
			return errReply(err), nil
		}
		c, err := cs.subscribe(req)
		if err != nil {
			return errReply(err), nil
		}
		return okReply(wire.PutUint32(nil, c.id)), c

	case wire.OpStreamCredit:
		req, err := wire.DecodeStreamCredit(payload)
		if err != nil {
			return errReply(err), nil
		}
		cs.mu.Lock()
		c := cs.subs[req.SubID]
		cs.mu.Unlock()
		if c == nil {
			return errReply(fmt.Errorf("server: unknown subscription %d", req.SubID)), nil
		}
		c.grant(int64(req.Credit))
		return okReply(nil), nil

	case wire.OpStreamUnsubscribe:
		req, err := wire.DecodeStreamUnsubscribe(payload)
		if err != nil {
			return errReply(err), nil
		}
		cs.remove(req.SubID)
		return okReply(nil), nil
	}
	return errReply(fmt.Errorf("server: stream op %#x is not connection-scoped", op)), nil
}

// subscribe opens the store-side subscription and registers it; the caller
// starts its pusher.
func (cs *connStreams) subscribe(req *wire.StreamSubscribe) (*connSub, error) {
	if cs.srv.tenanted() {
		ts := cs.h.tenant
		if ts == nil {
			return nil, fmt.Errorf("server: authentication required")
		}
		if m := ts.met.Load(); m != nil {
			m.requests.Inc()
		}
		if err := ts.allowsPath(req.Path); err != nil {
			return nil, err
		}
	}
	// req.Buffer, a window older clients also send as Credit, sizes
	// nothing: the subscription reads the store directly.
	opts := logapi.WatchOptions{FromStart: req.FromStart}
	for _, p := range req.From {
		opts.From = append(opts.From, logapi.Position{Shard: int(p.Shard), Block: int(p.Block), Rec: int(p.Rec)})
	}
	sub, err := cs.srv.store.Subscribe(context.Background(), req.Path, opts)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	c := &connSub{sub: sub, ctx: ctx, cancel: cancel, wake: make(chan struct{}, 1)}
	credit := int64(req.Credit)
	if credit == 0 {
		credit = DefaultStreamCredit
	}
	c.credit.Store(credit)
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.closed {
		cancel()
		sub.Close()
		return nil, fmt.Errorf("server: connection closing")
	}
	cs.next++
	c.id = cs.next
	cs.subs[c.id] = c
	return c, nil
}

// push is the per-subscription pusher: wait for credit, then queue the
// deliver frames of as many entries as the credit allows and the
// subscription has readable (about deliverBatch bytes at most) and write
// them at once. It is the subscription's only goroutine: the store-side Sub
// runs in it.
func (cs *connStreams) push(c *connSub) {
	defer cs.wg.Done()
	var frames []byte
	// A deliver frame is at most core.MaxEntrySize of data and a head, far
	// below MaxFrame.
	visit := func(e *logapi.Entry) bool {
		at := len(frames)
		frames = AppendDeliver(appendFrameHeader(frames, wire.OpStreamDeliver, uint64(c.id), 0, 0), c.id, e)
		binary.LittleEndian.PutUint32(frames[at:], uint32(len(frames)-at-4))
		return len(frames) < deliverBatch
	}
	for {
		credit := c.credit.Load()
		if credit <= 0 {
			select {
			case <-c.wake:
			case <-c.ctx.Done():
				return
			}
			continue
		}
		frames = frames[:0]
		n, err := c.sub.RecvEach(c.ctx, int(credit), visit)
		if err != nil {
			if c.ctx.Err() != nil {
				return // local unsubscribe or connection teardown
			}
			// The subscription ended underneath (service closed, media
			// loss): tell the client, then retire the registration.
			end := wire.StreamEnd{SubID: c.id, Msg: err.Error()}
			cs.send(appendFrame(nil, wire.OpStreamEnd, uint64(c.id), 0, end.Encode(nil)))
			cs.remove(c.id)
			return
		}
		c.credit.Add(-int64(n))
		if !cs.send(frames) {
			cs.kill() // wake the read loop; teardown closes the subscription
			return
		}
		if cap(frames) > keepBuffer {
			frames = nil
		}
	}
}

// grant tops up the delivery window and wakes a parked pusher.
func (c *connSub) grant(n int64) {
	c.credit.Add(n)
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// remove retires one subscription: cancel its pusher, close the store-side
// sub.
func (cs *connStreams) remove(id uint32) {
	cs.mu.Lock()
	c := cs.subs[id]
	delete(cs.subs, id)
	cs.mu.Unlock()
	if c != nil {
		c.cancel()
		c.sub.Close()
	}
}

// active reports how many subscriptions the connection holds. The read loop
// consults it to suspend the idle timeout: a subscription connection is
// supposed to sit quiet between pushes, and dropping it would tear down the
// very tails it exists to keep open.
func (cs *connStreams) active() int {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return len(cs.subs)
}

// closeAll retires every subscription at connection end; the connection
// takes no new one. Pushers observe the canceled contexts and exit, and the
// caller's inflight.Wait() joins them. For a server drain, reason is set
// and each client gets an OpStreamEnd frame naming it — the subscription
// ends, the connection is not reset; its pusher is cancelled first, so at
// most its in-progress batch precedes the end frame on the write mutex.
func (cs *connStreams) closeAll(reason string) {
	cs.mu.Lock()
	cs.closed = true
	subs := cs.subs
	cs.subs = map[uint32]*connSub{}
	cs.mu.Unlock()
	for _, c := range subs {
		c.cancel()
		if reason != "" {
			end := wire.StreamEnd{SubID: c.id, Msg: reason}
			cs.send(appendFrame(nil, wire.OpStreamEnd, uint64(c.id), 0, end.Encode(nil)))
		}
		c.sub.Close()
	}
}
