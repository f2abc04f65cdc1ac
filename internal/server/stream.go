package server

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"clio/internal/logapi"
	"clio/internal/wire"
)

// DefaultStreamCredit is the delivery window granted to a subscription whose
// subscribe payload leaves Credit zero.
const DefaultStreamCredit = 256

// maxStreamBuffer caps the server-side delivery buffer a client may request.
const maxStreamBuffer = 1 << 14

// connStreams is one connection's subscription registry. Subscriptions are
// connection-domain (like cursors are session-domain): tearing down the
// connection tears down its subscriptions, and a reconnecting client
// re-subscribes from its last delivered position.
type connStreams struct {
	srv *Server
	// h is the owning connection's handler; subscribe consults its tenant
	// binding to scope watch paths.
	h *connHandler
	// write is the connection's serialized frame writer (ServeConn's
	// closure); kill closes the connection to wake its read loop after a
	// pusher's write failed.
	write func(seq, trace uint64, rep reply) bool
	kill  func()
	wg    *sync.WaitGroup

	mu     sync.Mutex
	next   uint32
	subs   map[uint32]*connSub
	closed bool
}

// connSub is one live subscription: the store-side Sub plus the client's
// delivery window.
type connSub struct {
	id     uint32
	sub    logapi.Subscription
	ctx    context.Context
	cancel context.CancelFunc
	// credit is the remaining delivery window; the pusher parks on wake
	// when it hits zero and OpStreamCredit tops it up.
	credit atomic.Int64
	wake   chan struct{}
}

func newConnStreams(srv *Server, h *connHandler, write func(uint64, uint64, reply) bool, kill func(), wg *sync.WaitGroup) *connStreams {
	return &connStreams{srv: srv, h: h, write: write, kill: kill, wg: wg, subs: make(map[uint32]*connSub)}
}

// handle processes one streaming control frame inline in the read loop; the
// return value mirrors write's (false ends the connection). A new
// subscription's pusher starts only after the subscribe response is written,
// so its first deliver cannot overtake the response onto the wire.
func (cs *connStreams) handle(op byte, seq, traceID uint64, payload []byte) bool {
	rep, started := cs.control(op, payload)
	ok := cs.write(seq, traceID, rep)
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
	opts := logapi.WatchOptions{
		Buffer:    int(min(req.Buffer, maxStreamBuffer)),
		FromStart: req.FromStart,
	}
	for _, p := range req.From {
		opts.From = append(opts.From, logapi.Position{Shard: int(p.Shard), Block: int(p.Block), Rec: int(p.Rec)})
	}
	sub, err := cs.srv.store.Watch(context.Background(), req.Path, opts)
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

// push is the per-subscription pusher: wait for credit, receive from the
// store-side subscription, write one deliver frame. The entry data rides as
// a borrowed writev chunk — the same zero-copy path sealed reads use.
func (cs *connStreams) push(c *connSub) {
	defer cs.wg.Done()
	for {
		if c.credit.Load() <= 0 {
			select {
			case <-c.wake:
			case <-c.ctx.Done():
				return
			}
			continue
		}
		e, err := c.sub.Recv(c.ctx)
		if err != nil {
			if c.ctx.Err() != nil {
				return // local unsubscribe or connection teardown
			}
			// The subscription ended underneath (service closed, media
			// loss): tell the client, then retire the registration.
			end := wire.StreamEnd{SubID: c.id, Msg: err.Error()}
			cs.write(uint64(c.id), 0, reply{status: wire.OpStreamEnd, head: end.Encode(nil)})
			cs.remove(c.id)
			return
		}
		d := wire.StreamDeliver{
			SubID:     c.id,
			LogID:     e.LogID,
			Timestamp: e.Timestamp,
			Shard:     uint32(e.Shard),
			Block:     uint64(e.Block),
			Index:     uint64(e.Index),
			ExtraIDs:  e.ExtraIDs,
			Data:      e.Data,
		}
		if e.Timestamped {
			d.Flags |= EntryTimestamped
		}
		if e.Forced {
			d.Flags |= EntryForced
		}
		if !cs.write(uint64(c.id), 0, reply{status: wire.OpStreamDeliver, head: d.EncodeHead(nil), body: e.Data}) {
			cs.kill() // wake the read loop; teardown closes the subscription
			return
		}
		c.credit.Add(-1)
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

// endAll gracefully retires every subscription for a server drain: each
// pusher is cancelled first (so at most its in-progress deliver precedes the
// end frame on the write mutex), then the client receives an OpStreamEnd
// frame naming the reason — the subscription ends, the connection is not
// reset. closeAll afterwards finds nothing left.
func (cs *connStreams) endAll(msg string) {
	cs.mu.Lock()
	subs := make([]*connSub, 0, len(cs.subs))
	for _, c := range cs.subs {
		subs = append(subs, c)
	}
	cs.subs = map[uint32]*connSub{}
	cs.mu.Unlock()
	for _, c := range subs {
		c.cancel()
		end := wire.StreamEnd{SubID: c.id, Msg: msg}
		cs.write(uint64(c.id), 0, reply{status: wire.OpStreamEnd, head: end.Encode(nil)})
		c.sub.Close()
	}
}

// closeAll tears down every subscription at connection end. Pushers observe
// the canceled contexts and exit; the caller's inflight.Wait() joins them.
func (cs *connStreams) closeAll() {
	cs.mu.Lock()
	cs.closed = true
	subs := make([]*connSub, 0, len(cs.subs))
	for _, c := range cs.subs {
		subs = append(subs, c)
	}
	cs.subs = map[uint32]*connSub{}
	cs.mu.Unlock()
	for _, c := range subs {
		c.cancel()
		c.sub.Close()
	}
}
