// Streaming reads over the wire: Client.Watch opens a live tail
// subscription on a DEDICATED connection — the main connection's strict
// request/response pairing stays untouched while the server pushes deliver
// frames as group commit publishes entries. Flow control is credit-based:
// the subscribe grants a window, and the receiver tops it up as the consumer
// drains, so a slow consumer throttles the server instead of ballooning
// either side's buffers.
package client

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"clio/internal/logapi"
	"clio/internal/server"
	"clio/internal/stream"
	"clio/internal/wire"
)

var _ logapi.StreamService = (*Client)(nil)

// Watch opens a live tail subscription to the log file at path. The
// subscription runs on its own connection (dialed with the client's dialer),
// so delivers never interleave with the main connection's request/response
// traffic. A Client wrapped around a bare connection with New has no dialer
// and cannot Watch. opts.Buffer is the credit window.
func (c *Client) Watch(ctx context.Context, path string, opts logapi.WatchOptions) (logapi.Subscription, error) {
	raw, err := c.dialStream(ctx)
	if err != nil {
		return nil, err
	}
	// One frame reader for the connection's life: the handshake's reads and
	// the receive loop's share it, so a push that arrived in the same read
	// as the subscribe answer is already buffered for the loop.
	s := &remoteSub{conn: server.NewFrameConn(raw), window: opts.Buffer}
	if s.window <= 0 {
		s.window = server.DefaultStreamCredit
	}
	if err := c.subscribe(ctx, s, path, opts); err != nil {
		s.conn.Close()
		return nil, err
	}
	s.conn.SetDeadline(time.Time{}) // the handshake's
	s.out = make(chan *Entry, s.window)
	go s.recvLoop()
	return s, nil
}

// subscribe runs the handshake on the fresh connection: a hello for a
// tenant, then the subscribe, whose answer is the subscription id. After it
// succeeds the only frames the server sends are pushes.
func (c *Client) subscribe(ctx context.Context, s *remoteSub, path string, opts logapi.WatchOptions) error {
	if c.opt.Tenant != "" {
		// The dedicated connection authenticates like the main one: a
		// multi-tenant server refuses unauthenticated subscribes. Session 0
		// keeps the binding connection-private.
		hello := wire.Hello{Tenant: c.opt.Tenant, Token: c.opt.Token}.Encode(nil)
		status, r, err := c.roundTrip(ctx, s.conn, server.OpHello, 0, 0, hello)
		if err != nil {
			return err
		}
		if status != server.StatusOK {
			return errors.New("client: " + statusMessage(r, fmt.Sprintf("watch handshake rejected (status %d)", status)))
		}
	}
	// Buffer repeats the window for servers that sized a buffer with it.
	req := wire.StreamSubscribe{Path: path, Buffer: uint32(s.window), FromStart: opts.FromStart, Credit: uint32(s.window)}
	for _, p := range opts.From {
		req.From = append(req.From, wire.StreamPos{Shard: uint32(p.Shard), Block: uint64(p.Block), Rec: uint64(p.Rec)})
	}
	status, r, err := c.roundTrip(ctx, s.conn, wire.OpStreamSubscribe, 1, traceID(c.session, 1), req.Encode(nil))
	if err != nil {
		return err
	}
	if status != server.StatusOK {
		return errors.New("client: " + statusMessage(r, fmt.Sprintf("subscribe rejected (status %d)", status)))
	}
	s.subID = r.Uint32()
	return r.Err()
}

// dialStream establishes the dedicated subscription connection.
func (c *Client) dialStream(ctx context.Context) (net.Conn, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClosed
	}
	if c.opt.Dialer != nil {
		return c.opt.Dialer(ctx)
	}
	if len(c.addrs) > 0 {
		return c.opt.DialAddr(ctx, c.pickAddrLocked())
	}
	return nil, errors.New("client: Watch needs a redialable client (Dial/DialContext)")
}

// remoteSub is a live subscription over its own connection.
type remoteSub struct {
	conn   *server.FrameConn
	subID  uint32
	window int

	// out carries the pushed entries; the receive loop closes it when the
	// subscription ends, after setting err to why.
	out chan *Entry
	err error

	// wmu serializes frame writes (credit grants from the Recv path,
	// unsubscribe from Close) against each other, and guards conn's write
	// buffer.
	wmu sync.Mutex

	// drained counts entries handed to the consumer since the last credit
	// grant; at window/2 the receiver tops the server back up.
	drained int

	closed atomic.Bool
}

var _ logapi.Subscription = (*remoteSub)(nil)

// recvLoop is the dedicated connection's only reader: it turns pushed
// deliver frames into buffered entries until the subscription ends.
func (s *remoteSub) recvLoop() {
	defer close(s.out)
	for {
		// Owned: a delivered entry's data aliases its frame's payload.
		status, _, _, payload, err := s.conn.ReadFrameOwned()
		if err != nil {
			s.err = err
			return
		}
		switch status {
		case wire.OpStreamDeliver:
			_, e, err := server.DecodeDeliver(payload)
			if err != nil {
				s.err = err
				return
			}
			// The buffer is sized to the credit window, so this send cannot
			// block for long: the server never has more than window entries
			// outstanding.
			s.out <- e
		case wire.OpStreamEnd:
			end, err := wire.DecodeStreamEnd(payload)
			if err == nil {
				err = fmt.Errorf("client: subscription ended by server: %s", end.Msg)
			}
			s.err = err
			return
		default:
			// A stray status frame (late response); ignore.
		}
	}
}

// Recv returns the next delivered entry, granting the server fresh credit
// as the window drains. After Close it returns stream.ErrClosed.
func (s *remoteSub) Recv(ctx context.Context) (*Entry, error) {
	select {
	case e, ok := <-s.out:
		if !ok {
			if s.closed.Load() {
				return nil, stream.ErrClosed
			}
			return nil, s.err
		}
		s.drained++
		if s.drained >= s.window/2 {
			grant := wire.StreamCredit{SubID: s.subID, Credit: uint32(s.drained)}
			s.drained = 0
			s.wmu.Lock()
			// Best-effort: a dead connection surfaces in the receive loop.
			s.conn.WriteFrame(wire.OpStreamCredit, 0, 0, grant.Encode(nil))
			s.wmu.Unlock()
		}
		return e, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Close ends the subscription: best-effort unsubscribe, then the connection
// closes (which also stops the receive loop).
func (s *remoteSub) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	un := wire.StreamUnsubscribe{SubID: s.subID}
	s.wmu.Lock()
	s.conn.WriteFrame(wire.OpStreamUnsubscribe, 0, 0, un.Encode(nil))
	s.wmu.Unlock()
	s.conn.Close()
	return nil
}
