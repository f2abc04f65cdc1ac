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
	"time"

	"clio/internal/logapi"
	"clio/internal/server"
	"clio/internal/wire"
)

var _ logapi.StreamService = (*Client)(nil)

// ErrSubClosed is returned by Recv after the subscription is closed.
var ErrSubClosed = errors.New("client: subscription closed")

// Watch opens a live tail subscription to the log file at path. The
// subscription runs on its own connection (dialed with the client's dialer),
// so delivers never interleave with the main connection's request/response
// traffic. A Client wrapped around a bare connection with New has no dialer
// and cannot Watch.
func (c *Client) Watch(ctx context.Context, path string, opts logapi.WatchOptions) (logapi.Subscription, error) {
	raw, err := c.dialStream(ctx)
	if err != nil {
		return nil, err
	}
	// One frame reader for the connection's life: the handshake's reads and
	// the receive loop's share it, so a push that arrived in the same read
	// as the subscribe answer is already buffered for the loop.
	conn := server.NewFrameConn(raw)
	if c.opt.Tenant != "" {
		// The dedicated connection authenticates like the main one: a
		// multi-tenant server refuses unauthenticated subscribes. Session 0
		// keeps the binding connection-private.
		hello := wire.Hello{Tenant: c.opt.Tenant, Token: c.opt.Token}.Encode(nil)
		status, r, err := c.roundTrip(ctx, conn, server.OpHello, 0, 0, hello)
		if err != nil {
			conn.Close()
			return nil, err
		}
		if status != server.StatusOK {
			conn.Close()
			return nil, errors.New("client: " + statusMessage(r, fmt.Sprintf("watch handshake rejected (status %d)", status)))
		}
	}
	window := opts.Buffer
	if window <= 0 {
		window = server.DefaultStreamCredit
	}
	req := wire.StreamSubscribe{
		Path:      path,
		Buffer:    uint32(window),
		FromStart: opts.FromStart,
		Credit:    uint32(window),
	}
	for _, p := range opts.From {
		req.From = append(req.From, wire.StreamPos{Shard: uint32(p.Shard), Block: uint64(p.Block), Rec: uint64(p.Rec)})
	}
	// The subscribe handshake is synchronous on the fresh connection; after
	// it succeeds the only frames the server sends are pushes.
	status, r, err := c.roundTrip(ctx, conn, wire.OpStreamSubscribe, 1, traceID(c.session, 1), req.Encode(nil))
	if err != nil {
		conn.Close()
		return nil, err
	}
	if status != server.StatusOK {
		conn.Close()
		return nil, errors.New("client: " + statusMessage(r, fmt.Sprintf("subscribe rejected (status %d)", status)))
	}
	subID := r.Uint32()
	if r.Err() != nil {
		conn.Close()
		return nil, r.Err()
	}
	conn.SetDeadline(noDeadline)
	s := &remoteSub{
		conn:   conn,
		subID:  subID,
		window: window,
		out:    make(chan *Entry, window),
	}
	go s.recvLoop()
	return s, nil
}

// noDeadline clears a connection deadline set during the handshake.
var noDeadline = func() (t time.Time) { return }()

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

	out chan *Entry

	// wmu serializes frame writes (credit grants from the Recv path,
	// unsubscribe from Close) against each other, and guards conn's write
	// buffer.
	wmu sync.Mutex

	// drained counts entries handed to the consumer since the last credit
	// grant; at window/2 the receiver tops the server back up.
	drained int

	closeOnce sync.Once
	closedFlg bool

	mu      sync.Mutex
	failure error
}

var _ logapi.Subscription = (*remoteSub)(nil)

// recvLoop is the dedicated connection's only reader: it turns pushed
// deliver frames into buffered entries until the subscription ends.
func (s *remoteSub) recvLoop() {
	defer close(s.out)
	for {
		// Borrowed: DecodeStreamDeliver copies the entry data it keeps.
		status, _, _, payload, err := s.conn.ReadFrame()
		if err != nil {
			s.fail(err)
			return
		}
		switch status {
		case wire.OpStreamDeliver:
			d, err := wire.DecodeStreamDeliver(payload)
			if err != nil {
				s.fail(err)
				return
			}
			e := &Entry{
				LogID:       d.LogID,
				Timestamp:   d.Timestamp,
				Timestamped: d.Flags&server.EntryTimestamped != 0,
				Forced:      d.Flags&server.EntryForced != 0,
				Shard:       int(d.Shard),
				Block:       int(d.Block),
				Index:       int(d.Index),
				ExtraIDs:    d.ExtraIDs,
				Data:        d.Data,
			}
			// The buffer is sized to the credit window, so this send cannot
			// block for long: the server never has more than window entries
			// outstanding.
			s.out <- e
		case wire.OpStreamEnd:
			if end, err := wire.DecodeStreamEnd(payload); err == nil {
				s.fail(fmt.Errorf("client: subscription ended by server: %s", end.Msg))
			} else {
				s.fail(err)
			}
			return
		default:
			// A stray status frame (late response); ignore.
		}
	}
}

func (s *remoteSub) fail(err error) {
	s.mu.Lock()
	if s.failure == nil && !s.closedFlg {
		s.failure = err
	}
	s.mu.Unlock()
}

// Recv returns the next delivered entry, granting the server fresh credit
// as the window drains.
func (s *remoteSub) Recv(ctx context.Context) (*Entry, error) {
	select {
	case e, ok := <-s.out:
		if !ok {
			return nil, s.endErr()
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

func (s *remoteSub) endErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failure != nil {
		return s.failure
	}
	return ErrSubClosed
}

// Close ends the subscription: best-effort unsubscribe, then the connection
// closes (which also stops the receive loop).
func (s *remoteSub) Close() error {
	s.closeOnce.Do(func() {
		s.mu.Lock()
		s.closedFlg = true
		s.mu.Unlock()
		un := wire.StreamUnsubscribe{SubID: s.subID}
		s.wmu.Lock()
		s.conn.WriteFrame(wire.OpStreamUnsubscribe, 0, 0, un.Encode(nil))
		s.wmu.Unlock()
		s.conn.Close()
	})
	return nil
}
