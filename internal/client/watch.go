// Streaming reads over the wire: a live tail subscription is a remote
// cursor that waits, on a DEDICATED connection so that no request of the
// main connection queues behind a waiting pull. Recv drains its buffered
// batch, else pulls with a plain OpNext, answered with a batch as soon as
// there is one: a consumer that stops calling Recv asks for nothing, so
// flow control needs no window.
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
// in that connection's own session, and sends its first pull before it
// returns. A Client wrapped around a bare connection with New has no dialer
// and cannot Watch.
func (c *Client) Watch(ctx context.Context, path string, opts logapi.WatchOptions) (logapi.Subscription, error) {
	raw, err := c.dialStream(ctx)
	if err != nil {
		return nil, err
	}
	// One frame reader for the connection's life: the handshake's reads and
	// the pulls' share it, so an answer that arrived in the same read as
	// the subscribe answer is already buffered for the first pull.
	s := &remoteSub{conn: server.NewFrameConn(raw)}
	if err := c.subscribe(ctx, s, path, opts); err != nil {
		s.conn.Close()
		return nil, err
	}
	return s, nil
}

// subscribe runs the handshake on the fresh connection: a hello for a
// tenant, then the subscribe, whose answer is the subscription's handle,
// and sends the first pull.
func (c *Client) subscribe(ctx context.Context, s *remoteSub, path string, opts logapi.WatchOptions) error {
	if c.opt.Tenant != "" {
		// The dedicated connection authenticates like the main one (a
		// multi-tenant server refuses unauthenticated subscribes), in session
		// 0: the binding and the subscription stay connection-private.
		hello := wire.Hello{Tenant: c.opt.Tenant, Token: c.opt.Token}.Encode(nil)
		status, r, err := c.roundTrip(ctx, s.conn, server.OpHello, 0, 0, hello)
		if err != nil {
			return err
		}
		if status != server.StatusOK {
			return errors.New("client: " + statusMessage(r, fmt.Sprintf("watch handshake rejected (status %d)", status)))
		}
	}
	req := wire.StreamSubscribe{Path: path, FromStart: opts.FromStart}
	for _, p := range opts.From {
		req.From = append(req.From, wire.StreamPos{Shard: uint32(p.Shard), Block: uint64(p.Block), Rec: uint64(p.Rec)})
	}
	s.seq = 1
	status, r, err := c.roundTrip(ctx, s.conn, wire.OpSubscribe, s.seq, traceID(c.session, s.seq), req.Encode(nil))
	if err != nil {
		return err
	}
	if status != server.StatusOK {
		return errors.New("client: " + statusMessage(r, fmt.Sprintf("subscribe rejected (status %d)", status)))
	}
	if s.handle = r.Uint32(); r.Err() != nil {
		return r.Err()
	}
	s.conn.SetDeadline(time.Time{}) // the handshake's
	return s.ask()
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

// remoteSub is a live subscription over its own connection: a remote cursor
// that waits, read ahead one batch at a time.
type remoteSub struct {
	conn   *server.FrameConn
	handle uint32

	// mu makes Recv one receiver at a time. buf[pos:] are delivered entries
	// not yet handed out. asked says a pull is outstanding, its answer the
	// next frame on the connection. err ends the subscription.
	mu    sync.Mutex
	seq   uint64
	asked bool
	buf   []Entry
	pos   int
	err   error

	closed atomic.Bool
}

// ask sends the next pull: up to a full batch of entries.
func (s *remoteSub) ask() error {
	s.seq++
	p := wire.PutUvarint(wire.PutUvarint(nil, uint64(s.handle)), server.MaxBatchEntries)
	if err := s.conn.WriteFrame(server.OpNext, s.seq, 0, p); err != nil {
		return lost(err)
	}
	s.asked = true
	return nil
}

// lost ends a subscription whose connection failed under it: the server
// closed it (a drain or an idle drop that found no pull parked), or it broke.
func lost(err error) error {
	return fmt.Errorf("client: subscription ended by server: connection closed (%w)", err)
}

// Recv returns the next delivered entry. With the buffer empty it pulls,
// and waits for the answer for as long as ctx allows; a Recv whose ctx ends
// leaves the pull outstanding, and the next Recv takes its answer. After
// Close it returns stream.ErrClosed; a pull the server refused ends the
// subscription with the server's reason.
func (s *remoteSub) Recv(ctx context.Context) (*Entry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.err == nil && s.pos == len(s.buf) {
		if err := s.await(ctx); err != nil {
			if err == ctx.Err() {
				return nil, err // the pull is still outstanding
			}
			s.err = err
		}
	}
	if s.closed.Load() {
		return nil, stream.ErrClosed
	}
	if s.err != nil {
		return nil, s.err
	}
	e := &s.buf[s.pos]
	if s.pos++; s.pos == len(s.buf) {
		s.buf, s.pos = nil, 0
	}
	return e, nil
}

// await pulls, unless a pull is outstanding, and reads its answer into the
// buffer. Only the wait for the answer's first byte is bounded by ctx, so a
// pull is never left half read: ctx's end moves the deadline into the past,
// and the deadline is lifted again before anything is read.
func (s *remoteSub) await(ctx context.Context) error {
	if !s.asked {
		if err := s.ask(); err != nil {
			return err
		}
	}
	fired := make(chan struct{})
	stop := context.AfterFunc(ctx, func() {
		s.conn.SetDeadline(time.Unix(1, 0))
		close(fired)
	})
	err := s.conn.Wait()
	if !stop() {
		<-fired
		s.conn.SetDeadline(time.Time{})
		if err != nil {
			return ctx.Err()
		}
	}
	if err != nil {
		return lost(err)
	}
	status, seq, _, payload, err := s.conn.ReadFrameOwned()
	if err != nil {
		return lost(err)
	}
	s.asked = false
	r := wire.NewReader(payload, errResponse)
	switch {
	case seq != s.seq:
		return fmt.Errorf("client: subscription: answer for request %d, want %d", seq, s.seq)
	case status == server.StatusEOF:
		return nil // the server ended the wait early with nothing: ask again
	case status != server.StatusOK:
		return fmt.Errorf("client: subscription ended by server: %s", statusMessage(r, fmt.Sprintf("status %d", status)))
	}
	s.buf, err = server.DecodeEntryBatch(r)
	return err
}

// Close ends the subscription: the connection closes, which ends a pull
// parked on the server and a Recv waiting for it.
func (s *remoteSub) Close() error {
	if !s.closed.Swap(true) {
		s.conn.Close()
	}
	return nil
}
