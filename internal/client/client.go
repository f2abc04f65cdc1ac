// Package client is the client side of the Clio log-service protocol: the
// library an application links to access log files through the extended
// file server, in the spirit of the V-System UIO interface the paper uses —
// "log files are named using the standard file directory mechanism, and are
// accessed and managed using the same I/O and utility routines that are
// used to access and manage conventional files" (§2).
//
// A Client speaks over any net.Conn: a net.Pipe to an in-process server
// (the same-machine IPC case) or a TCP connection (cross-machine). Calls
// are synchronous request/response, matching the paper's IPC model; a
// Client serializes concurrent callers.
//
// # Fault tolerance
//
// A dialed Client is resilient to connection loss. Every request carries a
// client-assigned session sequence number; the server keeps a
// duplicate-suppression window per session, so when a connection dies
// mid-call the Client reconnects, replays the in-flight request under the
// same sequence number, and receives the original result — a retried append
// is executed once. Reconnection follows a bounded faults.RetryPolicy.
//
// The one unanswerable case is a server restart (detected by an epoch
// change in the reconnect handshake) while a mutating request was in
// flight: the restarted server has no duplicate-suppression state, so the
// Client surfaces *AmbiguousError rather than guess. All calls accept a
// context; its deadline bounds each attempt.
package client

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"time"

	"clio/internal/faults"
	"clio/internal/logapi"
	"clio/internal/server"
	"clio/internal/wire"
)

// DefaultDialTimeout bounds connection establishment when Options and the
// context do not say otherwise.
const DefaultDialTimeout = 10 * time.Second

// ErrClosed is returned for calls on a closed Client.
var ErrClosed = errors.New("client: closed")

// errResponse is wrapped by every failure to decode a response payload.
var errResponse = errors.New("client: malformed response")

// statusMessage reads the reason a non-OK response carries, or returns
// fallback when the payload holds none.
func statusMessage(r *wire.Reader, fallback string) string {
	if msg := r.String(); r.Err() == nil {
		return msg
	}
	return fallback
}

// Options configures a dialed Client. The zero value is usable.
type Options struct {
	// DialTimeout bounds each connection attempt (0 = DefaultDialTimeout,
	// negative = no limit beyond the context's).
	DialTimeout time.Duration
	// Retry is the reconnect/replay schedule for transient connection
	// failures; nil means faults.DefaultNetPolicy.
	Retry *faults.RetryPolicy
	// SessionID names the client's server-side session, whose
	// duplicate-suppression window makes replayed requests idempotent.
	// 0 means a fresh random id.
	SessionID uint64
	// Dialer establishes connections; nil means TCP to the Dial address.
	// Setting it makes the Client reconnectable over any transport. It
	// overrides Addrs/DialAddr.
	Dialer func(ctx context.Context) (net.Conn, error)
	// Addrs is the cluster address list for multi-node failover: the dial
	// address plus these are rotated through when connections fail, and a
	// StatusNotLeader redirect steers the next attempt at the named leader
	// directly. Reconnect backoff is carried ACROSS the list — rotating to
	// the next address continues the schedule rather than restarting it
	// from the base delay, so a dead cluster is probed at the backed-off
	// rate, not hammered once per address per step.
	Addrs []string
	// DialAddr establishes a connection to one named address; nil means
	// TCP. Lets tests and partition injectors intercept per-address dials.
	DialAddr func(ctx context.Context, addr string) (net.Conn, error)
	// Tenant and Token authenticate the session on a multi-tenant server:
	// the hello handshake presents them, and every path the client touches
	// must live under /<Tenant>. Leave empty against an open server.
	Tenant string
	Token  string
}

// ErrNotLeader reports that a write-class request was sent to a replication
// follower. LeaderAddr is the leader the follower pointed at ("" when it
// knows none). The Client handles the redirect itself — callers see this
// error only when every redirect hop failed or the address list is
// exhausted.
type ErrNotLeader struct {
	LeaderAddr string
}

func (e *ErrNotLeader) Error() string {
	if e.LeaderAddr == "" {
		return "client: node is not the leader (no leader known)"
	}
	return fmt.Sprintf("client: node is not the leader (leader at %s)", e.LeaderAddr)
}

// AmbiguousError reports a request whose outcome is unknowable: the
// connection died while a mutating request was in flight and the server
// restarted (losing its duplicate-suppression window) before the client
// could replay it. The request may or may not have executed; the caller
// must reconcile by reading (e.g. logapi.LocateUnique, §2.1).
type AmbiguousError struct {
	// Op names the request.
	Op string
	// Err is the connection error that interrupted the request.
	Err error
}

func (e *AmbiguousError) Error() string {
	return fmt.Sprintf("client: %s interrupted by server restart; it may or may not have executed: %v", e.Op, e.Err)
}

func (e *AmbiguousError) Unwrap() error { return e.Err }

// QuotaError reports a request the server refused with StatusQuotaExceeded:
// the session's tenant is over one of its configured quotas (logs, appended
// bytes, or concurrent sessions). The request did not execute, and — unlike
// a transient fault — the client does not retry it: the condition clears
// only when the operator raises the quota or the tenant's usage drops.
type QuotaError struct {
	// Msg is the server's reason, naming the tenant and quota.
	Msg string
}

func (e *QuotaError) Error() string { return "client: " + e.Msg }

// DegradedError reports an append that COMPLETED — the entry is durable and
// Timestamp is its server timestamp — but required the service to relocate
// past damaged storage (§2.3.2). Callers that ignore it lose nothing but
// the warning.
type DegradedError struct {
	Timestamp int64
}

func (e *DegradedError) Error() string {
	return "client: append completed degraded (service relocated past damaged blocks)"
}

// IsDegraded reports whether err (or anything it wraps) is a *DegradedError.
// A nil err is answered without the errors.As probe, which allocates.
func IsDegraded(err error) bool {
	if err == nil {
		return false
	}
	var d *DegradedError
	return errors.As(err, &d)
}

// Entry is the service-side entry, decoded off the wire.
type Entry = logapi.Entry

// ID is the store-wide log-file id (shard ordinal in the high 16 bits).
type ID = logapi.ID

// Stats is the subset of server counters exposed over the protocol.
type Stats struct {
	EntriesAppended int64
	BlocksSealed    int64
	ClientBytes     int64
	EndBlocks       int64
}

// Client is a connection to a Clio log server. It implements the uniform
// logapi.Service surface, so applications written against the interface run
// unchanged against an in-process store, a sharded store, or the network.
type Client struct {
	opt   Options
	retry faults.RetryPolicy

	mu sync.Mutex
	// conn is the live connection's frame I/O, made with it: its reader
	// holds bytes of that connection only, so a reconnect starts clean.
	conn    *server.FrameConn
	session uint64
	seq     uint64
	epoch   uint64 // last observed server epoch; 0 = none yet
	closed  bool

	// Failover state (only used when addrs is non-empty).
	addrs     []string
	addrIdx   int    // rotation cursor into addrs
	preferred string // leader hint from a StatusNotLeader redirect; tried first
	connAddr  string // address the live conn was dialed to
	// failStreak counts consecutive connection-level failures across calls
	// AND across the address list; it indexes the backoff schedule and is
	// reset only by a successful round trip. This is what keeps failover
	// from restarting the backoff at the base delay on every new address.
	failStreak int
}

var _ logapi.Service = (*Client)(nil)

// New wraps an established connection. A Client made this way has no dialer
// and therefore cannot reconnect: the first connection error fails the call.
func New(conn net.Conn) *Client {
	return &Client{conn: server.NewFrameConn(conn), retry: faults.DefaultNetPolicy()}
}

// DialOptions connects to a TCP log server.
func DialOptions(addr string, opt Options) (*Client, error) {
	return DialContext(context.Background(), addr, opt)
}

// DialContext connects to a log server, performing the session handshake.
// If opt.Dialer is nil, connections go to addr plus any opt.Addrs (TCP
// unless opt.DialAddr overrides the transport), with failover rotation and
// leader-redirect handling; otherwise addr is ignored and opt.Dialer is used
// (and reused on reconnect).
func DialContext(ctx context.Context, addr string, opt Options) (*Client, error) {
	c := &Client{opt: opt, session: opt.SessionID}
	if opt.Dialer == nil {
		if addr != "" {
			c.addrs = append(c.addrs, addr)
		}
		for _, a := range opt.Addrs {
			dup := false
			for _, have := range c.addrs {
				dup = dup || have == a
			}
			if !dup && a != "" {
				c.addrs = append(c.addrs, a)
			}
		}
		if len(c.addrs) == 0 {
			return nil, errors.New("client: no address to dial")
		}
		if c.opt.DialAddr == nil {
			c.opt.DialAddr = func(ctx context.Context, addr string) (net.Conn, error) {
				d := net.Dialer{Timeout: dialTimeout(opt)}
				return d.DialContext(ctx, "tcp", addr)
			}
		}
	}
	if opt.Retry != nil {
		c.retry = *opt.Retry
	} else {
		// Full jitter with a per-client seed: after a cluster-wide failure
		// the clients' reconnect storms spread across the backoff window
		// instead of arriving in lockstep.
		c.retry = faults.DefaultNetPolicy()
		c.retry.FullJitter = true
		c.retry.Seed = int64(randomSession())
	}
	if c.session == 0 {
		c.session = randomSession()
	}
	c.mu.Lock()
	err := c.reconnectLocked(ctx, false, "dial")
	c.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return c, nil
}

func dialTimeout(opt Options) time.Duration {
	switch {
	case opt.DialTimeout > 0:
		return opt.DialTimeout
	case opt.DialTimeout < 0:
		return 0
	default:
		return DefaultDialTimeout
	}
}

func randomSession() uint64 {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return uint64(time.Now().UnixNano()) | 1
	}
	return binary.LittleEndian.Uint64(b[:]) | 1
}

// Close closes the connection.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	return err
}

// reconnectLocked (re)establishes the connection and runs the OpHello
// handshake. When ambiguous is true a server epoch change makes the
// interrupted request unanswerable: the new connection is kept (the Client
// stays usable) but *AmbiguousError is returned.
func (c *Client) reconnectLocked(ctx context.Context, ambiguous bool, opName string) error {
	// DialTimeout bounds the whole connection attempt, handshake included —
	// a server that accepts but never answers must not hang the dial.
	if dt := dialTimeout(c.opt); dt > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, dt)
		defer cancel()
	}
	var raw net.Conn
	var err error
	var dialed string
	if c.opt.Dialer != nil {
		raw, err = c.opt.Dialer(ctx)
	} else {
		dialed = c.pickAddrLocked()
		raw, err = c.opt.DialAddr(ctx, dialed)
	}
	if err != nil {
		c.addrFailedLocked(dialed)
		return err
	}
	conn := server.NewFrameConn(raw)
	hello := wire.Hello{Session: c.session, Tenant: c.opt.Tenant, Token: c.opt.Token}.Encode(nil)
	status, r, err := c.roundTrip(ctx, conn, server.OpHello, 0, traceID(c.session, 0), hello)
	if err != nil {
		conn.Close()
		c.addrFailedLocked(dialed)
		return err
	}
	if status != server.StatusOK {
		conn.Close()
		c.addrFailedLocked(dialed)
		msg := statusMessage(r, fmt.Sprintf("handshake rejected (status %d)", status))
		if status == server.StatusQuotaExceeded {
			// A session-quota refusal may clear as other connections leave;
			// transient keeps the retry schedule in charge.
			return faults.WithClass(&QuotaError{Msg: msg}, faults.Transient)
		}
		// Transient: another node in the rotation may accept the session.
		return faults.WithClass(fmt.Errorf("client: %s", msg), faults.Transient)
	}
	epoch, maxSeq := r.Uint64(), r.Uint64()
	if err := r.Err(); err != nil {
		conn.Close()
		c.addrFailedLocked(dialed)
		return err
	}
	prev := c.epoch
	c.epoch = epoch
	// A session id reused across Client instances must not collide with
	// sequence numbers the server has already recorded.
	c.seq = max(c.seq, maxSeq)
	c.conn = conn
	c.connAddr = dialed
	if ambiguous && prev != 0 && epoch != prev {
		return &AmbiguousError{Op: opName, Err: net.ErrClosed}
	}
	return nil
}

// pickAddrLocked chooses the next address to dial: a leader hint from a
// StatusNotLeader redirect wins, otherwise the rotation cursor.
func (c *Client) pickAddrLocked() string {
	if c.preferred != "" {
		return c.preferred
	}
	return c.addrs[c.addrIdx%len(c.addrs)]
}

// addrFailedLocked advances failover state after a connection-level failure
// on addr ("" when a custom Dialer is in use, which has no address list). A
// failed leader hint is dropped; a failed rotation address advances the
// cursor so the next attempt tries the next node.
func (c *Client) addrFailedLocked(addr string) {
	if addr == "" || len(c.addrs) == 0 {
		return
	}
	if addr == c.preferred {
		c.preferred = ""
		return
	}
	if c.addrs[c.addrIdx%len(c.addrs)] == addr {
		c.addrIdx++
	}
}

// redirectLocked records a StatusNotLeader redirect: the named leader
// becomes the preferred next dial (and joins the rotation list if new).
// Returns false when the follower knew no leader.
func (c *Client) redirectLocked(leader string) bool {
	if leader == "" || len(c.addrs) == 0 {
		return false
	}
	c.preferred = leader
	for _, have := range c.addrs {
		if have == leader {
			return true
		}
	}
	c.addrs = append(c.addrs, leader)
	return true
}

// traceID derives the request's wire trace ID from (session, seq) via a
// splitmix64-style mix. Deriving rather than generating means a replayed
// request carries the same ID as its original send, so server-side traces of
// the two executions correlate; the mix keeps IDs from adjacent sequence
// numbers far apart. The low bit is set so an ID is never 0 (= untraced).
func traceID(session, seq uint64) uint64 {
	x := session ^ (seq * 0x9E3779B97F4A7C15)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x | 1
}

// roundTrip performs one framed request/response on conn, bounded by the
// context deadline and honoring cancellation. The response payload is the
// caller's: entries decoded from it alias it.
func (c *Client) roundTrip(ctx context.Context, conn *server.FrameConn, op byte, seq, trace uint64, payload []byte) (byte, *wire.Reader, error) {
	deadline, _ := ctx.Deadline() // the zero time when there is none: no deadline
	conn.SetDeadline(deadline)
	if ctx.Done() != nil {
		// A cancellation unblocks the read by moving the deadline into the
		// past, but only while this round trip runs: one that fired after
		// it returned would time out the connection's next call.
		var mu sync.Mutex
		live := true
		stop := context.AfterFunc(ctx, func() {
			mu.Lock()
			defer mu.Unlock()
			if live {
				conn.SetDeadline(time.Unix(1, 0))
			}
		})
		defer func() {
			stop()
			mu.Lock()
			live = false
			mu.Unlock()
		}()
	}
	if err := conn.WriteFrame(op, seq, trace, payload); err != nil {
		return 0, nil, fmt.Errorf("client: send: %w", err)
	}
	status, rseq, _, resp, err := conn.ReadFrameOwned()
	if err != nil {
		return 0, nil, fmt.Errorf("client: recv: %w", err)
	}
	if rseq != seq {
		return 0, nil, fmt.Errorf("client: response seq %d for request %d", rseq, seq)
	}
	return status, wire.NewReader(resp, errResponse), nil
}

// call performs one synchronous request, reconnecting and replaying it
// under the same sequence number when the connection fails transiently.
// mutating marks requests whose replay after a server restart would be
// ambiguous (appends, catalog changes).
func (c *Client) call(ctx context.Context, op byte, opName string, mutating bool, payload []byte) (byte, *wire.Reader, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return 0, nil, ErrClosed
	}
	c.seq++
	seq := c.seq

	maxAttempts := c.retry.MaxAttempts
	if maxAttempts < 1 {
		maxAttempts = 4
	}
	inFlight := false  // the request may have reached the server
	skipPause := false // a leader redirect retries immediately
	var lastErr error
	for attempt := 1; ; attempt++ {
		if attempt > 1 {
			if attempt > maxAttempts {
				return 0, nil, fmt.Errorf("client: %s: %d attempts exhausted: %w", opName, maxAttempts, lastErr)
			}
			if skipPause {
				skipPause = false
			} else {
				// The pause is indexed by the cross-call failure streak, not
				// this call's attempt number: failing over to the next
				// address (or the next call) continues the backoff schedule
				// instead of restarting it at the base delay.
				streak := c.failStreak
				if streak < 1 {
					streak = attempt - 1
				}
				if err := c.pause(ctx, streak); err != nil {
					return 0, nil, err
				}
			}
		}
		if err := ctx.Err(); err != nil {
			return 0, nil, err
		}
		if c.conn == nil {
			if c.opt.Dialer == nil && len(c.addrs) == 0 {
				return 0, nil, ErrClosed
			}
			err := c.reconnectLocked(ctx, inFlight && mutating, opName)
			var amb *AmbiguousError
			if errors.As(err, &amb) {
				return 0, nil, err
			}
			if err != nil {
				if faults.Classify(err) != faults.Transient {
					return 0, nil, err
				}
				c.failStreak++
				lastErr = err
				continue
			}
		}
		status, r, err := c.roundTrip(ctx, c.conn, op, seq, traceID(c.session, seq), payload)
		if err == nil {
			// The node answered: the network path works, whatever the status.
			c.failStreak = 0
			if status == server.StatusNotLeader {
				leader := statusMessage(r, "")
				c.conn.Close()
				c.conn = nil
				lastErr = &ErrNotLeader{LeaderAddr: leader}
				if c.redirectLocked(leader) {
					// One-round-trip redirect: dial the named leader now.
					skipPause = true
				} else {
					// No leader known: rotate and back off like a failure.
					c.addrFailedLocked(c.connAddr)
					c.failStreak++
				}
				continue
			}
			if status == server.StatusUnavailable {
				// The node itself cannot serve writes right now (e.g. a
				// leader cut off from its quorum): rotate to another address
				// and keep retrying rather than failing the call.
				c.conn.Close()
				c.conn = nil
				c.addrFailedLocked(c.connAddr)
				c.failStreak++
				lastErr = errors.New(statusMessage(r, "node unavailable"))
				continue
			}
			if status == server.StatusQuotaExceeded {
				// The request did not execute and retrying cannot help —
				// the tenant's quota is a policy, not a transient fault.
				return status, nil, &QuotaError{Msg: statusMessage(r, "tenant quota exceeded")}
			}
			if status == server.StatusErr {
				return status, nil, errors.New(statusMessage(r, "unknown server error"))
			}
			return status, r, nil
		}
		// Connection-level failure: the conn is poisoned either way.
		c.conn.Close()
		c.conn = nil
		c.addrFailedLocked(c.connAddr)
		c.failStreak++
		inFlight = true
		if cerr := ctx.Err(); cerr != nil {
			return 0, nil, cerr
		}
		if c.opt.Dialer == nil && len(c.addrs) == 0 || faults.Classify(err) != faults.Transient {
			return 0, nil, err
		}
		lastErr = err
	}
}

// pause sleeps the backoff before retry `attempt`, honoring cancellation.
func (c *Client) pause(ctx context.Context, attempt int) error {
	d := c.retry.Backoff(attempt)
	if c.retry.Sleep != nil {
		c.retry.Sleep(d)
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Ping checks liveness.
func (c *Client) Ping(ctx context.Context) error {
	_, _, err := c.call(ctx, server.OpPing, "ping", false, nil)
	return err
}

// readID consumes a uvarint store-wide log-file id.
func readID(r *wire.Reader) ID {
	return ID(r.Bounded(math.MaxUint32, "log id out of range"))
}

// CreateLog creates a log file (a sublog of its parent path).
func (c *Client) CreateLog(ctx context.Context, path string, perms uint16, owner string) (ID, error) {
	p := server.PutString(nil, path)
	p = wire.PutUint16(p, perms)
	p = server.PutString(p, owner)
	_, r, err := c.call(ctx, server.OpCreate, "create", true, p)
	if err != nil {
		return 0, err
	}
	return readID(r), r.Err()
}

// Resolve maps a path to a log-file id.
func (c *Client) Resolve(ctx context.Context, path string) (ID, error) {
	_, r, err := c.call(ctx, server.OpResolve, "resolve", false, server.PutString(nil, path))
	if err != nil {
		return 0, err
	}
	return readID(r), r.Err()
}

// List returns the sublog names under a path.
func (c *Client) List(ctx context.Context, path string) ([]string, error) {
	_, r, err := c.call(ctx, server.OpList, "list", false, server.PutString(nil, path))
	if err != nil {
		return nil, err
	}
	out := []string{}
	for n := r.Uvarint(); n > 0 && r.Err() == nil; n-- {
		out = append(out, r.String())
	}
	if r.Err() != nil {
		return nil, r.Err()
	}
	return out, nil
}

// Stat returns a log file's descriptor.
func (c *Client) Stat(ctx context.Context, path string) (logapi.Info, error) {
	var st logapi.Info
	_, r, err := c.call(ctx, server.OpStat, "stat", false, server.PutString(nil, path))
	if err != nil {
		return st, err
	}
	st.ID, st.Parent = readID(r), readID(r)
	st.Perms, st.Created = r.Uint16(), r.Int64()
	st.Name, st.Owner = r.String(), r.String()
	flags := r.Byte()
	st.Retired = flags&1 != 0
	st.System = flags&2 != 0
	return st, r.Err()
}

// SetPerms changes a log file's permissions.
func (c *Client) SetPerms(ctx context.Context, path string, perms uint16) error {
	p := server.PutString(nil, path)
	p = wire.PutUint16(p, perms)
	_, _, err := c.call(ctx, server.OpSetPerms, "setperms", true, p)
	return err
}

// Retire closes a log file for further appends.
func (c *Client) Retire(ctx context.Context, path string) error {
	_, _, err := c.call(ctx, server.OpRetire, "retire", true, server.PutString(nil, path))
	return err
}

// AppendOptions is the service-side append option struct. The Trace field
// is a server-side concern and is not carried over the wire (the frame's
// traceID correlates client and server traces instead).
type AppendOptions = logapi.AppendOptions

func appendFlags(opts AppendOptions) byte {
	var flags byte
	if opts.Timestamped {
		flags |= server.AppendTimestamped
	}
	if opts.Forced {
		flags |= server.AppendForced
	}
	return flags
}

// appendResult reads an append response: the entry's server timestamp, with a
// *DegradedError beside it when the status says so.
func appendResult(status byte, r *wire.Reader) (int64, error) {
	ts := r.Int64()
	if r.Err() != nil {
		return 0, r.Err()
	}
	if status == server.StatusDegraded {
		return ts, &DegradedError{Timestamp: ts}
	}
	return ts, nil
}

// Append writes one entry and returns its server timestamp. A non-nil
// *DegradedError alongside a valid timestamp means the entry IS durable but
// the service had to relocate past damaged storage (§2.3.2).
func (c *Client) Append(ctx context.Context, id ID, data []byte, opts AppendOptions) (int64, error) {
	p := wire.PutUvarint(nil, uint64(id))
	p = append(p, appendFlags(opts))
	p = server.PutBytes(p, data)
	status, r, err := c.call(ctx, server.OpAppend, "append", true, p)
	if err != nil {
		return 0, err
	}
	return appendResult(status, r)
}

// AppendMulti writes one entry belonging to several log files at once
// (§2.1); ids[0] is the primary. The entry appears in every listed log.
// Degraded completion is reported as in Append.
func (c *Client) AppendMulti(ctx context.Context, ids []ID, data []byte, opts AppendOptions) (int64, error) {
	p := wire.PutUvarint(nil, uint64(len(ids)))
	for _, id := range ids {
		p = wire.PutUvarint(p, uint64(id))
	}
	p = append(p, appendFlags(opts))
	p = server.PutBytes(p, data)
	status, r, err := c.call(ctx, server.OpAppendMulti, "appendmulti", true, p)
	if err != nil {
		return 0, err
	}
	return appendResult(status, r)
}

// Writer appends each Write call as one log entry: a log file written
// through io.Writer like a regular (append-only) file, the paper's uniform
// I/O interface (§6). The construction context bounds every underlying call.
type Writer struct {
	ctx  context.Context
	c    *Client
	id   ID
	opts AppendOptions
}

// NewWriter returns a Writer appending to the given log file.
func NewWriter(ctx context.Context, c *Client, id ID, opts AppendOptions) *Writer {
	return &Writer{ctx: ctx, c: c, id: id, opts: opts}
}

// Write implements io.Writer: one call, one log entry. Degraded completion
// (the entry is durable but the service relocated past damaged blocks) is
// not an error here.
func (w *Writer) Write(p []byte) (int, error) {
	if _, err := w.c.Append(w.ctx, w.id, p, w.opts); err != nil && !IsDegraded(err) {
		return 0, err
	}
	return len(p), nil
}

// ReadAt fetches the entry previously reported at a shard-local
// (block, index) position, as observed on an Entry from that shard.
func (c *Client) ReadAt(ctx context.Context, shard, block, index int) (*Entry, error) {
	p := wire.PutUvarint(nil, uint64(shard))
	p = wire.PutUvarint(p, uint64(block))
	p = wire.PutUvarint(p, uint64(index))
	_, r, err := c.call(ctx, server.OpReadAt, "readat", false, p)
	if err != nil {
		return nil, err
	}
	return server.DecodeEntry(r)
}

// Force makes everything appended so far durable on every shard.
func (c *Client) Force(ctx context.Context) error {
	_, _, err := c.call(ctx, server.OpForce, "force", true, nil)
	return err
}

// Stats fetches server counters.
func (c *Client) Stats(ctx context.Context) (Stats, error) {
	var st Stats
	_, r, err := c.call(ctx, server.OpStats, "stats", false, nil)
	if err != nil {
		return st, err
	}
	st.EntriesAppended, st.BlocksSealed, st.ClientBytes, st.EndBlocks = r.Int64(), r.Int64(), r.Int64(), r.Int64()
	return st, r.Err()
}

// Cursor is a remote cursor over a log file. Its server-side state lives in
// the client's session, so it survives reconnects — but not server
// restarts.
//
// A Cursor reads ahead: one OpNext round trip asks for up to `want` entries
// and Next drains them locally. want is 1 after OpenCursor, SeekTime,
// SeekPos, SeekEnd and Prev, and doubles with each consecutive refill up to
// server.MaxBatchEntries — a property of the access pattern, like kernel
// read-ahead, not a setting — so a scan costs one round trip per full batch.
// SeekStart drops the buffered entries but keeps want where it stands:
// rewinding a scanning cursor is still a scan, and its next pass asks for
// full batches from the first refill. SeekTime is the first step of the ramp
// itself: its request carries want=1, the entry the seek lands on comes back
// with the answer, and a seek followed by one Next is one round trip. What
// the caller observes is what an unbuffered cursor would show: buffered
// entries are log history, which never changes, and the end of the log and
// errors are never buffered — a Next that finds the buffer empty always asks
// the server, so an entry acknowledged before the call is seen by it.
//
// A batch is decoded in one allocation: its entries are one slab of values,
// Next hands out pointers into it, and their Data aliases the response
// frame, as a local cursor's Data aliases the cached block image; an entry
// from Prev or ReadAt aliases its own response the same way. Nothing reuses a
// response frame or a slab, so an entry stays valid for as long as the
// caller keeps it — and a retained entry pins its whole batch:
// server.MaxBatchBytes (64 KiB, overshot by less than one entry) plus the
// slab. The cursor drops the slab once it has handed out the last entry, so
// a cursor idling at the end of the log pins nothing.
//
// The buffer makes Cursor stateful: a mutex guards it, and a Cursor may be
// shared by goroutines the way a Client may (each call is atomic; interleaved
// callers split the entries between them).
type Cursor struct {
	c      *Client
	handle uint32

	mu sync.Mutex
	// buf[pos:] are entries the server cursor has already stepped past and
	// the caller has not been given: the server is len(buf)-pos entries
	// ahead of the position the caller sees. buf is one batch's slab, nil
	// once its last entry is handed out.
	buf  []Entry
	pos  int
	want int // size of the next refill request
}

var _ logapi.Cursor = (*Cursor)(nil)

// OpenCursor opens a cursor positioned at the start of the log file. The
// concrete type is *Cursor.
func (c *Client) OpenCursor(ctx context.Context, path string) (logapi.Cursor, error) {
	_, r, err := c.call(ctx, server.OpCursorOpen, "cursoropen", false, server.PutString(nil, path))
	if err != nil {
		return nil, err
	}
	h := r.Uint32()
	if r.Err() != nil {
		return nil, r.Err()
	}
	return &Cursor{c: c, handle: h, want: 1}, nil
}

// Next returns the next matching entry, or io.EOF at the end of the log.
func (cu *Cursor) Next(ctx context.Context) (*Entry, error) {
	cu.mu.Lock()
	defer cu.mu.Unlock()
	if cu.pos == len(cu.buf) {
		if err := cu.refill(ctx); err != nil {
			return nil, err
		}
	}
	// The caller owns the entry now; it pins its batch's slab for as long
	// as it is kept. Once the last one is handed out the cursor drops the
	// slab, so a cursor idling at the end of the log keeps no batch alive.
	e := &cu.buf[cu.pos]
	if cu.pos++; cu.pos == len(cu.buf) {
		cu.buf, cu.pos = nil, 0
	}
	return e, nil
}

// refill replaces the drained buffer with the next batch. On io.EOF or an
// error the buffer stays empty, so the next call asks the server again.
func (cu *Cursor) refill(ctx context.Context) error {
	p := wire.PutUvarint(nil, uint64(cu.handle))
	p = wire.PutUvarint(p, uint64(cu.want))
	status, r, err := cu.c.call(ctx, server.OpNext, "cursornext", false, p)
	if err != nil {
		return err
	}
	if status == server.StatusEOF {
		return io.EOF
	}
	if cu.buf, err = server.DecodeEntryBatch(r); err != nil {
		return err
	}
	cu.want = min(2*cu.want, server.MaxBatchEntries)
	return nil
}

// reposition sends a request that moves the server cursor somewhere the
// read-ahead buffer does not describe. Once the server has answered, the
// buffer is dropped and the ramp restarts; a call that failed leaves both
// alone, as it leaves the server cursor wherever the failure left it.
func (cu *Cursor) reposition(ctx context.Context, op byte, opName string, p []byte) (byte, *wire.Reader, error) {
	status, r, err := cu.c.call(ctx, op, opName, false, p)
	if err == nil {
		cu.buf, cu.pos, cu.want = nil, 0, 1
	}
	return status, r, err
}

// Prev returns the previous matching entry, or io.EOF at the beginning.
// Entries read ahead and not yet returned lie between the server cursor and
// the caller's position; the request tells the server how many to step back
// over first (a count, not a position: the merged root cursor has none).
func (cu *Cursor) Prev(ctx context.Context) (*Entry, error) {
	cu.mu.Lock()
	defer cu.mu.Unlock()
	p := wire.PutUvarint(nil, uint64(cu.handle))
	p = wire.PutUvarint(p, uint64(len(cu.buf)-cu.pos))
	status, r, err := cu.reposition(ctx, server.OpPrev, "cursorprev", p)
	if err != nil {
		return nil, err
	}
	if status == server.StatusEOF {
		return nil, io.EOF
	}
	return server.DecodeEntry(r)
}

// SeekTime positions the cursor so Next returns the first entry at/after ts.
// The request asks for that entry too: it is buffered like any read-ahead
// (Prev steps back over it) and the ramp goes on from 2. A seek to the end of
// the log, or one whose first entry the server could not read, is answered
// bare: nothing is buffered and the Next that follows asks the server.
func (cu *Cursor) SeekTime(ctx context.Context, ts int64) error {
	cu.mu.Lock()
	defer cu.mu.Unlock()
	p := wire.PutUvarint(nil, uint64(cu.handle))
	p = wire.PutUint64(p, uint64(ts))
	p = wire.PutUvarint(p, 1)
	_, r, err := cu.reposition(ctx, server.OpSeekTime, "seektime", p)
	if err != nil || r.Len() == 0 {
		return err
	}
	if cu.buf, err = server.DecodeEntryBatch(r); err != nil {
		return err
	}
	cu.want = 2
	return nil
}

// SeekStart positions the cursor before the first entry. The ramp stands:
// rewinding a scanning cursor is still a scan, so the pass after it asks for
// full batches from its first refill.
func (cu *Cursor) SeekStart(ctx context.Context) error {
	cu.mu.Lock()
	defer cu.mu.Unlock()
	want := cu.want
	_, _, err := cu.reposition(ctx, server.OpSeekStart, "seekstart", wire.PutUvarint(nil, uint64(cu.handle)))
	cu.want = want
	return err
}

// SeekEnd positions the cursor after the last entry.
func (cu *Cursor) SeekEnd(ctx context.Context) error {
	cu.mu.Lock()
	defer cu.mu.Unlock()
	_, _, err := cu.reposition(ctx, server.OpSeekEnd, "seekend", wire.PutUvarint(nil, uint64(cu.handle)))
	return err
}

// SeekPos restores the cursor to a previously observed (block, rec) gap
// position, for resumable consumers.
func (cu *Cursor) SeekPos(ctx context.Context, block, rec int) error {
	cu.mu.Lock()
	defer cu.mu.Unlock()
	p := wire.PutUvarint(nil, uint64(cu.handle))
	p = wire.PutUvarint(p, uint64(block))
	p = wire.PutUvarint(p, uint64(rec))
	_, _, err := cu.reposition(ctx, server.OpSeekPos, "seekpos", p)
	return err
}

// Close releases the server-side cursor.
func (cu *Cursor) Close() error {
	cu.mu.Lock()
	defer cu.mu.Unlock()
	_, _, err := cu.reposition(context.Background(), server.OpCursorEnd, "cursorend", wire.PutUvarint(nil, uint64(cu.handle)))
	return err
}
