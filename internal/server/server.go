package server

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"clio/internal/core"
	"clio/internal/logapi"
	"clio/internal/obs"
	"clio/internal/shard"
	"clio/internal/wire"
)

// DefaultIdleTimeout is how long a connection may sit between requests
// before the server drops it — a half-open client must not pin a handler
// goroutine forever.
const DefaultIdleTimeout = 2 * time.Minute

// dedupWindow and MaxBatchBytes bound the per-session duplicate-suppression
// cache, in responses and in retained payload bytes. The client has one
// request in flight per connection, so the window only needs to cover replay
// after reconnect plus slack; the byte budget keeps that slack from growing
// with response size. The byte budget is one cursor batch: a full refill is
// still kept whole, as the newest answer always is.
const dedupWindow = 128

// Server serves the Clio protocol over stream connections, fronting one log
// store — a single service or a sharded set behind one namespace (the
// paper's combined file server + log server, §2 and §6: "the combined
// implementation allows for the sharing not only of hardware resources, but
// also of code").
type Server struct {
	store *shard.Store
	// Logf, when set, receives connection-level error logs.
	Logf func(format string, args ...any)
	// IdleTimeout bounds how long a connection may sit idle between
	// requests; expiry closes the connection (the session, and with it any
	// open cursors and the dedup window, survives for reconnect). 0 uses
	// DefaultIdleTimeout; negative disables the deadline.
	IdleTimeout time.Duration
	// Tracer, when set, records a trace for every request: a span for the
	// dispatch itself plus whatever spans core adds underneath (group
	// commit, device write, NVRAM store). The trace ID comes from the
	// request frame, so client and server views correlate. Nil disables
	// tracing at zero cost. Set before the first connection is served.
	Tracer *obs.Tracer
	// Gate, when set, intercepts the response of every mutating request
	// (opTable's write class) after it executed but before it is recorded in the dedup
	// window and returned. durable says whether the response promises
	// durability: every one does but an unforced append's success, which
	// promises only what the paper promises an unforced write (it may be
	// lost in a crash, as part of the suffix after the last force). The
	// cluster layer uses the gate to hold the ack until a quorum of
	// replicas has durably staged what the response promised, and to
	// rewrite the response if the quorum cannot be reached. The returned
	// record flag says whether the (possibly rewritten) response may enter
	// the duplicate-suppression window — a quorum failure must NOT be
	// cached, so the client's replay re-executes instead of being answered
	// with the stale failure. emitted, nil for an unsequenced request, is
	// for a gate that ships the response's record to replicas: it reports
	// the replication stream position the record took, and the gate calls
	// it atomically with taking that position, so that a follower whose
	// catch-up base covers the position is exported the response
	// (Sessions.Export) even before the server records it. Set before the
	// first connection is served.
	Gate func(op byte, session, seq uint64, status byte, resp []byte, durable bool, emitted func(pos uint64)) (newStatus byte, newResp []byte, record bool)
	// PreGate, when set, is consulted before a mutating request executes
	// (after the dedup-window lookup, so an already-answered replay still
	// returns its cached response). reject=true refuses the request with the
	// returned status/resp WITHOUT executing it or recording it. The cluster
	// layer uses it to refuse writes while a quorum of replicas is
	// unreachable — refusing before execution keeps a minority-partitioned
	// leader from diverging its write-once media with entries it can never
	// ack. Set before the first connection is served.
	PreGate func(op byte) (status byte, resp []byte, reject bool)
	// ExtOp, when set, is offered every opcode the core dispatcher does not
	// recognize before the unknown-op error is returned; handled=false falls
	// through to that error. The cluster layer uses it for the replication
	// control ops that are valid on a leader (OpReplStatus, stale-leader
	// demotion). A non-nil then runs on the connection's goroutine once the
	// answer is written, or failed to be: a demotion starts there, so the
	// refusal that announces it is on the wire before the demotion closes
	// the connection. Set before the first connection is served.
	ExtOp func(op byte, payload []byte) (status byte, resp []byte, then func(), handled bool)

	// Sessions is the server's session table. A promoted replication
	// follower replaces it with the table it replicated from the old leader,
	// so replay stays idempotent across the failover; the cluster layer
	// exports it to a catching-up follower. Set before the first connection
	// is served.
	Sessions *Sessions

	// obsM holds the registered metrics; nil until RegisterMetrics. An
	// atomic pointer mirrors core's cacheP pattern: the hot path loads it
	// once per request without taking s.mu.
	obsM atomic.Pointer[serverMetrics]
	// obsReg remembers the registry so tenants installed after
	// RegisterMetrics (SetTenants on a SIGHUP reload) can register their
	// series; registration is idempotent, so the two orders converge.
	obsReg atomic.Pointer[obs.Registry]

	// tenants is the installed tenant table (SetTenants); nil or empty
	// means open mode. An atomic pointer: dispatch reads it per request,
	// reloads swap it whole.
	tenants atomic.Pointer[map[string]*tenantState]

	// draining flips when Shutdown begins: listeners close, and connection
	// read loops wind down (in-flight requests finish and are acked, a parked
	// pull is answered "server shutting down") instead of being reset.
	draining atomic.Bool

	// epoch identifies this Server instance: it changes on restart, which
	// is how a reconnecting client learns its session state is gone.
	epoch uint64

	mu     sync.Mutex
	closed bool
	lns    []net.Listener
	conns  map[net.Conn]bool
	wg     sync.WaitGroup
}

// New returns a server fronting one service as a 1-shard store.
func New(svc *core.Service) *Server { return NewStore(shard.Single(svc)) }

// NewStore returns a server fronting a (possibly sharded) store.
func NewStore(st *shard.Store) *Server {
	var e [8]byte
	if _, err := rand.Read(e[:]); err != nil {
		binary.LittleEndian.PutUint64(e[:], uint64(time.Now().UnixNano())^uint64(os.Getpid()))
	}
	return &Server{
		store:    st,
		epoch:    binary.LittleEndian.Uint64(e[:]) | 1, // never 0
		conns:    make(map[net.Conn]bool),
		Sessions: NewSessions(),
	}
}

// Epoch returns the server instance identifier carried in Hello responses.
func (s *Server) Epoch() uint64 { return s.epoch }

// SetEpoch overrides the server's epoch. A promoted replication follower
// installs the cluster epoch minted by the first leader, so clients keep
// their sessions (and their replay/dedup guarantees) across a failover
// instead of treating the promotion as a restart. Must be called before the
// first connection is served.
func (s *Server) SetEpoch(e uint64) { s.epoch = e }

// Sessions is a table of client sessions keyed by session id: what a Server
// keeps for its clients and a replication follower keeps of its leader's, so
// every copy of a dedup window is bounded by the same code
// (session.retainLocked). Cursors are connection-domain and do not replicate.
// Sessions are never evicted (session expiry, ROADMAP item 1, is open).
type Sessions struct {
	mu sync.Mutex
	m  map[uint64]*session
}

// NewSessions returns an empty table.
func NewSessions() *Sessions { return &Sessions{m: make(map[uint64]*session)} }

// get returns the session named id, creating it on first use.
func (t *Sessions) get(id uint64) *session {
	t.mu.Lock()
	defer t.mu.Unlock()
	sess, ok := t.m[id]
	if !ok {
		sess = newSession(id)
		t.m[id] = sess
	}
	return sess
}

// all returns the table's sessions, in no particular order.
func (t *Sessions) all() []*session {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*session, 0, len(t.m))
	for _, ss := range t.m {
		out = append(out, ss)
	}
	return out
}

// Record installs one replicated dedup record — a follower calls this for
// each streamed ReplAck so its table tracks the leader's.
func (t *Sessions) Record(id, seq uint64, status byte, resp []byte) {
	if id == 0 || seq == 0 {
		return
	}
	t.get(id).record(seq, status, resp)
}

// MaxSeq returns the highest sequence number recorded for session id, 0 for
// a session the table does not hold.
func (t *Sessions) MaxSeq(id uint64) uint64 {
	t.mu.Lock()
	sess := t.m[id]
	t.mu.Unlock()
	if sess == nil {
		return 0
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.maxSeq
}

// Export snapshots every session's dedup window, oldest cached response
// first, in the form a catching-up follower is sent. upTo is that
// follower's base, the last replication stream position its catch-up
// covers. A response still inside the gate is exported, as the newest
// recorded one, only if the gate shipped its record at or below upTo
// (Server.Gate's emitted): the follower is handed no stream frame for it.
// One shipped above upTo reaches the follower as its stream frame, and one
// not shipped yet the same way later; exported, it would tell a follower
// that need not hold the frames before it that the response was given.
func (t *Sessions) Export(upTo uint64) []wire.ReplSession {
	sessions := t.all()
	out := make([]wire.ReplSession, 0, len(sessions))
	for _, ss := range sessions {
		ss.mu.Lock()
		st := wire.ReplSession{ID: ss.id, MaxSeq: ss.maxSeq}
		for _, seq := range ss.order {
			r := ss.window[seq]
			st.Resps = append(st.Resps, wire.ReplResp{Seq: seq, Status: r.status, Resp: r.payload})
		}
		if ss.gated != 0 && ss.gatedPos != 0 && ss.gatedPos <= upTo {
			st.MaxSeq = max(st.MaxSeq, ss.gated)
			st.Resps = append(st.Resps, wire.ReplResp{Seq: ss.gated, Status: ss.gatedResp.status, Resp: ss.gatedResp.payload})
		}
		ss.mu.Unlock()
		out = append(out, st)
	}
	return out
}

// Install merges exported session state into the table: maxSeq advances
// monotonically and cached responses are adopted for seqs not already
// present, so installing is idempotent and never regresses state a live
// session has built since.
func (t *Sessions) Install(states []wire.ReplSession) {
	for _, st := range states {
		if st.ID == 0 {
			continue
		}
		sess := t.get(st.ID)
		sess.mu.Lock()
		if st.MaxSeq > sess.maxSeq {
			sess.maxSeq = st.MaxSeq
		}
		for _, r := range st.Resps {
			if _, exists := sess.window[r.Seq]; !exists {
				sess.retainLocked(r.Seq, cachedResp{status: r.Status, payload: r.Resp})
			}
		}
		sess.mu.Unlock()
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

func (s *Server) idleTimeout() time.Duration {
	switch {
	case s.IdleTimeout == 0:
		return DefaultIdleTimeout
	case s.IdleTimeout < 0:
		return 0
	default:
		return s.IdleTimeout
	}
}

// ErrServerClosed is returned by Serve after the server is stopped by Close
// or Shutdown. It is the expected way for a serve loop to end — daemons
// match on it to exit quietly instead of logging a shutdown as a failure.
var ErrServerClosed = errors.New("server: closed")

// Serve accepts connections until the listener closes. After Close or
// Shutdown it returns ErrServerClosed; any other accept failure is returned
// as-is.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrServerClosed
	}
	s.lns = append(s.lns, ln)
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed || s.draining.Load() {
				return ErrServerClosed
			}
			return err
		}
		s.mu.Lock()
		if s.closed || s.draining.Load() {
			s.mu.Unlock()
			conn.Close()
			return ErrServerClosed
		}
		s.conns[conn] = true
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.ServeConn(conn)
		}()
	}
}

// Close stops listeners and connections and waits for handlers to drain.
// The underlying service is not closed; the owner does that.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	lns := s.lns
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, ln := range lns {
		ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return nil
}

// Shutdown drains the server gracefully: listeners close (new connections
// are refused), every in-flight request — including a forced append parked
// in a group commit — runs to completion and is acked, a pull parked on a
// subscription is answered "server shutting down" (one not parked sees its
// connection close), and connections wind down without a reset.
// If ctx expires first, the remaining connections are force-closed and ctx's
// error is returned without waiting further: a handler wedged in dispatch
// (a hung device, say) must not hold the exiting process hostage.
//
// The wake-up is a read deadline in the past on every live connection: a
// blocked ReadFrame returns immediately with a timeout, and the read loop —
// which re-checks draining after arming its own deadline, so the two writers
// cannot lose the wake-up — takes the drain path instead of the idle-drop
// path. A handler mid-request is not disturbed: the past deadline only
// affects reads, and the loop notices drain on its next iteration, after
// the response is written. The one request that waits on the read side, a
// parked pull, is woken by the same deadline (connHandler.watch).
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.mu.Lock()
	lns := s.lns
	s.lns = nil
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, ln := range lns {
		ln.Close()
	}
	for _, c := range conns {
		c.SetReadDeadline(time.Unix(1, 0))
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.mu.Lock()
		s.closed = true
		s.mu.Unlock()
		return nil
	case <-ctx.Done():
		// Close's shape minus the wg.Wait: force-close what remains, but a
		// handler that never returns cannot block the exit path.
		s.mu.Lock()
		s.closed = true
		conns = conns[:0]
		for c := range s.conns {
			conns = append(conns, c)
		}
		s.mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
		return ctx.Err()
	}
}

// ServeConn handles one connection until EOF, error, or idle timeout.
// Exported so callers can serve over a net.Pipe (the paper's same-machine
// IPC).
//
// Requests run inline: the connection's own goroutine executes each request
// and writes its answer before it reads the next, so answers come back in
// arrival order — the paper's synchronous send/reply (§2). Every client in
// the repo keeps one request in flight per connection; concurrency is across
// connections. The goroutine is the connection's one reader and its one
// writer, save for a pull parked on a subscription, whose watch reads
// (connHandler.watch) and is joined before the loop reads again.
func (s *Server) ServeConn(conn net.Conn) {
	s.mu.Lock()
	if !s.conns[conn] {
		// Direct ServeConn callers bypass Serve's registration.
		s.conns[conn] = true
	}
	// The connection joins the drain group itself (Serve's wrapper holds
	// its own count; the Add is balanced either way), so Shutdown waits for
	// directly-served connections — net.Pipe servers — too.
	s.wg.Add(1)
	s.mu.Unlock()
	defer s.wg.Done()
	defer conn.Close()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	// Until an OpHello attaches a shared session, the connection gets a
	// private one (seq-based dedup still works within the connection). Its
	// subscriptions live there, so they end with the connection.
	own := newSession(0)
	defer func() { // the loop is done with it, and no other goroutine has it
		for _, c := range own.cursors {
			c.Close()
		}
	}()
	h := &connHandler{srv: s, sess: own, fc: NewFrameConn(conn)}
	// A tenant session slot is held from hello to teardown; the release is
	// deferred here so every exit path — EOF, error, idle drop, drain —
	// returns it.
	defer func() {
		if h.tenant != nil {
			h.tenant.sessions.Add(-1)
		}
	}()
	for {
		if d := s.idleTimeout(); d > 0 {
			conn.SetReadDeadline(time.Now().Add(d))
		} else {
			conn.SetReadDeadline(time.Time{})
		}
		// Re-checked AFTER arming the deadline: Shutdown stores draining
		// before it pokes every connection with a past read deadline, so
		// whichever order this loop and Shutdown write the deadline, either
		// the check below fires or the next ReadFrame returns immediately —
		// the wake-up cannot be overwritten and slept through.
		if s.draining.Load() {
			return
		}
		// The payload is borrowed from fc: a request keeps nothing of it
		// past its answer (every decoder copies what it keeps).
		op, seq, traceID, payload, err := h.fc.ReadFrame()
		if err != nil {
			var ne net.Error
			switch {
			case s.draining.Load(), err == io.EOF, errors.Is(err, net.ErrClosed):
				// A drain stopped the read, or the connection was closed.
			case errors.As(err, &ne) && ne.Timeout():
				s.logf("clio server: dropping idle connection: %v", err)
			default:
				s.logf("clio server: read: %v", err)
			}
			return
		}
		m := s.met()
		m.countReq(op)
		start := time.Now()
		tr := s.Tracer.Start(traceID, opName(op))
		rep := h.handle(tr, op, seq, payload)
		// A pull whose connection went while it waited has nobody to answer.
		if err = h.readErr; err == nil {
			if err = h.fc.WriteFrameChunks(rep.status, seq, traceID, rep.head, rep.body); err != nil {
				s.logf("clio server: write: %v", err)
			}
		}
		if rep.then != nil {
			rep.then()
		}
		s.Tracer.Finish(tr)
		m.reqLat.ObserveSince(start)
		if err != nil {
			return
		}
	}
}

// session carries the per-client state that must survive a connection loss
// for reconnect to be transparent: open cursors, the highest sequence
// number processed, and a window of cached responses that makes retried
// requests idempotent.
type session struct {
	// exec serializes sequenced requests for the session, so a request
	// replayed on a new connection cannot race its original execution past
	// the duplicate-suppression lookup and run twice.
	exec sync.Mutex

	mu sync.Mutex
	id uint64
	// cursors holds the session's open cursors (shard.Cursor) and, in a
	// connection's own session, its subscriptions (*shard.Sub), under one
	// numbering.
	cursors    map[uint32]io.Closer
	nextCursor uint32
	maxSeq     uint64
	window     map[uint64]cachedResp
	order      []uint64 // FIFO of cached seqs for eviction
	retained   int      // payload bytes held by window
	// tenant pins a shared session to the tenant that first bound it ("" in
	// open mode): a session id is client-chosen, so without the pin one
	// tenant could replay another's session and read its cached responses.
	tenant string
	// gated is the seq of the sequenced mutation now inside Server.Gate (0
	// when none), gatedResp its response, and gatedPos the replication
	// stream position the gate shipped its record at (0 until it has). A
	// follower whose catch-up base is at or past gatedPos is handed no
	// frame for the record, which is not in the window yet either; Export
	// hands that follower the response as if recorded, until record takes
	// over.
	gated     uint64
	gatedPos  uint64
	gatedResp cachedResp
}

type cachedResp struct {
	status  byte
	payload []byte
}

func newSession(id uint64) *session {
	return &session{
		id:      id,
		cursors: make(map[uint32]io.Closer),
		window:  make(map[uint64]cachedResp),
	}
}

// lookup consults the dedup window. seen=true means the request was already
// processed and resp carries the original result; stale=true means it was
// processed but its response has been evicted.
func (ss *session) lookup(seq uint64) (resp cachedResp, seen, stale bool) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if seq > ss.maxSeq {
		return cachedResp{}, false, false
	}
	if r, ok := ss.window[seq]; ok {
		return r, true, false
	}
	return cachedResp{}, false, true
}

// record caches the response for seq and advances maxSeq.
//
// Invariant (audited): FIFO eviction can never drop a mid-flight sequenced
// request. A request is "mid-flight" between lookup and record, and during
// that span its seq is not in the window at all — there is nothing to
// evict. Once record inserts it, it is the newest of at most dedupWindow
// entries, and the newest entry is exempt from both bounds (retainLocked), so
// it stays until the next sequenced request — serialized behind this one
// under sess.exec — records its own response, by which time handle has
// returned this one. Eviction therefore only ever discards responses whose
// original request completed before a later one did; a replay that arrives
// after that reports the explicit "outside duplicate-suppression window"
// error rather than re-executing.
func (ss *session) record(seq uint64, status byte, payload []byte) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if seq > ss.maxSeq {
		ss.maxSeq = seq
	}
	ss.retainLocked(seq, cachedResp{status: status, payload: payload})
	if seq == ss.gated {
		ss.gated, ss.gatedPos, ss.gatedResp = 0, 0, cachedResp{}
	}
}

// setGated notes the response of seq as inside the gate, not yet shipped;
// seq 0 clears it. Requests of a session pass the gate one at a time
// (exec), so there is at most one.
func (ss *session) setGated(seq uint64, status byte, payload []byte) {
	ss.mu.Lock()
	ss.gated, ss.gatedPos, ss.gatedResp = seq, 0, cachedResp{status: status, payload: payload}
	ss.mu.Unlock()
}

// gateEmitted is Server.Gate's emitted: the gated response's record took
// stream position pos.
func (ss *session) gateEmitted(pos uint64) {
	ss.mu.Lock()
	if ss.gated != 0 {
		ss.gatedPos = pos
	}
	ss.mu.Unlock()
}

// retainLocked puts one response in the window and evicts oldest-first until
// the window is back inside both bounds, dedupWindow responses and
// MaxBatchBytes of payload. The response just added is never evicted,
// whatever its size. It is the only place the window grows, so live
// requests, replicated acks and an installed handoff state (Sessions.Export
// → Install) are accounted alike, on a leader and on a follower.
func (ss *session) retainLocked(seq uint64, r cachedResp) {
	if old, ok := ss.window[seq]; ok {
		ss.retained -= len(old.payload)
	} else {
		ss.order = append(ss.order, seq)
	}
	ss.window[seq] = r
	ss.retained += len(r.payload)
	for len(ss.order) > 1 && (len(ss.order) > dedupWindow || ss.retained > MaxBatchBytes) {
		evict := ss.order[0]
		ss.order = ss.order[1:]
		ss.retained -= len(ss.window[evict].payload)
		delete(ss.window, evict)
	}
}

func (ss *session) addCursor(cur io.Closer) uint32 {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	ss.nextCursor++
	ss.cursors[ss.nextCursor] = cur
	return ss.nextCursor
}

func (ss *session) cursor(handle uint32) io.Closer {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.cursors[handle]
}

func (ss *session) delCursor(handle uint32) {
	ss.mu.Lock()
	cur := ss.cursors[handle]
	delete(ss.cursors, handle)
	ss.mu.Unlock()
	if cur != nil {
		cur.Close()
	}
}

type connHandler struct {
	srv  *Server
	sess *session
	// tenant is the connection's authenticated tenant binding, nil until a
	// tenant hello succeeds (and always nil in open mode). Only the
	// connection's own goroutine touches it.
	tenant *tenantState
	// fillBuf is the scratch fillReply encodes entries into; the connection
	// answers one request at a time.
	fillBuf []byte
	// fc is the connection; readErr is the failure a parked pull's watch
	// read on it, which ends the loop.
	fc      *FrameConn
	readErr error
}

// reply is the one response shape: the status byte, the payload, and — when
// non-nil — body, the entry-data tail of the payload borrowed straight from
// the block cache. An unsequenced answer (OpReadAt) goes to the connection
// with the body uncopied; anything retained past the write (dedup window,
// replication gate) is flattened first.
type reply struct {
	status     byte
	head, body []byte
	// then, when set, runs after the answer is written (ExtOp).
	then func()
	// unrecorded answers are written and forgotten (a subscription's pull:
	// its connection's own session can be replayed by no one).
	unrecorded bool
	// unforced marks an append that was not forced: its success promises
	// no durability (Gate's durable).
	unforced bool
}

func okReply(head []byte) reply { return reply{status: StatusOK, head: head} }

// errReply renders a failure; a quota refusal carries its own status.
func errReply(err error) reply {
	status := byte(StatusErr)
	if _, ok := err.(*quotaError); ok {
		status = StatusQuotaExceeded
	}
	return reply{status: status, head: PutString(nil, err.Error())}
}

// result answers with head unless err is set.
func result(head []byte, err error) reply {
	if err != nil {
		return errReply(err)
	}
	return okReply(head)
}

// appendReply maps an append result to a response, surfacing degraded
// completion (the write went through around damaged blocks) as its own
// status so clients can distinguish it from failure.
func appendReply(ts int64, err error) reply {
	if core.IsDegraded(err) {
		return reply{status: StatusDegraded, head: wire.PutUint64(nil, uint64(ts))}
	}
	return result(wire.PutUint64(nil, uint64(ts)), err)
}

// flatten folds a borrowed body into one retained payload.
func (rep reply) flatten() reply {
	if rep.body != nil {
		rep.head, rep.body = append(rep.head, rep.body...), nil
	}
	return rep
}

// handle processes one request frame. Sequenced requests (seq > 0, op not
// unsequenced) pass through the session's duplicate-suppression window: a
// seq already processed returns its original cached response without
// re-executing, which is what makes client retry/replay idempotent for every
// operation (a replayed OpAppend does not write twice; a replayed OpNext does
// not advance twice).
func (h *connHandler) handle(tr *obs.Trace, op byte, seq uint64, payload []byte) reply {
	if op == OpHello {
		return h.hello(payload)
	}
	info := &opTable[op]
	sequenced := seq > 0 && !info.unsequenced
	if sequenced {
		h.sess.exec.Lock()
		defer h.sess.exec.Unlock()
		if resp, seen, stale := h.sess.lookup(seq); seen {
			h.srv.met().dedupHits.Inc()
			return reply{status: resp.status, head: resp.payload}
		} else if stale {
			return errReply(fmt.Errorf("server: request %d outside duplicate-suppression window", seq))
		}
	}
	if pg := h.srv.PreGate; pg != nil && info.mutating {
		if status, resp, reject := pg(op); reject {
			// Refused without executing and without recording: the client's
			// retry re-attempts the mutation once quorum is back.
			return reply{status: status, head: resp}
		}
	}
	rep := h.dispatch(tr, op, payload)
	if info.unsequenced || rep.unrecorded {
		return rep
	}
	// The response outlives the request (dedup window, Gate).
	rep = rep.flatten()
	if g := h.srv.Gate; g != nil && info.mutating {
		// The gate may hold the response for quorum, rewrite it on quorum
		// failure, and veto caching so the client's replay re-executes.
		var emitted func(uint64)
		if sequenced {
			h.sess.setGated(seq, rep.status, rep.head)
			emitted = h.sess.gateEmitted
		}
		var record bool
		durable := !rep.unforced || rep.status != StatusOK
		rep.status, rep.head, record = g(op, h.sess.id, seq, rep.status, rep.head, durable, emitted)
		if sequenced && !record {
			h.sess.setGated(0, 0, nil)
		}
		sequenced = sequenced && record
	}
	if sequenced {
		h.sess.record(seq, rep.status, rep.head)
	}
	return rep
}

// hello attaches the connection to the shared session named in the payload
// (creating it on first contact) and reports the server epoch plus the
// session's high-water sequence number. On a multi-tenant server the
// payload's extended form (wire.Hello) must carry valid tenant credentials;
// the session is then owned by that tenant, and a replayed session id
// cannot be adopted by a different tenant.
func (h *connHandler) hello(payload []byte) reply {
	req, err := wire.DecodeHello(payload)
	if err != nil {
		return errReply(err)
	}
	ts, err := h.srv.bindTenant(req.Tenant, req.Token)
	if err != nil {
		return errReply(err)
	}
	if h.tenant != nil {
		// A re-hello on the same connection releases the slot the previous
		// binding held (bindTenant took a fresh one above).
		h.tenant.sessions.Add(-1)
	}
	h.tenant = ts
	if id := req.Session; id != 0 {
		sess := h.srv.Sessions.get(id)
		if ts != nil {
			sess.mu.Lock()
			switch sess.tenant {
			case "":
				sess.tenant = ts.name
			case ts.name:
			default:
				sess.mu.Unlock()
				return errReply(fmt.Errorf("server: session %d belongs to another tenant", id))
			}
			sess.mu.Unlock()
		}
		h.sess = sess
	}
	out := wire.PutUint64(nil, h.srv.epoch)
	h.sess.mu.Lock()
	out = wire.PutUint64(out, h.sess.maxSeq)
	h.sess.mu.Unlock()
	return okReply(out)
}

// readID consumes a uvarint store-wide log-file id.
func readID(r *wire.Reader) logapi.ID {
	return logapi.ID(r.Bounded(math.MaxUint32, "log id out of range"))
}

// dispatch executes one request. On a multi-tenant server the request first
// passes the tenant gate — namespace scoping and quota reservation — and the
// reservation is settled against the outcome afterwards. In open mode the
// gate is a single atomic load.
func (h *connHandler) dispatch(tr *obs.Trace, op byte, payload []byte) reply {
	ts, reserved, err := h.tenantGate(op, payload)
	if err != nil {
		if qe, ok := err.(*quotaError); ok {
			ts.countQuota(qe.quota)
		}
		return errReply(err)
	}
	rep := h.dispatchOp(tr, op, payload)
	settleTenant(ts, opTable[op].settles, reserved, rep.status)
	return rep
}

// dispatchOp is the op switch behind the tenant gate: each arm reads its
// fields, leaves the switch if the payload was malformed (one answer for all,
// at the bottom), and otherwise runs the op.
func (h *connHandler) dispatchOp(tr *obs.Trace, op byte, payload []byte) reply {
	defer tr.Span("server.dispatch")()
	store := h.srv.store
	// Requests are uninterruptible once read off the wire — a dropped
	// connection must not cancel a mutation the dedup window will answer
	// for on replay — so dispatch runs under a background context.
	ctx := context.Background()
	r := newReader(payload)
	switch op {
	case OpPing:
		return okReply(nil)

	case OpCreate:
		path, perms, owner := r.String(), r.Uint16(), r.String()
		if r.Err() != nil {
			break
		}
		id, err := store.CreateLog(ctx, path, perms, owner)
		return result(wire.PutUvarint(nil, uint64(id)), err)

	case OpResolve:
		path := r.String()
		if r.Err() != nil {
			break
		}
		id, err := store.Resolve(ctx, path)
		return result(wire.PutUvarint(nil, uint64(id)), err)

	case OpList:
		path := r.String()
		if r.Err() != nil {
			break
		}
		names, err := store.List(ctx, path)
		out := wire.PutUvarint(nil, uint64(len(names)))
		for _, n := range names {
			out = PutString(out, n)
		}
		return result(out, err)

	case OpStat:
		path := r.String()
		if r.Err() != nil {
			break
		}
		desc, err := store.Stat(ctx, path)
		if err != nil {
			return errReply(err)
		}
		out := wire.PutUvarint(nil, uint64(desc.ID))
		out = wire.PutUvarint(out, uint64(desc.Parent))
		out = wire.PutUint16(out, desc.Perms)
		out = wire.PutUint64(out, uint64(desc.Created))
		out = PutString(out, desc.Name)
		out = PutString(out, desc.Owner)
		var flags byte
		if desc.Retired {
			flags |= 1
		}
		if desc.System {
			flags |= 2
		}
		return okReply(append(out, flags))

	case OpSetPerms:
		path, perms := r.String(), r.Uint16()
		if r.Err() != nil {
			break
		}
		return result(nil, store.SetPerms(ctx, path, perms))

	case OpRetire:
		path := r.String()
		if r.Err() != nil {
			break
		}
		return result(nil, store.Retire(ctx, path))

	case OpAppend:
		id, flags, data := readID(r), r.Byte(), r.Bytes()
		if r.Err() != nil {
			break
		}
		rep := appendReply(store.Append(ctx, id, data, appendOptions(flags, tr)))
		rep.unforced = flags&AppendForced == 0
		return rep

	case OpAppendMulti:
		nIDs := r.Uvarint()
		if r.Err() == nil && (nIDs == 0 || nIDs > 64) {
			return errReply(fmt.Errorf("server: bad member count %d", nIDs))
		}
		ids := make([]logapi.ID, nIDs)
		for i := range ids {
			ids[i] = readID(r)
		}
		flags, data := r.Byte(), r.Bytes()
		if r.Err() != nil {
			break
		}
		rep := appendReply(store.AppendMulti(ctx, ids, data, appendOptions(flags, tr)))
		rep.unforced = flags&AppendForced == 0
		return rep

	case OpForce:
		return result(nil, store.Force(ctx))

	case OpCursorOpen:
		path := r.String()
		if r.Err() != nil {
			break
		}
		cur, err := store.Cursor(ctx, path)
		if err != nil {
			return errReply(err)
		}
		return okReply(wire.PutUint32(nil, h.sess.addCursor(cur)))

	case wire.OpSubscribe:
		req, err := wire.DecodeStreamSubscribe(payload)
		if err != nil {
			return errReply(err)
		}
		if h.sess.id != 0 {
			return errReply(fmt.Errorf("server: a subscription lives in its connection's own session, and this connection is attached to session %d", h.sess.id))
		}
		opts := logapi.WatchOptions{FromStart: req.FromStart}
		for _, p := range req.From {
			opts.From = append(opts.From, logapi.Position{Shard: int(p.Shard), Block: int(p.Block), Rec: int(p.Rec)})
		}
		sub, err := store.Watch(ctx, req.Path, opts)
		if err != nil {
			return errReply(err)
		}
		return okReply(wire.PutUint32(nil, h.sess.addCursor(sub)))

	case OpNext, OpPrev, OpSeekTime, OpSeekStart, OpSeekEnd, OpSeekPos, OpCursorEnd:
		// The one place a cursor handle is decoded. Handles are uint32; a
		// wider value names no cursor (cast down, it used to alias one).
		handle := r.Bounded(math.MaxUint32, "unknown cursor handle")
		if r.Err() != nil {
			break
		}
		if op == OpCursorEnd {
			h.sess.delCursor(handle)
			return okReply(nil)
		}
		switch cur := h.sess.cursor(handle).(type) {
		case shard.Cursor:
			return cursorOp(ctx, tr, op, cur, r, h.srv.met(), &h.fillBuf)
		case *shard.Sub:
			if op == OpNext {
				return h.pull(cur, r)
			}
		}
		return errReply(fmt.Errorf("server: unknown cursor handle %d", handle))

	case OpReadAt:
		shardN, block, index := r.Uvarint(), r.Uvarint(), r.Uvarint()
		if r.Err() != nil {
			break
		}
		readDone := tr.Span("core.read")
		e, err := store.ReadAt(ctx, int(shardN), int(block), int(index))
		readDone()
		if err == nil {
			// Position-addressed reads are attributed after the fact: the
			// entry's primary log id names the owning namespace.
			err = h.tenantEntry(e.Shard, e.LogID)
		}
		if err != nil {
			return errReply(err)
		}
		return reply{status: StatusOK, head: appendEntryHead(nil, e), body: e.Data}

	case OpStats:
		st := store.Stats()
		out := wire.PutUint64(nil, uint64(st.EntriesAppended))
		out = wire.PutUint64(out, uint64(st.BlocksSealed))
		out = wire.PutUint64(out, uint64(st.ClientBytes))
		out = wire.PutUint64(out, uint64(store.End()))
		return okReply(out)

	default:
		if ext := h.srv.ExtOp; ext != nil {
			if status, resp, then, handled := ext(op, payload); handled {
				return reply{status: status, head: resp, then: then}
			}
		}
		return errReply(fmt.Errorf("server: unknown op %d", op))
	}
	return errReply(r.Err())
}

func appendOptions(flags byte, tr *obs.Trace) core.AppendOptions {
	return core.AppendOptions{
		Timestamped: flags&AppendTimestamped != 0,
		Forced:      flags&AppendForced != 0,
		Trace:       tr,
	}
}

// cursorOp runs one cursor request on cur; r stands after the handle. buf
// is the connection's fill scratch.
func cursorOp(ctx context.Context, tr *obs.Trace, op byte, cur shard.Cursor, r *wire.Reader, m *serverMetrics, buf *[]byte) reply {
	switch op {
	case OpNext, OpPrev:
		// The optional second field: OpNext's want, OpPrev's back.
		hasArg := r.Len() > 0
		var arg uint64
		if hasArg {
			arg = r.Uvarint()
		}
		if r.Err() != nil {
			break
		}
		defer tr.Span("core.read")()
		if op == OpNext {
			return fillReply(ctx, cur.NextEach, hasArg, arg, m.nextEntries, buf)
		}
		// Step back over what the client read ahead and never consumed.
		// They are entries this cursor itself returned — one batch at most
		// — so running out of log first means the position is gone, not
		// the beginning reached.
		if arg > MaxBatchEntries {
			return errReply(fmt.Errorf("server: cannot step back %d entries, a batch holds %d", arg, MaxBatchEntries))
		}
		for ; arg > 0; arg-- {
			if _, err := cur.Prev(ctx); err != nil {
				return errReply(fmt.Errorf("server: stepping back over read-ahead entries: %w", err))
			}
		}
		e, err := cur.Prev(ctx)
		if err == io.EOF {
			return reply{status: StatusEOF}
		}
		if err != nil {
			return errReply(err)
		}
		return reply{status: StatusOK, head: appendEntryHead(nil, e), body: e.Data}

	case OpSeekTime:
		ts := r.Int64()
		// The optional third field: want, as after OpNext's handle.
		fused := r.Len() > 0
		var want uint64
		if fused {
			want = r.Uvarint()
		}
		if r.Err() != nil {
			break
		}
		if err := cur.SeekTime(ctx, ts); err != nil || !fused {
			return result(nil, err)
		}
		// The seek stands whatever the read-ahead finds. The end of the log
		// and an error are for the Next that runs into them to report, so
		// either is answered as the bare seek is: nothing to buffer. A step
		// that failed passed no entry, so the cursor is still in the gap
		// the seek chose.
		defer tr.Span("core.read")()
		if rep := fillReply(ctx, cur.NextEach, true, want, m.seekEntries, buf); rep.status == StatusOK {
			return rep
		}
		return okReply(nil)

	case OpSeekStart:
		return result(nil, cur.SeekStart(ctx))

	case OpSeekEnd:
		return result(nil, cur.SeekEnd(ctx))

	case OpSeekPos:
		block, rec := r.Uvarint(), r.Uvarint()
		if r.Err() != nil {
			break
		}
		return result(nil, cur.SeekPos(ctx, int(block), int(rec)))
	}
	return errReply(r.Err())
}

// fillReply reads entries for a response in one run of each — a cursor's
// forward loop (shard.Cursor.NextEach), or a subscription's. It has two
// framings. The bare form (batched false) answers with one entry. The
// batched form takes up to min(max(want, 1), MaxBatchEntries) entries,
// stops taking entries once it holds MaxBatchBytes, and answers with every
// entry taken behind a count. EOF and errors are reported only by a call
// that found nothing before them; a batch just ends there, so neither is
// ever held in a client's buffer. delivered counts the entries answered.
//
// Each entry's head and data are appended once, straight into *buf, the
// connection's scratch. The answer is one exactly sized copy of it, because
// the dedup window retains it.
func fillReply(ctx context.Context, each func(context.Context, int, func(*core.Entry) bool) (int, error), batched bool, want uint64, delivered *obs.Counter, buf *[]byte) reply {
	limit := 1
	if batched {
		limit = int(min(max(want, 1), MaxBatchEntries))
	}
	out := (*buf)[:0]
	n, err := each(ctx, limit, func(e *core.Entry) bool {
		out = append(appendEntryHead(out, e), e.Data...)
		return len(out) < MaxBatchBytes
	})
	if cap(out) <= 2*MaxBatchBytes {
		*buf = out // an entry past that size is not worth keeping room for
	}
	if n == 0 {
		if err == io.EOF {
			return reply{status: StatusEOF}
		}
		return errReply(err)
	}
	delivered.Add(int64(n))
	var count [binary.MaxVarintLen64]byte
	head := count[:0]
	if batched {
		head = wire.PutUvarint(head, uint64(n))
	}
	resp := make([]byte, len(head)+len(out))
	copy(resp[copy(resp, head):], out)
	return okReply(resp)
}

// errDraining answers a pull a drain ended.
var errDraining = errors.New("server shutting down")

// pull answers OpNext on a subscription with a batch: the entries readable
// now or, at the end of the log, the first published. A request arriving
// while it waits ends it with nothing (StatusEOF), keeping answers in
// arrival order. The answer is not recorded: nothing can replay it.
func (h *connHandler) pull(sub *shard.Sub, r *wire.Reader) reply {
	want := r.Uvarint()
	if r.Err() != nil {
		return errReply(r.Err())
	}
	each := func(ctx context.Context, max int, visit func(*core.Entry) bool) (int, error) {
		return sub.RecvEach(ctx, max, visit, h.watch)
	}
	rep := fillReply(context.Background(), each, true, want, h.srv.met().nextEntries, &h.fillBuf)
	rep.unrecorded = true
	return rep
}

// watch is a parked pull's watch on the read side (shard.Sub.RecvEach): a
// goroutine waits for something to read — a request, a hang-up, a close, a
// drain's past deadline — and ends the park with io.EOF or errDraining. A
// park is not idleness: the idle deadline is lifted for it. The stop ends
// the wait with a past deadline and joins the goroutine before the loop reads.
func (h *connHandler) watch() (context.Context, func()) {
	ctx, cancel := context.WithCancelCause(context.Background())
	h.fc.conn.SetReadDeadline(time.Time{})
	// Re-checked after lifting the deadline, as the loop re-checks after
	// arming it: a drain's wake-up cannot be overwritten and slept through.
	if h.srv.draining.Load() {
		h.fc.conn.SetReadDeadline(time.Unix(1, 0))
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := h.fc.Wait(); err != nil && !errors.Is(err, os.ErrDeadlineExceeded) {
			h.readErr = err
		}
		if h.srv.draining.Load() {
			cancel(errDraining)
		}
		cancel(io.EOF)
	}()
	return ctx, func() {
		h.fc.conn.SetReadDeadline(time.Unix(1, 0))
		<-done
	}
}
