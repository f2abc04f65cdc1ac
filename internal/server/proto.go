// Package server implements the extended-file-server side of Clio: a
// message protocol exposing the log service to clients over a byte-stream
// connection, mirroring the paper's V-System file server with attached log
// devices (§2). The client side lives in internal/client.
//
// The paper's clients talk to the server with synchronous IPC; here a
// request/response protocol runs over any net.Conn — a net.Pipe for the
// same-machine case (the paper's 0.5–1 ms IPC) or TCP for the cross-machine
// case (2.5–3 ms).
//
// Wire format: every message is a length-prefixed frame
//
//	u32 frameLen | u8 op | u64 seq | u64 traceID | payload...
//
// with integers little-endian and strings/bytes length-prefixed by uvarint.
// Responses reuse the frame with op = status code (ok / error / EOF /
// degraded) and echo the request's seq and traceID.
//
// seq is the client-assigned session sequence number (the request ID): it
// pairs responses with requests and drives the server's per-session
// duplicate-suppression window, which makes retried requests idempotent — a
// client that lost a connection mid-call can reconnect, replay the request
// under the same seq, and receive the original result instead of a second
// execution. seq 0 opts out of duplicate suppression.
//
// traceID names the request in the observability layer: the server opens an
// obs trace under it, so a client-side ID can be correlated with the
// server's /tracez ring buffers. A replayed request carries its original
// traceID (it is derived from session and seq, not regenerated per send).
// traceID 0 means untraced.
package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"time"

	"clio/internal/core"
	"clio/internal/wire"
)

// Request opcodes.
const (
	OpCreate      = 1
	OpResolve     = 2
	OpList        = 3
	OpStat        = 4
	OpSetPerms    = 5
	OpRetire      = 6
	OpAppend      = 7
	OpCursorOpen  = 8
	OpNext        = 9
	OpPrev        = 10
	OpSeekTime    = 11
	OpSeekStart   = 12
	OpSeekEnd     = 13
	OpCursorEnd   = 14
	OpReadAt      = 15
	OpPing        = 16
	OpStats       = 17
	OpAppendMulti = 18
	OpSeekPos     = 19
	// OpHello attaches the connection to a client session (payload: u64
	// session id). The response payload is u64 server epoch + u64 maxSeq
	// already processed for that session, letting a reconnecting client
	// detect a server restart (epoch change = session state lost).
	OpHello = 20
	// OpForce asks the store to make everything appended so far durable
	// (empty payload, empty response). It mutates device state, so it runs
	// sequenced like appends.
	OpForce = 21
)

// Response status codes.
const (
	StatusOK  = 0
	StatusErr = 1
	StatusEOF = 2
	// StatusDegraded reports an append that COMPLETED (the payload carries
	// the entry's timestamp, exactly like StatusOK) but had to relocate
	// past damaged blocks to do so (§2.3.2, core.DegradedError).
	StatusDegraded = 3
	// StatusNotLeader rejects a write-class request sent to a replication
	// follower. The payload carries the current leader's address as a
	// length-prefixed string (empty when unknown), so the client can
	// redirect in one round trip instead of probing the address list.
	StatusNotLeader = 4
	// StatusUnavailable rejects a write-class request the node refuses to
	// even start — a cluster leader cut off from its quorum answers this
	// instead of executing a write it could never ack. The payload carries a
	// length-prefixed reason. Unlike StatusErr it is a property of the node,
	// not the request: clients should retry elsewhere.
	StatusUnavailable = 5
	// StatusQuotaExceeded rejects a request that would push the session's
	// tenant past one of its configured quotas (max logs, max appended
	// bytes, max concurrent sessions). The payload carries a
	// length-prefixed reason naming the quota. The request did NOT execute
	// — an append refused for quota wrote nothing — and unlike
	// StatusUnavailable the condition will not clear by retrying elsewhere:
	// clients surface it to the application instead of retrying.
	StatusQuotaExceeded = 6
)

// Append flag bits.
const (
	AppendTimestamped = 1 << 0
	AppendForced      = 1 << 1
)

// Entry flag bits (in entry responses).
const (
	EntryTimestamped = 1 << 0
	EntryForced      = 1 << 1
)

// MaxFrame bounds a single protocol frame.
const MaxFrame = 8 << 20

// Cursor steps. OpNext and OpPrev carry a cursor handle (uvarint) and answer
// with one entry in the entry-response layout, StatusEOF at the end of the
// log. Both take an optional second uvarint; a bare handle keeps that
// exchange byte for byte.
//
// After OpNext's handle it is `want`, the read-ahead form: the server steps
// the cursor up to min(want, MaxBatchEntries) times and answers with an entry
// batch (see DecodeEntryBatch) instead of a bare entry. A batch takes no
// further entry once it holds MaxBatchBytes, so it overshoots by less than
// one entry, and it always carries at least one. It ends early at the end of
// the log or at an error, neither of which is ever part of a batch: the
// request after it reports them, as the bare form would. The batch count is a
// uvarint: a count below 128 is one byte, so a server capped at 64 entries
// sends exactly what this one sends for 64, and a client asking for 64 gets at
// most 64 back.
//
// MaxBatchBytes is also the byte budget of a session's dedup window, which
// keeps the newest answer whole whatever its size: a refill is as large as
// the window retains, one batch. MaxBatchEntries is high enough that the
// bytes bind (a 64 KiB batch of ~78-byte entries is about 840 of them).
// Builds with other caps interoperate: a client capped at 256 asks for at
// most 256 and gets at most 256 back; a server capped at 256 answers a
// larger want with 256, and the client's ramp simply stays there.
//
// After OpPrev's handle it is `back`: how many entries the client read ahead
// and did not consume, which the server steps back over before the Prev it
// answers. It is at most one batch, MaxBatchEntries.
//
// OpSeekTime carries a handle and a timestamp (uint64) and answers with an
// empty payload. It takes the same optional trailing `want` as OpNext, the
// fused form: the server seeks, then reads ahead exactly as an OpNext with
// that want would, and answers with the batch. When that read-ahead finds
// nothing to deliver — the seek landed at the end of the log, or the first
// step failed — the answer is the bare one, an empty payload: the seek
// stands, the cursor is in the gap it chose, and the end of the log or the
// error is reported by the OpNext that runs into it.
const (
	MaxBatchEntries = 1024
	MaxBatchBytes   = 64 << 10
)

// ErrFrameTooLarge is returned for frames above MaxFrame.
var ErrFrameTooLarge = errors.New("server: frame too large")

// frameHeader is the fixed part of a frame: u32 length, op, seq, traceID.
const frameHeader = 4 + 17

// appendFrameHeader appends the header of a frame with an n-byte payload.
func appendFrameHeader(dst []byte, op byte, seq, trace uint64, n int) []byte {
	dst = wire.PutUint32(dst, uint32(n+17))
	dst = append(dst, op)
	dst = wire.PutUint64(dst, seq)
	return wire.PutUint64(dst, trace)
}

// appendFrame appends a whole frame.
func appendFrame(dst []byte, op byte, seq, trace uint64, payload []byte) []byte {
	return append(appendFrameHeader(dst, op, seq, trace, len(payload)), payload...)
}

// WriteFrame writes one length-prefixed frame (op byte + seq + traceID +
// payload) in one Write. A connection's frames go through its FrameConn;
// this is for a caller with a bare writer and a frame or two to send.
func WriteFrame(w io.Writer, op byte, seq, trace uint64, payload []byte) error {
	if len(payload)+17 > MaxFrame {
		return ErrFrameTooLarge
	}
	_, err := w.Write(appendFrame(nil, op, seq, trace, payload))
	return err
}

// ReadFrame reads one frame, returning its op byte, sequence number, trace
// ID and payload. Like WriteFrame it is for a bare reader; a connection's
// frames go through its FrameConn.
func ReadFrame(r io.Reader) (byte, uint64, uint64, []byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n < 17 || n > MaxFrame {
		return 0, 0, 0, nil, ErrFrameTooLarge
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, 0, 0, nil, err
	}
	return buf[0], binary.LittleEndian.Uint64(buf[1:9]),
		binary.LittleEndian.Uint64(buf[9:17]), buf[17:], nil
}

// Frame buffer sizes. A connection's reader is small, so a frame that does
// not fit it (a 64 KiB cursor batch, say) is read straight into its payload
// instead of being copied through the buffer, and a payload above
// inlineMax is written by writev instead of being copied into the write
// buffer. A buffer that grew past keepBuffer is dropped after its frame.
const (
	frameReadBuffer = 4 << 10
	inlineMax       = 2 << 10
	keepBuffer      = 128 << 10
)

// FrameConn is the frame I/O of one protocol connection: a buffered reader
// made with the connection, so a frame costs one read system call however
// many the connection holds, and a write buffer, so a frame costs one
// write and no allocation. Every reader of the connection reads through it
// (a handshake, then whatever reads the connection after it), and it is
// never shared between connections: bytes it holds belong to this
// connection only.
//
// Reads come from one goroutine at a time, and so do writes, under
// whatever lock serializes the connection's writers; a read and a write
// may run concurrently.
type FrameConn struct {
	conn net.Conn
	br   *bufio.Reader
	rbuf []byte // payload of a borrowed frame the reader cannot hold whole
	wbuf []byte // frames queued for the next write
	vec  net.Buffers
	vecs [3][]byte // vec's backing array
}

// NewFrameConn wraps a connection.
func NewFrameConn(conn net.Conn) *FrameConn {
	return &FrameConn{conn: conn, br: bufio.NewReaderSize(conn, frameReadBuffer)}
}

// Close closes the connection.
func (fc *FrameConn) Close() error { return fc.conn.Close() }

// SetDeadline sets the connection's read and write deadlines.
func (fc *FrameConn) SetDeadline(t time.Time) error { return fc.conn.SetDeadline(t) }

// Buffered reports how many bytes of later frames the reader already holds.
func (fc *FrameConn) Buffered() int { return fc.br.Buffered() }

// Wait blocks until the connection has a byte to read or its read fails. It
// consumes nothing: the next read still reads the frame whole.
func (fc *FrameConn) Wait() error {
	_, err := fc.br.Peek(1)
	return err
}

// peek returns the next n bytes of the stream without consuming them; a
// stream that ends inside them is io.ErrUnexpectedEOF.
func (fc *FrameConn) peek(n int) ([]byte, error) {
	b, err := fc.br.Peek(n)
	if err == io.EOF && len(b) > 0 {
		err = io.ErrUnexpectedEOF
	}
	return b, err
}

// header consumes the next frame's header and returns its payload length.
func (fc *FrameConn) header() (op byte, seq, trace uint64, n int, err error) {
	b, err := fc.peek(4)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	size := binary.LittleEndian.Uint32(b)
	if size < 17 || size > MaxFrame {
		return 0, 0, 0, 0, ErrFrameTooLarge
	}
	if b, err = fc.peek(frameHeader); err != nil {
		return 0, 0, 0, 0, err
	}
	op, seq, trace = b[4], binary.LittleEndian.Uint64(b[5:13]), binary.LittleEndian.Uint64(b[13:])
	fc.br.Discard(frameHeader)
	return op, seq, trace, int(size) - 17, nil
}

// ReadFrame reads the next frame. The payload is borrowed: it is valid only
// until the next read, so a caller copies whatever it keeps. A frame the
// reader holds whole is returned in place, with no copy; a larger one is
// read into a buffer the connection reuses.
func (fc *FrameConn) ReadFrame() (op byte, seq, trace uint64, payload []byte, err error) {
	op, seq, trace, n, err := fc.header()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	if n <= fc.br.Size() {
		if payload, err = fc.peek(n); err != nil {
			return 0, 0, 0, nil, err
		}
		fc.br.Discard(n)
		return op, seq, trace, payload, nil
	}
	if cap(fc.rbuf) < n {
		fc.rbuf = make([]byte, n)
	}
	payload = fc.rbuf[:n]
	if cap(fc.rbuf) > keepBuffer {
		fc.rbuf = nil
	}
	if _, err := io.ReadFull(fc.br, payload); err != nil {
		return 0, 0, 0, nil, unexpectedEOF(err)
	}
	return op, seq, trace, payload, nil
}

// ReadFrameOwned reads the next frame into a payload of its own, which the
// caller may keep. The payload is read straight into that allocation: only
// the part already buffered is copied.
func (fc *FrameConn) ReadFrameOwned() (op byte, seq, trace uint64, payload []byte, err error) {
	op, seq, trace, n, err := fc.header()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	payload = make([]byte, n)
	if _, err := io.ReadFull(fc.br, payload); err != nil {
		return 0, 0, 0, nil, unexpectedEOF(err)
	}
	return op, seq, trace, payload, nil
}

// unexpectedEOF reports a stream that ended inside a frame's payload.
func unexpectedEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// Queue appends one frame to the write buffer without writing it; Flush
// writes everything queued in one Write.
func (fc *FrameConn) Queue(op byte, seq, trace uint64, payload []byte) error {
	if len(payload)+17 > MaxFrame {
		return ErrFrameTooLarge
	}
	fc.wbuf = appendFrame(fc.wbuf, op, seq, trace, payload)
	return nil
}

// Queued returns the bytes queued for the next Flush.
func (fc *FrameConn) Queued() int { return len(fc.wbuf) }

// Flush writes the queued frames in one Write.
func (fc *FrameConn) Flush() error {
	_, err := fc.conn.Write(fc.wbuf)
	fc.resetWrite()
	return err
}

func (fc *FrameConn) resetWrite() {
	fc.wbuf = fc.wbuf[:0]
	if cap(fc.wbuf) > keepBuffer {
		fc.wbuf = nil
	}
}

// WriteFrame writes the queued frames and one more, in one Write.
func (fc *FrameConn) WriteFrame(op byte, seq, trace uint64, payload []byte) error {
	return fc.WriteFrameChunks(op, seq, trace, payload, nil)
}

// WriteFrameChunks writes the queued frames and one more whose payload is
// head followed by body, without concatenating them in a new allocation. A
// payload up to inlineMax is copied into the write buffer and goes out in one
// Write. A larger one is not copied: the buffer, head and body go out in one
// writev, so a body borrowed from the block cache (a sealed entry's data)
// travels from the immutable block image to the connection with no
// intermediate copy.
func (fc *FrameConn) WriteFrameChunks(op byte, seq, trace uint64, head, body []byte) error {
	n := len(head) + len(body)
	if n+17 > MaxFrame {
		return ErrFrameTooLarge
	}
	fc.wbuf = appendFrameHeader(fc.wbuf, op, seq, trace, n)
	if n <= inlineMax {
		fc.wbuf = append(append(fc.wbuf, head...), body...)
		return fc.Flush()
	}
	fc.vec = append(fc.vecs[:0], fc.wbuf)
	for _, b := range [2][]byte{head, body} {
		if len(b) > 0 {
			fc.vec = append(fc.vec, b)
		}
	}
	_, err := fc.vec.WriteTo(fc.conn)
	fc.vecs = [3][]byte{} // keep no borrowed body alive
	fc.resetWrite()
	return err
}

// Entry layout.

// EncodeEntry renders one entry in the protocol's entry-response layout.
// Exported for the cluster follower, which serves OpReadAt from replicated
// sealed history without a live server.
func EncodeEntry(e *core.Entry) []byte {
	return append(appendEntryHead(nil, e), e.Data...)
}

// appendEntryHead appends everything up to and including the data length
// prefix — shard-local LogID (u16), timestamp, flag byte, then the shard
// ordinal and the shard-local (block, index) position as uvarints and the
// extra member ids — so the data itself can be shipped as a separate
// borrowed chunk (FrameConn.WriteFrameChunks): head + e.Data is EncodeEntry.
func appendEntryHead(out []byte, e *core.Entry) []byte {
	out = wire.PutUint16(out, e.LogID)
	out = wire.PutUint64(out, uint64(e.Timestamp))
	var flags byte
	if e.Timestamped {
		flags |= EntryTimestamped
	}
	if e.Forced {
		flags |= EntryForced
	}
	out = append(out, flags)
	out = wire.PutUvarint(out, uint64(e.Shard))
	out = wire.PutUvarint(out, uint64(e.Block))
	out = wire.PutUvarint(out, uint64(e.Index))
	out = wire.PutUvarint(out, uint64(len(e.ExtraIDs)))
	for _, id := range e.ExtraIDs {
		out = wire.PutUint16(out, id)
	}
	return wire.PutUvarint(out, uint64(len(e.Data)))
}

// DecodeEntry consumes one entry in the entry-response layout. The entry's
// data aliases the payload: it pins the response it came in, which nothing
// reuses.
func DecodeEntry(r *wire.Reader) (*core.Entry, error) {
	e := new(core.Entry)
	if readEntry(r, e); r.Err() != nil {
		return nil, r.Err()
	}
	return e, nil
}

// minEntryBytes is the smallest entry in the entry-response layout: the fixed
// head (LogID, timestamp, flag byte) and five one-byte uvarints (shard, block,
// index, no extra ids, empty data).
const (
	entryHeadBytes = 2 + 8 + 1
	minEntryBytes  = entryHeadBytes + 5
)

// readEntry is DecodeEntry into e, with the failure left in r.
func readEntry(r *wire.Reader, e *core.Entry) {
	if h := r.Fixed(entryHeadBytes, "entry head"); h != nil {
		h = h[:entryHeadBytes]
		e.LogID = binary.LittleEndian.Uint16(h)
		e.Timestamp = int64(binary.LittleEndian.Uint64(h[2:]))
		e.Timestamped = h[10]&EntryTimestamped != 0
		e.Forced = h[10]&EntryForced != 0
	}
	e.Shard, e.Block, e.Index = int(r.Uvarint()), int(r.Uvarint()), int(r.Uvarint())
	nExtra := r.Uvarint()
	if nExtra > uint64(r.Len())/2 {
		r.Fail("extra id count")
	}
	for ; nExtra > 0 && r.Err() == nil; nExtra-- {
		e.ExtraIDs = append(e.ExtraIDs, r.Uint16())
	}
	data := r.View()
	e.Data = data[:len(data):len(data)] // an append to it cannot overwrite what follows
}

// DecodeEntryBatch consumes a batched OpNext response — a uvarint count
// followed by that many entries, to the end of the payload. The entries are
// one slab of values and their data aliases the payload, so a batch costs one
// allocation however many entries it carries, and any entry kept pins the
// whole batch. The whole payload is validated before anything is returned: a
// batch that is empty, claims more than MaxBatchEntries or more than its
// bytes could hold, is truncated, or is followed by trailing bytes is an
// error, and no entry comes back.
func DecodeEntryBatch(r *wire.Reader) ([]core.Entry, error) {
	n := r.Uvarint()
	if n == 0 || n > MaxBatchEntries || n > uint64(r.Len()/minEntryBytes) {
		r.Fail("entry batch count")
	}
	if r.Err() != nil {
		return nil, r.Err()
	}
	slab := make([]core.Entry, n)
	for i := 0; i < len(slab) && r.Err() == nil; i++ {
		readEntry(r, &slab[i])
	}
	if r.Len() != 0 {
		r.Fail("trailing bytes after entry batch")
	}
	if r.Err() != nil {
		return nil, r.Err()
	}
	return slab, nil
}

// Payload encoding helpers.

// PutString appends a uvarint-length-prefixed string.
func PutString(dst []byte, s string) []byte {
	dst = wire.PutUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// PutBytes appends a uvarint-length-prefixed byte slice.
func PutBytes(dst []byte, b []byte) []byte {
	dst = wire.PutUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// errMalformed is the family sentinel of the client-protocol payloads.
var errMalformed = errors.New("server: malformed payload")

// newReader reads a client-protocol payload.
func newReader(payload []byte) *wire.Reader { return wire.NewReader(payload, errMalformed) }

// Decoder is wire.Reader behind the two (value, error) methods
// bench/ladder.go calls; nothing else uses it. Delete it with ROADMAP item 6B's
// bench/ edit.
type Decoder struct{ r *wire.Reader }

// NewDecoder wraps a response payload.
func NewDecoder(buf []byte) *Decoder { return &Decoder{newReader(buf)} }

// String consumes a length-prefixed string.
func (d *Decoder) String() (string, error) { s := d.r.String(); return s, d.r.Err() }

// Uint32 consumes a little-endian uint32.
func (d *Decoder) Uint32() (uint32, error) { v := d.r.Uint32(); return v, d.r.Err() }
