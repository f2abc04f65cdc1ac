package wire

import (
	"errors"
	"fmt"
)

// Streaming-read opcodes, an extension of the sessioned frame protocol
// (internal/server: u32 len | u8 op | u64 seq | u64 traceID | payload).
// They live in the 0x60 range so they can never collide with the client ops
// (1–21) or the replication extension (0x40–0x4A).
//
// A subscription runs on a dedicated connection: the client sends one
// OpStreamSubscribe, then the server pushes OpStreamDeliver frames — the
// status byte of a pushed frame is the opcode itself, which no response
// status (0–5) can collide with, and the seq field carries the subscription
// id. Flow control is credit-based: the subscribe payload grants an initial
// window, OpStreamCredit replenishes it as the consumer drains, and the
// server stops pushing when the window is exhausted — backpressure on a slow
// network consumer without buffering unbounded entries server-side.
const (
	// OpStreamSubscribe opens a live tail subscription (client → server).
	// Payload: StreamSubscribe. The response carries the subscription id
	// (u32).
	OpStreamSubscribe = 0x60
	// OpStreamDeliver carries one delivered entry (server → client, pushed).
	// Payload: the subscription id (uvarint), then the entry in the server's
	// entry-response layout (server.AppendDeliver/DecodeDeliver). The
	// frame's seq field echoes the subscription id.
	OpStreamDeliver = 0x61
	// OpStreamCredit replenishes a subscription's delivery window (client →
	// server). Payload: StreamCredit.
	OpStreamCredit = 0x62
	// OpStreamUnsubscribe closes a subscription (client → server). Payload:
	// StreamUnsubscribe.
	OpStreamUnsubscribe = 0x63
	// OpStreamEnd reports a subscription ended server-side (pushed) — the
	// backing service closed, the log was lost, or the server is shutting
	// down. Payload: StreamEnd.
	OpStreamEnd = 0x64
)

// ErrStreamPayload is wrapped by every streaming payload decode failure.
var ErrStreamPayload = errors.New("wire: malformed stream payload")

// maxStreamFrom bounds what a decoder will allocate for; anything larger is
// malformed.
const maxStreamFrom = 1 << 16

// StreamPos is one shard's resume position inside a subscribe payload: the
// gap position after the last entry the consumer has (Rec = Index + 1).
type StreamPos struct {
	Shard uint32
	Block uint64
	Rec   uint64
}

// StreamSubscribe opens a subscription to the log file at Path.
type StreamSubscribe struct {
	Path string
	// Buffer sized an older server's delivery buffer. It is still encoded
	// and decoded, so the payload is unchanged, but it sizes nothing:
	// Credit is the window.
	Buffer uint32
	// FromStart delivers existing history before live entries; the default
	// starts at the current end.
	FromStart bool
	// From resumes listed shard legs from gap positions (overriding
	// FromStart for those shards).
	From []StreamPos
	// Credit is the initial delivery window in entries; 0 uses the server
	// default.
	Credit uint32
}

// StreamCredit replenishes a subscription's delivery window.
type StreamCredit struct {
	SubID  uint32
	Credit uint32
}

// StreamUnsubscribe closes a subscription.
type StreamUnsubscribe struct {
	SubID uint32
}

// StreamEnd reports a server-side subscription end; Msg explains why.
type StreamEnd struct {
	SubID uint32
	Msg   string
}

// subID consumes a subscription id.
func (r *Reader) subID() uint32 { return r.Bounded(^uint32(0), "sub id range") }

// Encode appends the subscribe's wire form.
func (s *StreamSubscribe) Encode(b []byte) []byte {
	b = putBytes(b, []byte(s.Path))
	b = PutUvarint(b, uint64(s.Buffer))
	var fs byte
	if s.FromStart {
		fs = 1
	}
	b = append(b, fs)
	b = PutUvarint(b, uint64(len(s.From)))
	for _, p := range s.From {
		b = PutUvarint(b, uint64(p.Shard))
		b = PutUvarint(b, p.Block)
		b = PutUvarint(b, p.Rec)
	}
	return PutUvarint(b, uint64(s.Credit))
}

// DecodeStreamSubscribe parses a StreamSubscribe payload.
func DecodeStreamSubscribe(payload []byte) (*StreamSubscribe, error) {
	r := NewReader(payload, ErrStreamPayload)
	s := &StreamSubscribe{Path: r.String()}
	s.Buffer, s.FromStart = r.Bounded(maxStreamFrom, "buffer range"), r.Byte() != 0
	for n := r.Bounded(maxStreamFrom, "from count range"); n > 0 && r.Err() == nil; n-- {
		s.From = append(s.From, StreamPos{Shard: r.Bounded(maxStreamFrom, "from shard range"), Block: r.Uvarint(), Rec: r.Uvarint()})
	}
	s.Credit = r.Bounded(1<<30, "credit range")
	return s, r.Err()
}

// Encode appends the credit grant's wire form.
func (c *StreamCredit) Encode(b []byte) []byte {
	b = PutUvarint(b, uint64(c.SubID))
	return PutUvarint(b, uint64(c.Credit))
}

// DecodeStreamCredit parses a StreamCredit payload.
func DecodeStreamCredit(payload []byte) (*StreamCredit, error) {
	r := NewReader(payload, ErrStreamPayload)
	c := &StreamCredit{SubID: r.subID(), Credit: r.Bounded(1<<30, "credit range")}
	return c, r.Err()
}

// Encode appends the unsubscribe's wire form.
func (u *StreamUnsubscribe) Encode(b []byte) []byte {
	return PutUvarint(b, uint64(u.SubID))
}

// DecodeStreamUnsubscribe parses a StreamUnsubscribe payload.
func DecodeStreamUnsubscribe(payload []byte) (*StreamUnsubscribe, error) {
	r := NewReader(payload, ErrStreamPayload)
	u := &StreamUnsubscribe{SubID: r.subID()}
	return u, r.Err()
}

// Encode appends the end notice's wire form.
func (e *StreamEnd) Encode(b []byte) []byte {
	b = PutUvarint(b, uint64(e.SubID))
	return putBytes(b, []byte(e.Msg))
}

// DecodeStreamEnd parses a StreamEnd payload.
func DecodeStreamEnd(payload []byte) (*StreamEnd, error) {
	r := NewReader(payload, ErrStreamPayload)
	e := &StreamEnd{SubID: r.subID(), Msg: r.String()}
	return e, r.Err()
}

// DecodeStream parses any streaming payload by opcode — the single entry
// point protocol handlers (and the fuzz harness) use, so every streaming
// decoder shares the no-panic guarantee. Unknown ops return an error, and so
// does OpStreamDeliver, whose entry layout is the server's.
func DecodeStream(op byte, payload []byte) (any, error) {
	switch op {
	case OpStreamSubscribe:
		return DecodeStreamSubscribe(payload)
	case OpStreamCredit:
		return DecodeStreamCredit(payload)
	case OpStreamUnsubscribe:
		return DecodeStreamUnsubscribe(payload)
	case OpStreamEnd:
		return DecodeStreamEnd(payload)
	default:
		return nil, fmt.Errorf("%w: unknown stream op %#x", ErrStreamPayload, op)
	}
}

// IsStreamOp reports whether op belongs to the streaming extension.
func IsStreamOp(op byte) bool { return op >= OpStreamSubscribe && op <= OpStreamEnd }
