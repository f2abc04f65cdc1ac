package wire

import "errors"

// OpSubscribe, the streaming-read extension of the sessioned frame
// protocol, opens a live tail subscription — a remote cursor that waits —
// in the connection's own session, never a shared one, so that it cannot
// outlive its connection. Payload: StreamSubscribe; the answer carries its
// handle (u32). The client reads it with plain OpNext requests, answered in
// a cursor's batched layout, and a pull that finds nothing readable is
// answered when group commit publishes. 0x60–0x64 were an earlier release's
// push protocol.
const OpSubscribe = 0x65

// ErrStreamPayload is wrapped by every subscribe payload decode failure.
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
	// FromStart delivers existing history before live entries; the default
	// starts at the current end.
	FromStart bool
	// From resumes listed shard legs from gap positions (overriding
	// FromStart for those shards).
	From []StreamPos
}

// Encode appends the subscribe's wire form.
func (s *StreamSubscribe) Encode(b []byte) []byte {
	b = putBytes(b, []byte(s.Path))
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
	return b
}

// DecodeStreamSubscribe parses a StreamSubscribe payload.
func DecodeStreamSubscribe(payload []byte) (*StreamSubscribe, error) {
	r := NewReader(payload, ErrStreamPayload)
	s := &StreamSubscribe{Path: r.String(), FromStart: r.Byte() != 0}
	for n := r.Bounded(maxStreamFrom, "from count range"); n > 0 && r.Err() == nil; n-- {
		s.From = append(s.From, StreamPos{Shard: r.Bounded(maxStreamFrom, "from shard range"), Block: r.Uvarint(), Rec: r.Uvarint()})
	}
	if r.Len() != 0 {
		r.Fail("trailing bytes after subscribe")
	}
	return s, r.Err()
}
