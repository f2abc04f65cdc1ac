package wire

import (
	"errors"
	"fmt"
)

// Replication and promotion opcodes, an extension of the sessioned frame
// protocol (internal/server: u32 len | u8 op | u64 seq | u64 traceID |
// payload). They live above 0x40 so they can never collide with the client
// ops. The leader dials each follower and drives one replication stream per
// connection; the seq field of a streamed frame carries the stream position
// and the follower's per-frame response echoes it as a cumulative ack
// ("position p acked" means every frame at or below p has been durably
// applied).
const (
	// OpReplHello opens a replication stream (leader → follower). Payload:
	// ReplHello. The response payload is a ReplHelloResp carrying the
	// follower's per-device written extents, which the leader uses to send
	// only the missing suffix.
	OpReplHello = 0x40
	// OpReplWrite carries one sealed block image. Payload: ReplWrite.
	OpReplWrite = 0x41
	// OpReplInvalidate mirrors a block invalidation. Payload: ReplInvalidate.
	OpReplInvalidate = 0x42
	// OpReplTail carries an NVRAM-staged partial tail block. Payload:
	// ReplTail.
	OpReplTail = 0x43
	// OpReplTailClear mirrors an NVRAM clear (the tail was sealed). Payload:
	// ReplTailClear.
	OpReplTailClear = 0x44
	// OpReplAck replicates one session duplicate-suppression record, so a
	// promoted follower answers replayed requests with the original result.
	// Payload: ReplAck.
	OpReplAck = 0x45
	// OpReplSessions carries a full session-table snapshot during catch-up.
	// Payload: ReplSessions.
	OpReplSessions = 0x46
	// OpReplBase marks the end of catch-up: everything at or below the
	// carried stream position is covered by the state already sent. Payload:
	// ReplBase.
	OpReplBase = 0x47
	// OpReplReset orders the follower to discard a diverged device and
	// re-sync it from block zero. Payload: ReplReset.
	OpReplReset = 0x48
	// OpPromote orders a follower to promote itself to leader (sent by an
	// operator or failover controller, not by the old leader). Empty
	// payload; the response carries the new term (u64).
	OpPromote = 0x49
	// OpReplStatus asks any node for its replication role and progress.
	// Empty payload; the response is a ReplStatusResp.
	OpReplStatus = 0x4A
)

// Replication role codes (ReplStatusResp.Role).
const (
	RoleFollower = 0
	RoleLeader   = 1
)

// ErrReplPayload is wrapped by every replication payload decode failure.
var ErrReplPayload = errors.New("wire: malformed replication payload")

// ReplHello is the stream handshake sent by a leader.
type ReplHello struct {
	// Term is the leader's election term. A follower accepts streams only
	// from the highest term it has seen; a leader that learns of a higher
	// term steps down.
	Term uint64
	// Epoch is the cluster epoch: the server epoch minted by the first
	// leader and carried across promotions, so clients keep their sessions
	// through a failover.
	Epoch uint64
	// LeaderAddr is the address clients should be redirected to.
	LeaderAddr string
	// Shards and BlockSize describe the store geometry; a mismatch refuses
	// the stream.
	Shards    uint32
	BlockSize uint32
}

// ReplDevState is one device's extent in a hello response or status report.
type ReplDevState struct {
	Shard uint32
	Dev   uint32
	// Written is the device's written-block count.
	Written uint64
	// LastCRC is the CRC-32C of the highest written block (0 when none),
	// used to detect divergence: a follower whose last block differs from
	// the leader's copy cannot be caught up by a suffix.
	LastCRC uint32
}

// ReplHelloResp is the follower's answer to a ReplHello.
type ReplHelloResp struct {
	// Accept reports whether the stream may proceed; Reason explains a
	// refusal.
	Accept bool
	Reason string
	// Term is the highest term the follower has seen (so a stale leader
	// learns it must step down).
	Term uint64
	// Devs lists the follower's device extents, one entry per (shard, dev).
	Devs []ReplDevState
}

// ReplWrite is one replicated block write. A decoded Data aliases the
// payload: its one consumer, a device append, copies it.
type ReplWrite struct {
	Shard uint32
	Dev   uint32
	Index uint64
	Data  []byte
}

// ReplInvalidate is one replicated block invalidation.
type ReplInvalidate struct {
	Shard uint32
	Dev   uint32
	Index uint64
}

// ReplTail is one replicated NVRAM tail staging. A decoded Image aliases
// the payload: its one consumer, an NVRAM Store, copies it.
type ReplTail struct {
	Shard  uint32
	Global uint64
	Image  []byte
}

// ReplTailClear is one replicated NVRAM clear.
type ReplTailClear struct {
	Shard uint32
}

// ReplAck is one replicated session duplicate-suppression record: the
// response the leader is about to return for (Session, Seq). A decoded Resp
// is a copy, because the session window keeps it.
type ReplAck struct {
	Session uint64
	Seq     uint64
	Status  byte
	Resp    []byte
}

// ReplResp is one cached response inside a ReplSession.
type ReplResp struct {
	Seq    uint64
	Status byte
	Resp   []byte
}

// ReplSession is one session's replicable duplicate-suppression state.
type ReplSession struct {
	ID     uint64
	MaxSeq uint64
	Resps  []ReplResp
}

// ReplSessions is a session-table snapshot.
type ReplSessions struct {
	Sessions []ReplSession
}

// ReplBase marks the end of catch-up at the given stream position.
type ReplBase struct {
	Pos uint64
}

// ReplReset orders one device discarded and re-synced from scratch.
type ReplReset struct {
	Shard uint32
	Dev   uint32
}

// ReplStatusResp reports a node's replication role and progress.
type ReplStatusResp struct {
	Role       byte
	Term       uint64
	Epoch      uint64
	LeaderAddr string
	// Applied is the highest stream position this node has durably applied
	// (followers); Pos is the highest position a leader has enqueued and
	// Committed the highest position acked by a quorum.
	Applied   uint64
	Pos       uint64
	Committed uint64
	Devs      []ReplDevState
}

// maxReplDevs bounds the device lists a decoder will allocate for.
const maxReplDevs = 1 << 16

// devs consumes a device list.
func (r *Reader) devs() []ReplDevState {
	var out []ReplDevState
	for n := r.Bounded(maxReplDevs, "dev count range"); n > 0 && r.Err() == nil; n-- {
		out = append(out, ReplDevState{Shard: r.shard(), Dev: r.shard(), Written: r.Uvarint(), LastCRC: r.Uint32()})
	}
	return out
}

// shard consumes a shard or device ordinal.
func (r *Reader) shard() uint32 { return r.Bounded(maxReplDevs, "shard range") }

func putDevs(b []byte, devs []ReplDevState) []byte {
	b = PutUvarint(b, uint64(len(devs)))
	for _, d := range devs {
		b = PutUvarint(b, uint64(d.Shard))
		b = PutUvarint(b, uint64(d.Dev))
		b = PutUvarint(b, d.Written)
		b = PutUint32(b, d.LastCRC)
	}
	return b
}

func putBytes(b, data []byte) []byte {
	b = PutUvarint(b, uint64(len(data)))
	return append(b, data...)
}

// Encode appends the hello's wire form.
func (h *ReplHello) Encode(b []byte) []byte {
	b = PutUint64(b, h.Term)
	b = PutUint64(b, h.Epoch)
	b = putBytes(b, []byte(h.LeaderAddr))
	b = PutUvarint(b, uint64(h.Shards))
	return PutUvarint(b, uint64(h.BlockSize))
}

// DecodeReplHello parses a ReplHello payload.
func DecodeReplHello(payload []byte) (*ReplHello, error) {
	r := NewReader(payload, ErrReplPayload)
	h := &ReplHello{Term: r.Uint64(), Epoch: r.Uint64(), LeaderAddr: r.String(),
		Shards: r.Bounded(maxReplDevs, "geometry range"), BlockSize: r.Bounded(1<<30, "geometry range")}
	return h, r.Err()
}

// Encode appends the hello response's wire form.
func (h *ReplHelloResp) Encode(b []byte) []byte {
	var acc byte
	if h.Accept {
		acc = 1
	}
	b = append(b, acc)
	b = putBytes(b, []byte(h.Reason))
	b = PutUint64(b, h.Term)
	return putDevs(b, h.Devs)
}

// DecodeReplHelloResp parses a ReplHelloResp payload.
func DecodeReplHelloResp(payload []byte) (*ReplHelloResp, error) {
	r := NewReader(payload, ErrReplPayload)
	h := &ReplHelloResp{Accept: r.Byte() != 0, Reason: r.String(), Term: r.Uint64(), Devs: r.devs()}
	return h, r.Err()
}

// Encode appends the write's wire form.
func (w *ReplWrite) Encode(b []byte) []byte {
	b = PutUvarint(b, uint64(w.Shard))
	b = PutUvarint(b, uint64(w.Dev))
	b = PutUvarint(b, w.Index)
	return putBytes(b, w.Data)
}

// DecodeReplWrite parses a ReplWrite payload.
func DecodeReplWrite(payload []byte) (*ReplWrite, error) {
	r := NewReader(payload, ErrReplPayload)
	w := &ReplWrite{Shard: r.shard(), Dev: r.shard(), Index: r.Uvarint(), Data: r.View()}
	return w, r.Err()
}

// Encode appends the invalidation's wire form.
func (w *ReplInvalidate) Encode(b []byte) []byte {
	b = PutUvarint(b, uint64(w.Shard))
	b = PutUvarint(b, uint64(w.Dev))
	return PutUvarint(b, w.Index)
}

// DecodeReplInvalidate parses a ReplInvalidate payload.
func DecodeReplInvalidate(payload []byte) (*ReplInvalidate, error) {
	r := NewReader(payload, ErrReplPayload)
	w := &ReplInvalidate{Shard: r.shard(), Dev: r.shard(), Index: r.Uvarint()}
	return w, r.Err()
}

// Encode appends the tail staging's wire form.
func (t *ReplTail) Encode(b []byte) []byte {
	b = PutUvarint(b, uint64(t.Shard))
	b = PutUvarint(b, t.Global)
	return putBytes(b, t.Image)
}

// DecodeReplTail parses a ReplTail payload.
func DecodeReplTail(payload []byte) (*ReplTail, error) {
	r := NewReader(payload, ErrReplPayload)
	t := &ReplTail{Shard: r.shard(), Global: r.Uvarint(), Image: r.View()}
	return t, r.Err()
}

// Encode appends the tail clear's wire form.
func (t *ReplTailClear) Encode(b []byte) []byte {
	return PutUvarint(b, uint64(t.Shard))
}

// DecodeReplTailClear parses a ReplTailClear payload.
func DecodeReplTailClear(payload []byte) (*ReplTailClear, error) {
	r := NewReader(payload, ErrReplPayload)
	t := &ReplTailClear{Shard: r.shard()}
	return t, r.Err()
}

// Encode appends the ack record's wire form.
func (a *ReplAck) Encode(b []byte) []byte {
	b = PutUint64(b, a.Session)
	b = PutUint64(b, a.Seq)
	b = append(b, a.Status)
	return putBytes(b, a.Resp)
}

// DecodeReplAck parses a ReplAck payload.
func DecodeReplAck(payload []byte) (*ReplAck, error) {
	r := NewReader(payload, ErrReplPayload)
	a := &ReplAck{Session: r.Uint64(), Seq: r.Uint64(), Status: r.Byte(), Resp: r.Bytes()}
	return a, r.Err()
}

// Encode appends the session snapshot's wire form.
func (s *ReplSessions) Encode(b []byte) []byte {
	b = PutUvarint(b, uint64(len(s.Sessions)))
	for _, ss := range s.Sessions {
		b = PutUint64(b, ss.ID)
		b = PutUint64(b, ss.MaxSeq)
		b = PutUvarint(b, uint64(len(ss.Resps)))
		for _, rr := range ss.Resps {
			b = PutUint64(b, rr.Seq)
			b = append(b, rr.Status)
			b = putBytes(b, rr.Resp)
		}
	}
	return b
}

// DecodeReplSessions parses a ReplSessions payload.
func DecodeReplSessions(payload []byte) (*ReplSessions, error) {
	r := NewReader(payload, ErrReplPayload)
	n := r.Uvarint()
	if n > uint64(len(payload)) { // each session costs ≥ 17 bytes
		r.Fail("session count range")
	}
	out := &ReplSessions{}
	for i := uint64(0); i < n && r.Err() == nil; i++ {
		ss := ReplSession{ID: r.Uint64(), MaxSeq: r.Uint64()}
		nr := r.Uvarint()
		if nr > uint64(r.Len())+1 { // each resp costs ≥ 10 bytes
			r.Fail("resp count range")
		}
		for j := uint64(0); j < nr && r.Err() == nil; j++ {
			ss.Resps = append(ss.Resps, ReplResp{Seq: r.Uint64(), Status: r.Byte(), Resp: r.Bytes()})
		}
		out.Sessions = append(out.Sessions, ss)
	}
	return out, r.Err()
}

// Encode appends the base marker's wire form.
func (b *ReplBase) Encode(dst []byte) []byte {
	return PutUint64(dst, b.Pos)
}

// DecodeReplBase parses a ReplBase payload.
func DecodeReplBase(payload []byte) (*ReplBase, error) {
	r := NewReader(payload, ErrReplPayload)
	b := &ReplBase{Pos: r.Uint64()}
	return b, r.Err()
}

// Encode appends the reset order's wire form.
func (w *ReplReset) Encode(b []byte) []byte {
	b = PutUvarint(b, uint64(w.Shard))
	return PutUvarint(b, uint64(w.Dev))
}

// DecodeReplReset parses a ReplReset payload.
func DecodeReplReset(payload []byte) (*ReplReset, error) {
	r := NewReader(payload, ErrReplPayload)
	w := &ReplReset{Shard: r.shard(), Dev: r.shard()}
	return w, r.Err()
}

// Encode appends the status report's wire form.
func (s *ReplStatusResp) Encode(b []byte) []byte {
	b = append(b, s.Role)
	b = PutUint64(b, s.Term)
	b = PutUint64(b, s.Epoch)
	b = putBytes(b, []byte(s.LeaderAddr))
	b = PutUint64(b, s.Applied)
	b = PutUint64(b, s.Pos)
	b = PutUint64(b, s.Committed)
	return putDevs(b, s.Devs)
}

// DecodeReplStatusResp parses a ReplStatusResp payload.
func DecodeReplStatusResp(payload []byte) (*ReplStatusResp, error) {
	r := NewReader(payload, ErrReplPayload)
	s := &ReplStatusResp{Role: r.Byte(), Term: r.Uint64(), Epoch: r.Uint64(), LeaderAddr: r.String(),
		Applied: r.Uint64(), Pos: r.Uint64(), Committed: r.Uint64(), Devs: r.devs()}
	return s, r.Err()
}

// DecodeRepl parses any replication payload by opcode — the single entry
// point protocol handlers (and the fuzz harness) use, so every replication
// decoder shares the no-panic guarantee. Ops without a payload (OpPromote,
// OpReplStatus) decode to nil; unknown ops return an error.
func DecodeRepl(op byte, payload []byte) (any, error) {
	switch op {
	case OpReplHello:
		return DecodeReplHello(payload)
	case OpReplWrite:
		return DecodeReplWrite(payload)
	case OpReplInvalidate:
		return DecodeReplInvalidate(payload)
	case OpReplTail:
		return DecodeReplTail(payload)
	case OpReplTailClear:
		return DecodeReplTailClear(payload)
	case OpReplAck:
		return DecodeReplAck(payload)
	case OpReplSessions:
		return DecodeReplSessions(payload)
	case OpReplBase:
		return DecodeReplBase(payload)
	case OpReplReset:
		return DecodeReplReset(payload)
	case OpPromote, OpReplStatus:
		return nil, nil
	default:
		return nil, fmt.Errorf("%w: unknown replication op %#x", ErrReplPayload, op)
	}
}
