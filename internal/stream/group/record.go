package group

import (
	"errors"

	"clio/internal/wire"
)

// Consumer-group record kinds (GroupRec.Kind). The records are appended to
// the group's offsets log — an ordinary log file under the reserved
// /.offsets system sublog — so group state recovers exactly like any other
// log data and the ack trail is auditable after the fact.
const (
	// GroupJoin announces a member; assignment is recomputed over the new
	// live set.
	GroupJoin = 1
	// GroupLeave retires a member (graceful shutdown).
	GroupLeave = 2
	// GroupHeartbeat refreshes a member's liveness lease.
	GroupHeartbeat = 3
	// GroupAck acknowledges delivery through a position: Partition consumed
	// up to the gap position (Shard, Block, Rec), Count entries so far.
	GroupAck = 4
	// GroupClaim records that Member took ownership of Partition. Block/Rec
	// carry the claim's fencing citation: the group-log gap position of the
	// last ownership event the claimer observed for the partition. The
	// claim is valid only if the citation still matches when the claim
	// lands — racing claims cite the same event, the log orders them, the
	// first is valid and the rest are void.
	GroupClaim = 5
	// GroupRelease records that Member gave up Partition (handoff).
	GroupRelease = 6
)

// GroupRec is one consumer-group record: the body of one offsets-log entry.
type GroupRec struct {
	Kind   byte
	Member string
	// Partition is the partition ordinal the record concerns (acks, claims,
	// releases); unused for membership records.
	Partition uint32
	// Shard, Block, Rec are the acknowledged gap position (GroupAck);
	// Block, Rec double as the fencing citation of a claim (GroupClaim).
	Shard uint32
	Block uint64
	Rec   uint64
	// Count is the member's cumulative delivered-entry count for the
	// partition (GroupAck), the audit trail's exactly-once evidence.
	Count uint64
}

// errRecord is wrapped by every group-record decode failure.
var errRecord = errors.New("group: malformed group record")

// maxOrdinal bounds the partition and shard numbers a decoder accepts.
const maxOrdinal = 1 << 16

// Encode appends the record's offsets-log form.
func (g *GroupRec) Encode(b []byte) []byte {
	b = append(b, g.Kind)
	b = wire.PutUvarint(b, uint64(len(g.Member)))
	b = append(b, g.Member...)
	b = wire.PutUvarint(b, uint64(g.Partition))
	b = wire.PutUvarint(b, uint64(g.Shard))
	b = wire.PutUvarint(b, g.Block)
	b = wire.PutUvarint(b, g.Rec)
	return wire.PutUvarint(b, g.Count)
}

// DecodeGroupRec parses a GroupRec from an offsets-log entry body.
func DecodeGroupRec(data []byte) (*GroupRec, error) {
	r := wire.NewReader(data, errRecord)
	g := &GroupRec{Kind: r.Byte()}
	if g.Kind < GroupJoin || g.Kind > GroupRelease {
		r.Fail("kind range")
	}
	g.Member = r.String()
	g.Partition, g.Shard = r.Bounded(maxOrdinal, "partition range"), r.Bounded(maxOrdinal, "partition range")
	g.Block, g.Rec, g.Count = r.Uvarint(), r.Uvarint(), r.Uvarint()
	return g, r.Err()
}
