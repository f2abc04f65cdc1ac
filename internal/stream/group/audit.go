package group

import (
	"context"
	"errors"
	"fmt"
	"io"

	"clio/internal/logapi"
)

// PartitionReport summarizes one partition's acknowledgement trail.
type PartitionReport struct {
	// Acks counts acknowledgement records.
	Acks int
	// Last is the furthest acknowledged gap position.
	Last logapi.Position
	// Count is the final cumulative delivery count — with a clean trail,
	// exactly the number of entries the group consumed from the partition.
	Count uint64
	// Owners is the sequence of members that acked, de-duplicated to
	// ownership changes.
	Owners []string
}

// Report is the result of auditing a group's offsets log.
type Report struct {
	// Partitions maps partition → its trail summary.
	Partitions map[int]*PartitionReport
	// Members lists every member name that ever appeared, sorted by first
	// appearance.
	Members []string
	// Records counts group records examined.
	Records int
	// Void counts claims and releases voided by the fencing: a claim whose
	// citation no longer matched when it landed (it lost the race and its
	// appender never delivered), or a release by a member that had already
	// lost the partition. Voided records are protocol-normal.
	Void int
}

// Acked sums the final cumulative counts over all partitions — the number
// of entries the group consumed exactly once when the audit passes.
func (r *Report) Acked() uint64 {
	var n uint64
	for _, pr := range r.Partitions {
		n += pr.Count
	}
	return n
}

// Audit replays a group's offsets log and checks the exactly-once-per-group
// invariants the protocol maintains. It folds the trail exactly as a member
// does — a claim is valid only if it cites the position of the partition's
// last valid ownership event — and verifies that:
//
//   - every acknowledgement is appended by the partition's current claim
//     holder (a void ack would be evidence of a possible duplicate
//     delivery, since its appender believed the ack succeeded);
//   - within a partition, acknowledged positions strictly advance and the
//     cumulative counts strictly increase — an entry acknowledged twice, by
//     anyone, would violate one of the two.
//
// It returns the report alongside the first violation found, so a failing
// audit still describes the trail.
func Audit(ctx context.Context, svc logapi.Service, group string) (*Report, error) {
	cur, err := svc.OpenCursor(ctx, LogPath(group))
	if err != nil {
		return nil, err
	}
	defer cur.Close()
	r := &Report{Partitions: make(map[int]*PartitionReport)}
	owner := make(map[int]string)
	epoch := make(map[int]logPos)
	seen := make(map[string]bool)
	note := func(m string) {
		if !seen[m] {
			seen[m] = true
			r.Members = append(r.Members, m)
		}
	}
	for {
		e, err := cur.Next(ctx)
		if errors.Is(err, io.EOF) {
			return r, nil
		}
		if err != nil {
			return r, err
		}
		rec, err := DecodeGroupRec(e.Data)
		if err != nil {
			return r, fmt.Errorf("group: offsets record %d is not a group record: %w", r.Records, err)
		}
		r.Records++
		note(rec.Member)
		p := int(rec.Partition)
		pos := logPos{block: e.Block, rec: e.Index + 1}
		switch rec.Kind {
		case GroupJoin, GroupHeartbeat:
			// liveness only; no trail state
		case GroupLeave:
			for q, o := range owner {
				if o == rec.Member {
					delete(owner, q)
					epoch[q] = pos
				}
			}
		case GroupClaim:
			if cite := (logPos{block: int(rec.Block), rec: int(rec.Rec)}); cite != epoch[p] {
				r.Void++ // lost the claim race; its appender never delivered
				continue
			}
			owner[p] = rec.Member
			epoch[p] = pos
		case GroupRelease:
			if owner[p] != rec.Member {
				r.Void++
				continue
			}
			delete(owner, p)
			epoch[p] = pos
		case GroupAck:
			pr := r.Partitions[p]
			if pr == nil {
				pr = &PartitionReport{}
				r.Partitions[p] = pr
			}
			if o := owner[p]; o != rec.Member {
				return r, fmt.Errorf("group: record %d: partition %d acked by %q but claim holder is %q",
					r.Records-1, p, rec.Member, o)
			}
			ack := logapi.Position{Shard: int(rec.Shard), Block: int(rec.Block), Rec: int(rec.Rec)}
			if pr.Acks > 0 {
				if ack.Shard != pr.Last.Shard {
					return r, fmt.Errorf("group: record %d: partition %d moved shards %d → %d",
						r.Records-1, p, pr.Last.Shard, ack.Shard)
				}
				if ack.Block < pr.Last.Block ||
					(ack.Block == pr.Last.Block && ack.Rec <= pr.Last.Rec) {
					return r, fmt.Errorf("group: record %d: partition %d position did not advance: %+v after %+v (double delivery)",
						r.Records-1, p, ack, pr.Last)
				}
				if rec.Count <= pr.Count {
					return r, fmt.Errorf("group: record %d: partition %d count did not advance: %d after %d (double delivery)",
						r.Records-1, p, rec.Count, pr.Count)
				}
			}
			pr.Acks++
			pr.Last = ack
			pr.Count = rec.Count
			if n := len(pr.Owners); n == 0 || pr.Owners[n-1] != rec.Member {
				pr.Owners = append(pr.Owners, rec.Member)
			}
		}
	}
}
