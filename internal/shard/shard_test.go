package shard

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"testing"

	"clio/internal/core"
	"clio/internal/logapi"
	"clio/internal/wodev"
)

var bg = context.Background()

// newStore builds an n-shard store over memory devices with one shared
// monotonic clock, so merged timestamp order is deterministic and
// interleaves the shards.
func newStore(t *testing.T, n int) *Store {
	t.Helper()
	now := int64(0)
	svcs := make([]*core.Service, n)
	for i := range svcs {
		dev := wodev.NewMem(wodev.MemOptions{BlockSize: 512, Capacity: 1 << 14})
		svc, err := core.New(dev, core.Options{
			BlockSize: 512, Degree: 8,
			Now: func() int64 { now += 1000; return now },
		})
		if err != nil {
			t.Fatal(err)
		}
		svcs[i] = svc
	}
	st, err := New(svcs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func TestRoutingIsDeterministicAndCoLocatesSublogs(t *testing.T) {
	st := newStore(t, 4)
	parent, err := st.ShardFor("/mail")
	if err != nil {
		t.Fatal(err)
	}
	kid, err := st.ShardFor("/mail/smith/inbox")
	if err != nil {
		t.Fatal(err)
	}
	if parent != kid {
		t.Fatalf("parent on shard %d, sublog on shard %d", parent, kid)
	}
	again, _ := st.ShardFor("/mail")
	if parent != again {
		t.Fatalf("routing unstable: %d then %d", parent, again)
	}
	if sh, _ := st.ShardFor("/"); sh != 0 {
		t.Fatalf("root routed to shard %d", sh)
	}
}

func TestSingleNamespaceAcrossShards(t *testing.T) {
	st := newStore(t, 4)
	names := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}
	ids := make(map[string]logapi.ID)
	shards := make(map[int]bool)
	for _, n := range names {
		id, err := st.CreateLog(bg, "/"+n, 0o644, "t")
		if err != nil {
			t.Fatal(err)
		}
		ids[n] = id
		shards[id.Shard()] = true
	}
	if len(shards) < 2 {
		t.Fatalf("6 logs all landed on %d shard(s); want spread", len(shards))
	}
	// Every log resolves through the one namespace, with the shard encoded
	// in its id.
	for _, n := range names {
		got, err := st.Resolve(bg, "/"+n)
		if err != nil || got != ids[n] {
			t.Fatalf("Resolve(/%s) = %v, %v; want %v", n, got, err, ids[n])
		}
		info, err := st.Stat(bg, "/"+n)
		if err != nil || info.ID != ids[n] || info.Name != n {
			t.Fatalf("Stat(/%s) = %+v, %v", n, info, err)
		}
	}
	// Root listing fans out, merges, and dedupes the per-shard system logs.
	list, err := st.List(bg, "/")
	if err != nil {
		t.Fatal(err)
	}
	count := make(map[string]int)
	for _, n := range list {
		count[n]++
	}
	for _, n := range names {
		if count[n] != 1 {
			t.Fatalf("List(/) has %d copies of %q: %v", count[n], n, list)
		}
	}
	if count[".catalog"] != 1 || count[".entrymap"] != 1 {
		t.Fatalf("system logs not deduped: %v", list)
	}
}

func TestAppendRoutesAndReadsBack(t *testing.T) {
	st := newStore(t, 4)
	ids := make([]logapi.ID, 3)
	for i := range ids {
		id, err := st.CreateLog(bg, fmt.Sprintf("/log%d", i), 0o644, "t")
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	for round := 0; round < 5; round++ {
		for i, id := range ids {
			if _, err := st.Append(bg, id, []byte(fmt.Sprintf("l%d-r%d", i, round)),
				logapi.AppendOptions{Timestamped: true, Forced: round%2 == 0}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := range ids {
		cur, err := st.OpenCursor(bg, fmt.Sprintf("/log%d", i))
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 5; round++ {
			e, err := cur.Next(bg)
			if err != nil {
				t.Fatalf("log%d round %d: %v", i, round, err)
			}
			if want := fmt.Sprintf("l%d-r%d", i, round); string(e.Data) != want {
				t.Fatalf("log%d: %q want %q", i, e.Data, want)
			}
			if e.Shard != ids[i].Shard() {
				t.Fatalf("entry shard %d, id shard %d", e.Shard, ids[i].Shard())
			}
			// Positions round-trip through ReadAt with the entry's shard.
			back, err := st.ReadAt(bg, e.Shard, e.Block, e.Index)
			if err != nil || string(back.Data) != string(e.Data) {
				t.Fatalf("ReadAt: %v %v", err, back)
			}
		}
		cur.Close()
	}
}

func TestRootCursorMergesByTimestamp(t *testing.T) {
	st := newStore(t, 3)
	var want []string
	for i := 0; i < 3; i++ {
		if _, err := st.CreateLog(bg, fmt.Sprintf("/log%d", i), 0o644, "t"); err != nil {
			t.Fatal(err)
		}
	}
	// Interleave appends across logs (hence shards); the shared clock makes
	// the store-wide timestamp order equal the append order.
	for round := 0; round < 8; round++ {
		for i := 0; i < 3; i++ {
			data := fmt.Sprintf("r%d-l%d", round, i)
			id, err := st.Resolve(bg, fmt.Sprintf("/log%d", i))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := st.Append(bg, id, []byte(data), logapi.AppendOptions{Timestamped: true}); err != nil {
				t.Fatal(err)
			}
			want = append(want, data)
		}
	}
	cur, err := st.OpenCursor(bg, "/")
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	// Forward: client entries come back in global timestamp order
	// (system entries from all shards are interleaved; skip them).
	var got []string
	var stamps []int64
	lastTS := int64(-1)
	for {
		e, err := cur.Next(bg)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if e.Timestamp < lastTS {
			t.Fatalf("merged order regressed: %d after %d", e.Timestamp, lastTS)
		}
		lastTS = e.Timestamp
		if len(e.Data) > 0 && e.Data[0] == 'r' {
			got = append(got, string(e.Data))
			stamps = append(stamps, e.Timestamp)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("merged read: %d client entries, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("entry %d: %q want %q", i, got[i], want[i])
		}
	}
	// Backward from the end mirrors the forward order exactly.
	if err := cur.SeekEnd(bg); err != nil {
		t.Fatal(err)
	}
	for i := len(want) - 1; i >= 0; i-- {
		var e *logapi.Entry
		for {
			var err error
			e, err = cur.Prev(bg)
			if err != nil {
				t.Fatalf("Prev: %v", err)
			}
			if len(e.Data) > 0 && e.Data[0] == 'r' {
				break
			}
		}
		if string(e.Data) != want[i] {
			t.Fatalf("reverse entry %d: %q want %q", i, e.Data, want[i])
		}
	}
	// Direction switches around a known timestamp stay consistent.
	if err := cur.SeekTime(bg, stamps[10]); err != nil {
		t.Fatal(err)
	}
	e, err := cur.Next(bg)
	if err != nil || string(e.Data) != want[10] {
		t.Fatalf("SeekTime+Next: %v %q want %q", err, e.Data, want[10])
	}
	e, err = cur.Prev(bg)
	if err != nil || string(e.Data) != want[10] {
		t.Fatalf("Next-then-Prev: %v %q want %q", err, e.Data, want[10])
	}
	e, err = cur.Next(bg)
	if err != nil || string(e.Data) != want[10] {
		t.Fatalf("Prev-then-Next: %v %q want %q", err, e.Data, want[10])
	}
}

func TestShardRangeErrors(t *testing.T) {
	st := newStore(t, 2)
	id, err := st.CreateLog(bg, "/a", 0o644, "t")
	if err != nil {
		t.Fatal(err)
	}
	bad := logapi.MakeID(7, id.Local())
	if _, err := st.Append(bg, bad, []byte("x"), logapi.AppendOptions{}); !errors.Is(err, logapi.ErrShardRange) {
		t.Fatalf("Append out-of-range shard: %v", err)
	}
	if _, err := st.ReadAt(bg, 7, 0, 0); !errors.Is(err, logapi.ErrShardRange) {
		t.Fatalf("ReadAt out-of-range shard: %v", err)
	}
	other := logapi.MakeID((id.Shard()+1)%2, id.Local())
	if _, err := st.AppendMulti(bg, []logapi.ID{id, other}, []byte("x"), logapi.AppendOptions{}); !errors.Is(err, logapi.ErrShardRange) {
		t.Fatalf("AppendMulti spanning shards: %v", err)
	}
	cur, err := st.OpenCursor(bg, "/")
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	if err := cur.SeekPos(bg, 0, 0); !errors.Is(err, ErrRootSeekPos) {
		t.Fatalf("root SeekPos: %v", err)
	}
}

func TestMultiMembershipWithinShard(t *testing.T) {
	st := newStore(t, 4)
	pid, err := st.CreateLog(bg, "/mbox", 0o644, "t")
	if err != nil {
		t.Fatal(err)
	}
	cid, err := st.CreateLog(bg, "/mbox/urgent", 0o644, "t")
	if err != nil {
		t.Fatal(err)
	}
	if pid.Shard() != cid.Shard() {
		t.Fatalf("parent shard %d, sublog shard %d", pid.Shard(), cid.Shard())
	}
	if _, err := st.AppendMulti(bg, []logapi.ID{cid, pid}, []byte("both"), logapi.AppendOptions{Forced: true}); err != nil {
		t.Fatal(err)
	}
	cur, err := st.OpenCursor(bg, "/mbox/urgent")
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	e, err := cur.Next(bg)
	if err != nil || string(e.Data) != "both" {
		t.Fatalf("multi read: %v %v", err, e)
	}
	if !e.MemberOf(pid.Local()) || !e.MemberOf(cid.Local()) {
		t.Fatalf("membership: %+v", e)
	}
}

// TestSeekTimeMinInt64RootCursor: on the root cursor over four shards, a seek to
// the earliest representable time positions every shard at its start, so
// Next returns the store's first entry, as after SeekStart.
func TestSeekTimeMinInt64RootCursor(t *testing.T) {
	st := newStore(t, 4)
	var ids []logapi.ID
	for i := 0; i < 6; i++ {
		id, err := st.CreateLog(bg, fmt.Sprintf("/log%d", i), 0o644, "t")
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for i := 0; i < 200; i++ {
		if _, err := st.Append(bg, ids[i%len(ids)], []byte(fmt.Sprintf("r%03d", i)), logapi.AppendOptions{Timestamped: true}); err != nil {
			t.Fatal(err)
		}
	}
	cur, err := st.OpenCursor(bg, "/")
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	first, err := cur.Next(bg)
	if err != nil {
		t.Fatal(err)
	}
	for _, ts := range []int64{math.MinInt64, math.MinInt64 + 1, 0} {
		if err := cur.SeekEnd(bg); err != nil {
			t.Fatal(err)
		}
		if err := cur.SeekTime(bg, ts); err != nil {
			t.Fatal(err)
		}
		e, err := cur.Next(bg)
		if err != nil {
			t.Fatalf("SeekTime(%d) then Next: %v", ts, err)
		}
		if e.Shard != first.Shard || e.Block != first.Block || e.Index != first.Index || e.Timestamp != first.Timestamp {
			t.Fatalf("SeekTime(%d) then Next: shard %d (%d,%d) at %d, want the first entry, shard %d (%d,%d) at %d",
				ts, e.Shard, e.Block, e.Index, e.Timestamp, first.Shard, first.Block, first.Index, first.Timestamp)
		}
	}
}
