package shard

import (
	"context"
	"fmt"
	"io"
	"reflect"
	"testing"
	"time"

	"clio/internal/logapi"
)

// shardedPaths returns one path per shard of an n-shard store, found by
// probing root segments until every shard is covered.
func shardedPaths(t *testing.T, st *Store) []string {
	t.Helper()
	n := st.Shards()
	out := make([]string, n)
	covered := 0
	for i := 0; covered < n && i < 256; i++ {
		p := fmt.Sprintf("/seg%03d", i)
		sh, err := st.ShardFor(p)
		if err != nil {
			t.Fatal(err)
		}
		if out[sh] == "" {
			out[sh] = p
			covered++
		}
	}
	if covered != n {
		t.Fatalf("256 probe segments covered only %d of %d shards", covered, n)
	}
	return out
}

// TestRootCursorSeesPostSeekEndAppends is the live-tail regression test for
// the merged root cursor: positioned at the current end (where Next reports
// io.EOF), it must observe entries appended afterwards — on any shard,
// including into still-staged tail blocks — in store-wide timestamp order.
func TestRootCursorSeesPostSeekEndAppends(t *testing.T) {
	st := newStore(t, 4)
	paths := shardedPaths(t, st)
	ids := make([]logapi.ID, len(paths))
	for i, p := range paths {
		id, err := st.CreateLog(bg, p, 0o644, "t")
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
		if _, err := st.Append(bg, id, []byte("pre"), logapi.AppendOptions{Forced: true}); err != nil {
			t.Fatal(err)
		}
	}

	cur, err := st.OpenCursor(bg, "/")
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	if err := cur.SeekEnd(bg); err != nil {
		t.Fatal(err)
	}
	if _, err := cur.Next(bg); err != io.EOF {
		t.Fatalf("Next at end: %v", err)
	}

	// Appends after positioning, interleaved across shards. The store's
	// shards share one monotonic test clock, so timestamp order is the
	// append order.
	var want []string
	for round := 0; round < 3; round++ {
		for i, id := range ids {
			data := fmt.Sprintf("post-%d-%d", round, i)
			if _, err := st.Append(bg, id, []byte(data),
				logapi.AppendOptions{Forced: true, Timestamped: true}); err != nil {
				t.Fatal(err)
			}
			want = append(want, data)
		}
	}

	lastTS := int64(0)
	for i, w := range want {
		e, err := cur.Next(bg)
		if err != nil {
			t.Fatalf("Next %d after positioning: %v", i, err)
		}
		if string(e.Data) != w {
			t.Fatalf("entry %d: %q, want %q (timestamp order broken)", i, e.Data, w)
		}
		if e.Timestamp < lastTS {
			t.Fatalf("entry %d timestamp %d < previous %d", i, e.Timestamp, lastTS)
		}
		lastTS = e.Timestamp
	}
	if _, err := cur.Next(bg); err != io.EOF {
		t.Fatalf("EOF after drain: %v", err)
	}
}

func recvWatch(t *testing.T, sub logapi.Subscription) *logapi.Entry {
	t.Helper()
	ctx, cancel := context.WithTimeout(bg, 5*time.Second)
	defer cancel()
	e, err := sub.Recv(ctx)
	if err != nil {
		t.Fatalf("Recv: %v", err)
	}
	return e
}

// TestWatchRoutedPath tails one log file: the subscription routes to the
// owning shard and stamps its ordinal on delivered entries.
func TestWatchRoutedPath(t *testing.T) {
	st := newStore(t, 4)
	id, err := st.CreateLog(bg, "/mail", 0o644, "t")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := st.Watch(bg, "/mail", logapi.WatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	for i := 0; i < 3; i++ {
		if _, err := st.Append(bg, id, []byte(fmt.Sprintf("m%d", i)),
			logapi.AppendOptions{Forced: true}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		e := recvWatch(t, sub)
		if string(e.Data) != fmt.Sprintf("m%d", i) {
			t.Fatalf("entry %d: %q", i, e.Data)
		}
		if e.Shard != id.Shard() {
			t.Fatalf("entry carries shard %d, log lives on %d", e.Shard, id.Shard())
		}
	}
}

// TestWatchRootLiveMerge tails the root: a K-leg subscription live-merging
// every shard's tail, delivering cross-shard appends in timestamp order
// when they are pending together.
func TestWatchRootLiveMerge(t *testing.T) {
	st := newStore(t, 3)
	paths := shardedPaths(t, st)
	ids := make([]logapi.ID, len(paths))
	for i, p := range paths {
		id, err := st.CreateLog(bg, p, 0o644, "t")
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	sub, err := st.Watch(bg, "/", logapi.WatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	var want []string
	for round := 0; round < 4; round++ {
		for i, id := range ids {
			data := fmt.Sprintf("r%d-s%d", round, i)
			if _, err := st.Append(bg, id, []byte(data),
				logapi.AppendOptions{Forced: true, Timestamped: true}); err != nil {
				t.Fatal(err)
			}
			want = append(want, data)
		}
	}
	got := make(map[string]int, len(want))
	lastTS := int64(0)
	for range want {
		e := recvWatch(t, sub)
		got[string(e.Data)]++
		if e.Timestamp < lastTS {
			t.Fatalf("merge order broken: %d after %d", e.Timestamp, lastTS)
		}
		lastTS = e.Timestamp
	}
	for _, w := range want {
		if got[w] != 1 {
			t.Fatalf("entry %q delivered %d times", w, got[w])
		}
	}
}

// TestWatchRootResume resumes a root subscription on a 4-shard store: each
// shard listed in From continues right after its position, and the others
// follow FromStart — their whole history first, or only later appends.
func TestWatchRootResume(t *testing.T) {
	for _, fromStart := range []bool{false, true} {
		t.Run(fmt.Sprintf("FromStart=%v", fromStart), func(t *testing.T) {
			st := newStore(t, 4)
			paths := shardedPaths(t, st)
			ids := make([]logapi.ID, len(paths))
			for sh, p := range paths {
				id, err := st.CreateLog(bg, p, 0o644, "t")
				if err != nil {
					t.Fatal(err)
				}
				ids[sh] = id
				for i := 0; i < 3; i++ {
					if _, err := st.Append(bg, id, []byte(fmt.Sprintf("h%d-%d", sh, i)),
						logapi.AppendOptions{Forced: true, Timestamped: true}); err != nil {
						t.Fatal(err)
					}
				}
			}
			// Shard 1 resumes after its first entry, shard 3 after its second.
			resume := map[int]int{1: 0, 3: 1}
			var from []logapi.Position
			for sh, after := range resume {
				cur, err := st.OpenCursor(bg, paths[sh])
				if err != nil {
					t.Fatal(err)
				}
				var e *logapi.Entry
				for i := 0; i <= after; i++ {
					if e, err = cur.Next(bg); err != nil {
						t.Fatal(err)
					}
				}
				from = append(from, logapi.Position{Shard: sh, Block: e.Block, Rec: e.Index + 1})
			}
			sub, err := st.Watch(bg, "/", logapi.WatchOptions{FromStart: fromStart, From: from})
			if err != nil {
				t.Fatal(err)
			}
			defer sub.Close()
			want := make([][]string, len(paths))
			for sh, id := range ids {
				first, listed := resume[sh]
				switch {
				case listed:
					first++
				case !fromStart:
					first = 3
				}
				for i := first; i < 3; i++ {
					want[sh] = append(want[sh], fmt.Sprintf("h%d-%d", sh, i))
				}
				live := fmt.Sprintf("l%d", sh)
				if _, err := st.Append(bg, id, []byte(live), logapi.AppendOptions{Forced: true, Timestamped: true}); err != nil {
					t.Fatal(err)
				}
				want[sh] = append(want[sh], live)
			}
			total := 0
			for _, w := range want {
				total += len(w)
			}
			got := make([][]string, len(paths))
			for n := 0; n < total; {
				e := recvWatch(t, sub)
				if e.LogID != ids[e.Shard].Local() {
					continue // the catalog's own records
				}
				got[e.Shard] = append(got[e.Shard], string(e.Data))
				n++
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("delivered per shard %q, want %q", got, want)
			}
		})
	}
}
