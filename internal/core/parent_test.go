package core

import (
	"fmt"
	"io"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestCursorSeesSublogCreatedAfterOpen: a cursor on a parent log reads the
// entries of a sublog created after the cursor was opened — forwards, past
// blocks the entrymap skips, and backwards — like a cursor opened afterwards.
func TestCursorSeesSublogCreatedAfterOpen(t *testing.T) {
	s, _ := newTestService(t, Options{BlockSize: 256, Degree: 4})
	defer s.Close()
	mustCreate(t, s, "/p")
	a := mustCreate(t, s, "/p/a")
	filler := mustCreate(t, s, "/filler")
	mustAppend(t, s, a, "a1", AppendOptions{})
	cur, err := s.OpenCursor("/p")
	if err != nil {
		t.Fatal(err)
	}
	if e, err := cur.Next(); err != nil || string(e.Data) != "a1" {
		t.Fatalf("Next = %v, %v; want a1", e, err)
	}
	if _, err := cur.Next(); err != io.EOF {
		t.Fatalf("Next at the end: %v", err)
	}

	b := mustCreate(t, s, "/p/b")
	mustAppend(t, s, b, "b1", AppendOptions{})
	for i := 0; i < 50; i++ {
		mustAppend(t, s, filler, fmt.Sprintf("filler-%02d-padding-padding", i), AppendOptions{})
	}
	mustAppend(t, s, b, "b2", AppendOptions{})

	var got []string
	for {
		e, err := cur.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, string(e.Data))
	}
	if fmt.Sprint(got) != "[b1 b2]" {
		t.Fatalf("the cursor opened before /p/b read %v after it, want [b1 b2]", got)
	}
	if fresh := datas(readAll(t, s, "/p")); fmt.Sprint(fresh) != "[a1 b1 b2]" {
		t.Fatalf("a cursor opened afterwards reads %v", fresh)
	}

	// Backwards, from a cursor parked at the end before the create.
	back, err := s.OpenCursor("/p")
	if err != nil {
		t.Fatal(err)
	}
	back.SeekEnd()
	c := mustCreate(t, s, "/p/c")
	mustAppend(t, s, c, "c1", AppendOptions{})
	back.SeekEnd()
	var rev []string
	for {
		e, err := back.Prev()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		rev = append(rev, string(e.Data))
	}
	if fmt.Sprint(rev) != "[c1 b2 b1 a1]" {
		t.Fatalf("Prev from the end: %v, want [c1 b2 b1 a1]", rev)
	}
}

// TestParentCursorMatchesModel is TestRandomizedWorkloadMatchesModel for
// parent logs: random two- and three-level hierarchies, sublogs created as
// the run goes, single and multi-member appends across branches, forced and
// not, on a slow device so seals are in flight. Every so often a log of the
// tree is read with Next to the end, Prev back to the start, or SeekTime to
// a random instant then Next, and long-lived cursors opened early drain what
// was added since; each answer must be the volume sequence log ("/") filtered
// by the log's id set.
func TestParentCursorMatchesModel(t *testing.T) {
	seeds := 8
	if testing.Short() {
		seeds = 3
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		runParentModel(t, seed)
	}
}

func runParentModel(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	s, err := New(latentMem(256, 50*time.Microsecond), Options{BlockSize: 256, Degree: 4, Now: lockedNow(), NVRAM: NewMemNVRAM()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var ops []string
	fail := func(format string, args ...any) {
		t.Helper()
		from := max(0, len(ops)-25)
		t.Fatalf("seed %d, op %d: %s\nlast ops:\n  %s", seed, len(ops), fmt.Sprintf(format, args...), strings.Join(ops[from:], "\n  "))
	}

	var paths []string
	ids := map[string]uint16{}
	create := func(path string) {
		id, err := s.CreateLog(path, 0o644, "t")
		if err != nil {
			fail("CreateLog(%s): %v", path, err)
		}
		paths = append(paths, path)
		ids[path] = id
		ops = append(ops, "create "+path)
	}
	// A random tree two or three levels deep.
	depth := 2 + rng.Intn(2)
	for r := 0; r < 2+rng.Intn(2); r++ {
		root := fmt.Sprintf("/r%d", r)
		create(root)
		for c := 0; c < 1+rng.Intn(3); c++ {
			kid := fmt.Sprintf("%s/k%d", root, c)
			create(kid)
			if depth == 3 {
				for g := 0; g < rng.Intn(3); g++ {
					create(fmt.Sprintf("%s/g%d", kid, g))
				}
			}
		}
	}

	// expect is the model: "/" read linearly, filtered by path's id set.
	expect := func(path string) []*Entry {
		set, err := s.cat.Descendants(ids[path])
		if err != nil {
			fail("Descendants(%s): %v", path, err)
		}
		var out []*Entry
		for _, e := range readAll(t, s, "/") {
			if slices.ContainsFunc(set, e.MemberOf) {
				out = append(out, e)
			}
		}
		return out
	}
	same := func(what string, got, want []*Entry) {
		t.Helper()
		if len(got) != len(want) {
			fail("%s: %d entries, the filtered volume sequence has %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i].Block != want[i].Block || got[i].Index != want[i].Index || string(got[i].Data) != string(want[i].Data) {
				fail("%s: entry %d at (%d,%d) %q, want (%d,%d) %q", what, i,
					got[i].Block, got[i].Index, got[i].Data, want[i].Block, want[i].Index, want[i].Data)
			}
		}
	}
	drain := func(c *Cursor, what string) []*Entry {
		var out []*Entry
		for {
			e, err := c.Next()
			if err == io.EOF {
				return out
			}
			if err != nil {
				fail("%s: Next: %v", what, err)
			}
			out = append(out, e)
		}
	}

	// Long-lived cursors, one per log of the first tree, opened before any
	// entry exists and drained now and then: they cross creates, the
	// pending span, the staged tail and seals in flight.
	type live struct {
		path string
		cur  *Cursor
		got  []*Entry
	}
	var lives []*live
	for _, p := range paths {
		c, err := s.OpenCursor(p)
		if err != nil {
			fail("OpenCursor(%s): %v", p, err)
		}
		lives = append(lives, &live{path: p, cur: c})
	}

	var appended []string
	for op := 0; op < 260; op++ {
		switch r := rng.Intn(100); {
		case r < 3:
			parent := paths[rng.Intn(len(paths))]
			if strings.Count(parent, "/") < 3 {
				create(fmt.Sprintf("%s/n%d", parent, op))
			}
		case r < 75:
			data := fmt.Sprintf("e%04d-", op)
			data += strings.Repeat("x", rng.Intn(90))
			opts := AppendOptions{Timestamped: rng.Intn(3) == 0, Forced: rng.Intn(3) == 0}
			members := []uint16{ids[paths[rng.Intn(len(paths))]]}
			if rng.Intn(5) == 0 { // a multi-member entry, likely across branches
				if extra := ids[paths[rng.Intn(len(paths))]]; extra != members[0] {
					members = append(members, extra)
				}
			}
			if _, err := s.AppendMulti(members, []byte(data), opts); err != nil && !IsDegraded(err) {
				fail("append %v: %v", members, err)
			}
			appended = append(appended, data)
			ops = append(ops, fmt.Sprintf("append %v forced=%v %s", members, opts.Forced, data[:6]))
		case r < 83:
			p := paths[rng.Intn(len(paths))]
			ops = append(ops, "Next to EOF on "+p)
			c, err := s.OpenCursor(p)
			if err != nil {
				fail("OpenCursor(%s): %v", p, err)
			}
			same("Next over "+p, drain(c, p), expect(p))
		case r < 90:
			p := paths[rng.Intn(len(paths))]
			ops = append(ops, "Prev to start on "+p)
			c, err := s.OpenCursor(p)
			if err != nil {
				fail("OpenCursor(%s): %v", p, err)
			}
			c.SeekEnd()
			var rev []*Entry
			for {
				e, err := c.Prev()
				if err == io.EOF {
					break
				}
				if err != nil {
					fail("Prev on %s: %v", p, err)
				}
				rev = append(rev, e)
			}
			slices.Reverse(rev)
			same("Prev over "+p, rev, expect(p))
		case r < 96:
			p := paths[rng.Intn(len(paths))]
			want := expect(p)
			var ts int64
			if all := readAll(t, s, "/"); len(all) > 0 {
				ts = all[rng.Intn(len(all))].Timestamp + int64(rng.Intn(3)-1)
			}
			if rng.Intn(4) == 0 {
				ts = int64(rng.Intn(1000 * (op + 50)))
			}
			ops = append(ops, fmt.Sprintf("SeekTime(%d) on %s", ts, p))
			c, err := s.OpenCursor(p)
			if err != nil {
				fail("OpenCursor(%s): %v", p, err)
			}
			if err := c.SeekTime(ts); err != nil {
				fail("SeekTime(%d) on %s: %v", ts, p, err)
			}
			i := 0
			for i < len(want) && want[i].Timestamp < ts {
				i++
			}
			if i > 0 {
				if e, err := c.Prev(); err != nil || e.Block != want[i-1].Block || e.Index != want[i-1].Index {
					fail("SeekTime(%d) on %s then Prev: %v, %v; want (%d,%d)", ts, p, e, err, want[i-1].Block, want[i-1].Index)
				}
				if _, err := c.Next(); err != nil {
					fail("Next back over the entry Prev returned: %v", err)
				}
			}
			same(fmt.Sprintf("SeekTime(%d) then Next over %s", ts, p), drain(c, p), want[i:])
		default:
			l := lives[rng.Intn(len(lives))]
			ops = append(ops, "drain the live cursor on "+l.path)
			l.got = append(l.got, drain(l.cur, l.path)...)
			same("live cursor on "+l.path, l.got, expect(l.path))
		}
	}
	// The model's own ground: "/" holds every client entry appended, in order.
	var client []string
	for _, e := range readAll(t, s, "/") {
		for _, id := range ids {
			if e.LogID == id {
				client = append(client, string(e.Data))
			}
		}
	}
	if !slices.Equal(client, appended) {
		fail("the volume sequence holds %d client entries, %d were appended", len(client), len(appended))
	}
	for _, l := range lives {
		l.got = append(l.got, drain(l.cur, l.path)...)
		same("live cursor on "+l.path+" at the end", l.got, expect(l.path))
	}
}
