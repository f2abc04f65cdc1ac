package client

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clio/internal/core"
	"clio/internal/logapi"
	"clio/internal/obs"
	"clio/internal/server"
	"clio/internal/shard"
	"clio/internal/wodev"
)

// tcpStore serves an n-shard in-memory store on a loopback TCP listener and
// returns a client dialed to it next to the store itself, so a test can read
// the same logs both ways. Every shard draws timestamps from one strictly
// increasing clock: the merged root order is then a total order that appends
// only ever extend.
func tcpStore(tb testing.TB, shards, blockSize int) (*Client, *shard.Store, *server.Server) {
	tb.Helper()
	var now atomic.Int64
	svcs := make([]*core.Service, shards)
	for i := range svcs {
		dev := wodev.NewMem(wodev.MemOptions{BlockSize: blockSize, Capacity: 1 << 14})
		svc, err := core.New(dev, core.Options{
			BlockSize: blockSize, Degree: 8,
			Now: func() int64 { return now.Add(1000) },
		})
		if err != nil {
			tb.Fatal(err)
		}
		svcs[i] = svc
	}
	st, err := shard.New(svcs)
	if err != nil {
		tb.Fatal(err)
	}
	srv := server.NewStore(st)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	go srv.Serve(ln)
	cl, err := DialOptions(ln.Addr().String(), Options{Retry: quickNetRetry()})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { cl.Close(); srv.Close(); st.Close() })
	return cl, st, srv
}

// fillSublogs creates parent and n sublogs beneath it and appends count
// entries round-robin across the sublogs, returning the payloads in log
// order.
func fillSublogs(tb testing.TB, cl *Client, parent string, n, count int) [][]byte {
	tb.Helper()
	return fillSublogsPadded(tb, cl, parent, n, count, " of a scan, padded to a session record's size")
}

// fillSublogsPadded is fillSublogs with pad after each entry's number.
func fillSublogsPadded(tb testing.TB, cl *Client, parent string, n, count int, pad string) [][]byte {
	tb.Helper()
	if _, err := cl.CreateLog(bg, parent, 0o644, "t"); err != nil {
		tb.Fatal(err)
	}
	ids := make([]ID, n)
	for i := range ids {
		var err error
		if ids[i], err = cl.CreateLog(bg, fmt.Sprintf("%s/s%02d", parent, i), 0o644, "t"); err != nil {
			tb.Fatal(err)
		}
	}
	want := make([][]byte, count)
	for i := range want {
		want[i] = []byte(fmt.Sprintf("%s entry %06d%s", parent, i, pad))
		if _, err := cl.Append(bg, ids[i%n], want[i], AppendOptions{}); err != nil {
			tb.Fatal(err)
		}
	}
	if err := cl.Force(bg); err != nil {
		tb.Fatal(err)
	}
	return want
}

// BenchmarkRemoteScan scans a parent log with 16 sublogs over TCP loopback:
// one op is one entry returned by Next, rewinding at the end of the log.
// Most Nexts are served from the read-ahead buffer, so ns/op is an average
// over two very different calls; the extra metrics split it: how many
// entries one round trip carries, and the median of the calls that did go to
// the server.
func BenchmarkRemoteScan(b *testing.B) {
	cl, _, srv := tcpStore(b, 1, 1024)
	reg := obs.NewRegistry()
	srv.RegisterMetrics(reg)
	want := fillSublogs(b, cl, "/sessions", 16, 4000)
	c, err := cl.OpenCursor(bg, "/sessions")
	if err != nil {
		b.Fatal(err)
	}
	cur := c.(*Cursor)
	defer cur.Close()
	var refills []time.Duration
	scan := func(n int) {
		for i := 0; i < n; {
			refill := cur.pos == len(cur.buf)
			start := time.Now()
			e, err := cur.Next(bg)
			if refill {
				refills = append(refills, time.Since(start))
			}
			if err == io.EOF {
				if err := cur.SeekStart(bg); err != nil {
					b.Fatal(err)
				}
				continue
			}
			if err != nil {
				b.Fatal(err)
			}
			if !bytes.Equal(e.Data, want[i%len(want)]) {
				b.Fatalf("entry %d does not match what was appended", i)
			}
			i++
		}
	}
	scan(len(want)) // warm the block cache and its decodes
	if err := cur.SeekStart(bg); err != nil {
		b.Fatal(err)
	}
	req0, ent0 := nextRequests(reg)
	refills = refills[:0]
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	scan(b.N)
	b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "entries/s")
	req, ent := nextRequests(reg)
	b.ReportMetric(float64(ent-ent0)/float64(req-req0), "entries/request")
	sort.Slice(refills, func(i, j int) bool { return refills[i] < refills[j] })
	b.ReportMetric(float64(refills[len(refills)/2].Nanoseconds())/1e3, "refill-p50-µs")
}

// sameEntry compares two cursor results field by field (a nil and an empty
// slice are the same data).
func sameEntry(a, b *Entry) bool {
	if a == nil || b == nil {
		return a == b
	}
	x, y := *a, *b
	if len(x.Data) == 0 && len(y.Data) == 0 {
		x.Data, y.Data = nil, nil
	}
	if len(x.ExtraIDs) == 0 && len(y.ExtraIDs) == 0 {
		x.ExtraIDs, y.ExtraIDs = nil, nil
	}
	return reflect.DeepEqual(x, y)
}

// showEntry renders an entry for a failure message.
func showEntry(e *Entry) string {
	if e == nil {
		return "no entry"
	}
	return fmt.Sprintf("{log %d shard %d pos (%d,%d) ts %d %d bytes %.12q}", e.LogID, e.Shard, e.Block, e.Index, e.Timestamp, len(e.Data), e.Data)
}

// errClass reduces an error to what both sides of the wire can agree on.
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, io.EOF):
		return "EOF"
	default:
		return "error"
	}
}

// diffTopology is one store shape of the differential test: how many shards,
// which log the cursors scan, which logs the interleaved appends go to on
// that log, and one that lies beside it.
type diffTopology struct {
	name   string
	shards int
	scan   string
	on     []string
	beside string
}

var diffTopologies = []diffTopology{
	{name: "sublog", shards: 1, scan: "/a/s1", on: []string{"/a/s1"}, beside: "/a/s2"},
	{name: "parent", shards: 1, scan: "/a", on: []string{"/a", "/a/s0", "/a/s1", "/a/s2", "/a/s3"}, beside: "/b"},
	// Everything is "on" the merged root; its SeekPos is an error both ways.
	{name: "root4", shards: 4, scan: "/", on: []string{"/a", "/a/s0", "/b", "/c", "/d/s0", "/e", "/f"}, beside: "/g"},
}

// TestCursorDifferential drives a client.Cursor over TCP and a shard.Store
// cursor on the same store through the same seeded random sequence of
// Next/Prev/Seek*/Close calls, with appends (forced and not, on the scanned
// log and beside it) between them, and requires the two to answer every call
// alike: read-ahead must be invisible. The clock is shared and strictly
// increasing, so the order the merged root promises is one appends only
// extend.
func TestCursorDifferential(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6}
	steps := 600
	if testing.Short() {
		seeds, steps = seeds[:2], 300
	}
	for _, topo := range diffTopologies {
		for _, seed := range seeds {
			topo, seed := topo, seed
			t.Run(fmt.Sprintf("%s/seed%d", topo.name, seed), func(t *testing.T) {
				t.Parallel()
				runCursorDifferential(t, topo, seed, steps)
			})
		}
	}
}

func runCursorDifferential(t *testing.T, topo diffTopology, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	cl, st, _ := tcpStore(t, topo.shards, 512)
	ids := map[string]ID{}
	create := func(path string) {
		for i := 1; i < len(path); i++ { // parents first
			if path[i] == '/' {
				if _, ok := ids[path[:i]]; !ok {
					id, err := cl.CreateLog(bg, path[:i], 0o644, "t")
					if err != nil {
						t.Fatal(err)
					}
					ids[path[:i]] = id
				}
			}
		}
		if _, ok := ids[path]; !ok {
			id, err := cl.CreateLog(bg, path, 0o644, "t")
			if err != nil {
				t.Fatal(err)
			}
			ids[path] = id
		}
	}
	for _, p := range append(append([]string(nil), topo.on...), topo.beside) {
		create(p)
	}
	appended := 0
	appendTo := func(path string) {
		n := 1 + rng.Intn(120)
		if rng.Intn(12) == 0 {
			n = 600 + rng.Intn(1500) // spans blocks: a fragmented entry
		}
		data := bytes.Repeat([]byte{byte('a' + appended%26)}, n)
		copy(data, fmt.Sprintf("%06d", appended))
		appended++
		opts := AppendOptions{Timestamped: rng.Intn(2) == 0, Forced: rng.Intn(4) == 0}
		if _, err := cl.Append(bg, ids[path], data, opts); err != nil && !IsDegraded(err) {
			t.Fatalf("seed %d: append to %s: %v", seed, path, err)
		}
	}
	for i := 0; i < 250; i++ {
		appendTo(topo.on[rng.Intn(len(topo.on))])
	}

	var remote, local logapi.Cursor
	open := func() {
		var err error
		if remote, err = cl.OpenCursor(bg, topo.scan); err != nil {
			t.Fatal(err)
		}
		if local, err = st.OpenCursor(bg, topo.scan); err != nil {
			t.Fatal(err)
		}
	}
	open()
	var seen []*Entry // entries either cursor returned: seek targets
	var trace []string
	fail := func(format string, args ...any) {
		t.Helper()
		from := max(0, len(trace)-25)
		t.Fatalf("seed %d, topology %s, step %d: %s\nlast calls:\n  %s", seed, topo.name, len(trace),
			fmt.Sprintf(format, args...), strings.Join(trace[from:], "\n  "))
	}
	step := func(name string, f func(logapi.Cursor) (*Entry, error)) {
		t.Helper()
		re, rerr := f(remote)
		le, lerr := f(local)
		trace = append(trace, fmt.Sprintf("%s -> %s", name, errClass(lerr)))
		if errClass(rerr) != errClass(lerr) {
			fail("%s: client says %v, store says %v", name, rerr, lerr)
		}
		if !sameEntry(re, le) {
			fail("%s: client returned %s, store returned %s", name, showEntry(re), showEntry(le))
		}
		if le != nil {
			seen = append(seen, le)
		}
	}
	next := func(c logapi.Cursor) (*Entry, error) { return c.Next(bg) }
	seek := func(f func(logapi.Cursor) error) func(logapi.Cursor) (*Entry, error) {
		return func(c logapi.Cursor) (*Entry, error) { return nil, f(c) }
	}
	for len(trace) < steps {
		switch r := rng.Intn(100); {
		case r < 30:
			step("Next", next)
		case r < 38: // a run long enough to climb the ramp to its upper refills
			for n := rng.Intn(220); n > 0; n-- {
				step("Next", next)
			}
		case r < 52:
			step("Prev", func(c logapi.Cursor) (*Entry, error) { return c.Prev(bg) })
		case r < 56:
			step("SeekStart", seek(func(c logapi.Cursor) error { return c.SeekStart(bg) }))
		case r < 60:
			step("SeekEnd", seek(func(c logapi.Cursor) error { return c.SeekEnd(bg) }))
		case r < 68:
			ts := int64(rng.Intn(1000 * (appended + 400))) // now and then past the end
			if len(seen) > 0 && rng.Intn(2) == 0 {
				ts = seen[rng.Intn(len(seen))].Timestamp + int64(rng.Intn(3)-1)
			}
			step(fmt.Sprintf("SeekTime(%d)", ts), seek(func(c logapi.Cursor) error { return c.SeekTime(bg, ts) }))
		case r < 74:
			block, rec := rng.Intn(40), rng.Intn(6)
			if len(seen) > 0 {
				e := seen[rng.Intn(len(seen))]
				block, rec = e.Block, e.Index+rng.Intn(2)
			}
			step(fmt.Sprintf("SeekPos(%d,%d)", block, rec), seek(func(c logapi.Cursor) error { return c.SeekPos(bg, block, rec) }))
		case r < 77:
			if err := remote.Close(); err != nil {
				fail("Close: %v", err)
			}
			local.Close()
			trace = append(trace, "Close + reopen")
			open()
		case r < 93:
			path := topo.on[rng.Intn(len(topo.on))]
			appendTo(path)
			trace = append(trace, "append on "+path)
		case r < 98:
			appendTo(topo.beside)
			trace = append(trace, "append beside")
		default:
			if err := cl.Force(bg); err != nil {
				fail("Force: %v", err)
			}
			trace = append(trace, "Force")
		}
	}
	// Whatever the walk left behind, both cursors drain the rest alike.
	for i := 0; !strings.HasSuffix(trace[len(trace)-1], "Next -> EOF"); i++ {
		if i > 100000 {
			fail("drain did not reach the end of the log")
		}
		step("Next", next)
	}
}

// scanAll reads cur to the end of the log and returns the entries' data.
func scanAll(t *testing.T, cur logapi.Cursor) [][]byte {
	t.Helper()
	var out [][]byte
	for {
		e, err := cur.Next(bg)
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, e.Data)
	}
}

// nextRequests reads the server's next-request counter and the entries those
// requests carried (a fused seek's entry counts under op="seek_time").
func nextRequests(reg *obs.Registry) (requests, entries int64) {
	return reg.Counter("clio_server_requests_total", "", obs.L("op", "next")).Value(),
		reg.Counter("clio_server_cursor_entries_total", "", obs.L("op", "next")).Value()
}

// TestReadAheadRamp pins the request pattern: want starts at 1 after
// OpenCursor and after every repositioning call and doubles per consecutive
// refill up to the server's cap, so a scan settles at one round trip per full
// batch; SeekTime is itself the want=1 step, so the Next after it is no
// request at all and the refill after that asks for 2. The entries are short
// enough that a batch at the cap stays inside the byte budget.
func TestReadAheadRamp(t *testing.T) {
	cl, _, srv := tcpStore(t, 1, 1024)
	reg := obs.NewRegistry()
	srv.RegisterMetrics(reg)
	const capped = server.MaxBatchEntries
	want := fillSublogsPadded(t, cl, "/ramp", 4, 4*capped, "")
	cur, err := cl.OpenCursor(bg, "/ramp")
	if err != nil {
		t.Fatal(err)
	}
	read := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := cur.Next(bg); err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(when string, wantReq, wantEntries int64) {
		t.Helper()
		if req, ent := nextRequests(reg); req != wantReq || ent != wantEntries {
			t.Fatalf("%s: %d next requests carrying %d entries, want %d carrying %d", when, req, ent, wantReq, wantEntries)
		}
	}
	read(1)
	check("first Next", 1, 1)
	reqs, ents := int64(1), int64(1)
	for w := 2; w < capped; w *= 2 { // one refill per doubling: 2, 4, …, capped/2
		read(w)
		reqs, ents = reqs+1, ents+int64(w)
	}
	check("ramp", reqs, ents)
	read(2 * capped)
	reqs, ents = reqs+2, ents+2*capped
	check("at the cap", reqs, ents)

	// A seek drops the read-ahead and restarts the ramp with its own answer:
	// the entry it lands on comes back with it, which is all the server
	// cursor moves, and the Next after it is served from the buffer.
	seekEntries := reg.Counter("clio_server_cursor_entries_total", "", obs.L("op", "seek_time"))
	ts := int64(0)
	if err := cur.SeekTime(bg, ts); err != nil {
		t.Fatal(err)
	}
	e, err := cur.Next(bg)
	if err != nil || !bytes.Equal(e.Data, want[0]) {
		t.Fatalf("Next after SeekTime(0): %v", err)
	}
	check("seek then one Next", reqs, ents)
	if got := seekEntries.Value(); got != 1 {
		t.Fatalf("the fused seek delivered %d entries, want 1", got)
	}
	read(2) // the ramp goes on at 2
	check("seek then three Nexts", reqs+1, ents+2)
	// Prev with nothing read ahead is a plain Prev, and it resets the ramp.
	if e, err = cur.Prev(bg); err != nil || !bytes.Equal(e.Data, want[2]) {
		t.Fatalf("Prev: %v", err)
	}
	read(1)
	check("Prev then one Next", reqs+2, ents+3)
	// A seek past the end buffers nothing: the Next after it asks the server.
	if err := cur.SeekTime(bg, 1<<62); err != nil {
		t.Fatal(err)
	}
	if _, err := cur.Next(bg); err != io.EOF {
		t.Fatalf("Next after a seek past the end: %v, want EOF", err)
	}
	check("seek past the end then one Next", reqs+3, ents+3)
	if got := seekEntries.Value(); got != 1 {
		t.Fatalf("a seek past the end delivered an entry (%d in all)", got)
	}
}

// TestReadAheadRampSurvivesRewind: SeekStart drops the read-ahead but not the
// ramp, so a scan that rewinds at the end of the log (as scan_live does) asks
// for full batches from the first refill of its second pass: one request per
// cap's worth of entries, and one more for the end of the log.
func TestReadAheadRampSurvivesRewind(t *testing.T) {
	cl, _, srv := tcpStore(t, 1, 1024)
	reg := obs.NewRegistry()
	srv.RegisterMetrics(reg)
	const capped = server.MaxBatchEntries
	want := fillSublogsPadded(t, cl, "/rewind", 4, 4*capped, "") // short: a batch at the cap fits the byte budget
	c, err := cl.OpenCursor(bg, "/rewind")
	if err != nil {
		t.Fatal(err)
	}
	cur := c.(*Cursor)
	pass := func() {
		t.Helper()
		for i := 0; ; i++ {
			e, err := cur.Next(bg)
			if err == io.EOF {
				if i != len(want) {
					t.Fatalf("a pass ended after %d entries, want %d", i, len(want))
				}
				return
			}
			if err != nil || !bytes.Equal(e.Data, want[i]) {
				t.Fatalf("entry %d: %v", i, err)
			}
		}
	}
	pass()
	if cur.buf != nil {
		t.Fatal("a cursor that handed out its last buffered entry still holds the batch")
	}
	if cur.want != capped {
		t.Fatalf("after a pass of %d entries the ramp stands at %d, want the cap %d", len(want), cur.want, capped)
	}
	if err := cur.SeekStart(bg); err != nil {
		t.Fatal(err)
	}
	req0, ent0 := nextRequests(reg)
	if _, err := cur.Next(bg); err != nil {
		t.Fatal(err)
	}
	if req, ent := nextRequests(reg); req-req0 != 1 || ent-ent0 != capped {
		t.Fatalf("the first refill after SeekStart: %d requests carrying %d entries, want 1 carrying %d", req-req0, ent-ent0, capped)
	}
	if err := cur.SeekStart(bg); err != nil {
		t.Fatal(err)
	}
	req0, ent0 = nextRequests(reg)
	pass()
	if req, ent := nextRequests(reg); req-req0 != int64(len(want)/capped+1) || ent-ent0 != int64(len(want)) {
		t.Fatalf("a pass after SeekStart: %d requests carrying %d entries, want %d carrying %d",
			req-req0, ent-ent0, len(want)/capped+1, len(want))
	}
}

// TestReadAheadStepBackPastOldCap: a Prev taken a few entries into a refill
// of more than 64 sends a back count above 64, which a server capped at 64
// refused. It must return the entry just before the caller's position — the
// one the last Next returned — as a store cursor does, on one shard and on
// the merged root of four.
func TestReadAheadStepBackPastOldCap(t *testing.T) {
	for _, shards := range []int{1, 4} {
		cl, st, _ := tcpStore(t, shards, 1024)
		fillSublogs(t, cl, "/back", 4, 400)
		for _, path := range []string{"/back", "/"} {
			c, err := cl.OpenCursor(bg, path)
			if err != nil {
				t.Fatal(err)
			}
			cur := c.(*Cursor)
			ref, err := st.OpenCursor(bg, path)
			if err != nil {
				t.Fatal(err)
			}
			// The ramp up to a refill of 128, then three entries into it.
			var last *Entry
			for n := 0; n < 127+3; n++ {
				if last, err = cur.Next(bg); err != nil {
					t.Fatal(err)
				}
				if _, err := ref.Next(bg); err != nil {
					t.Fatal(err)
				}
			}
			if back := len(cur.buf) - cur.pos; back <= 64 {
				t.Fatalf("%d shards, %s: %d entries read ahead, want more than 64", shards, path, back)
			}
			got, err := cur.Prev(bg)
			if err != nil {
				t.Fatalf("%d shards, %s: Prev past a refill of more than 64: %v", shards, path, err)
			}
			want, err := ref.Prev(bg)
			if err != nil {
				t.Fatal(err)
			}
			if !sameEntry(got, want) || !sameEntry(got, last) {
				t.Fatalf("%d shards, %s: Prev returned %s, want %s (the last Next's)", shards, path, showEntry(got), showEntry(want))
			}
			// And the scan goes on from there: Next returns it again.
			if got, err = cur.Next(bg); err != nil || !sameEntry(got, last) {
				t.Fatalf("%d shards, %s: Next after Prev returned %s, %v", shards, path, showEntry(got), err)
			}
			cur.Close()
			ref.Close()
		}
	}
}

// TestReadAheadEntriesOutliveTheirBatch: an entry's Data aliases the response
// its batch came in, so nothing may ever reuse a response frame. The entries
// of a full refill, kept by the caller, are byte-identical after three more
// refills of the same size, a SeekStart and a Close.
func TestReadAheadEntriesOutliveTheirBatch(t *testing.T) {
	cl, _, _ := tcpStore(t, 1, 1024)
	want := fillSublogs(t, cl, "/kept", 4, 5*server.MaxBatchEntries) // a ramp to the cap and four refills at it
	c, err := cl.OpenCursor(bg, "/kept")
	if err != nil {
		t.Fatal(err)
	}
	cur := c.(*Cursor)
	var kept []*Entry
	var copies []Entry
	keeping, after := false, -1 // refills since the kept one
	for read := 0; after < 3 || cur.pos < len(cur.buf); read++ {
		if cur.pos == len(cur.buf) {
			switch {
			case after >= 0:
				after++
			case cur.want == server.MaxBatchEntries: // the first request at the cap
				keeping, after = true, 0
			}
		}
		e, err := cur.Next(bg)
		if err != nil {
			t.Fatalf("entry %d: %v", read, err)
		}
		if !bytes.Equal(e.Data, want[read]) {
			t.Fatalf("entry %d: %q, want %q", read, e.Data, want[read])
		}
		if keeping && after == 0 {
			kept = append(kept, e)
			cp := *e
			cp.Data = append([]byte(nil), e.Data...)
			copies = append(copies, cp)
		}
	}
	if len(kept) < server.MaxBatchEntries/2 {
		t.Fatalf("kept a refill of %d entries, want a full one", len(kept))
	}
	if err := cur.SeekStart(bg); err != nil {
		t.Fatal(err)
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	for i, e := range kept {
		if !sameEntry(e, &copies[i]) {
			t.Fatalf("kept entry %d changed: %s holds %q, was %q", i, showEntry(e), e.Data, copies[i].Data)
		}
	}
}

// TestNextAfterEOFSeesAckedAppend: the end of the log is never buffered. A
// cursor that reported io.EOF returns an entry appended (and acknowledged)
// afterwards on its very next call — forced or not, on a sublog or the log
// itself, at any height of the ramp.
func TestNextAfterEOFSeesAckedAppend(t *testing.T) {
	cl, _, _ := tcpStore(t, 1, 512)
	fillSublogs(t, cl, "/tail", 2, 150)
	id, err := cl.Resolve(bg, "/tail/s01")
	if err != nil {
		t.Fatal(err)
	}
	cur, err := cl.OpenCursor(bg, "/tail")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(scanAll(t, cur)); got != 150 {
		t.Fatalf("scanned %d entries, want 150", got)
	}
	for i := 0; i < 20; i++ {
		data := []byte(fmt.Sprintf("late-%02d", i))
		if _, err := cl.Append(bg, id, data, AppendOptions{Forced: i%2 == 0}); err != nil {
			t.Fatal(err)
		}
		e, err := cur.Next(bg)
		if err != nil || !bytes.Equal(e.Data, data) {
			t.Fatalf("Next after acked append %d: %v, %+v (a stale end of log?)", i, err, e)
		}
		if _, err := cur.Next(bg); err != io.EOF {
			t.Fatalf("Next past append %d: %v, want io.EOF", i, err)
		}
	}
}

// TestCursorSeesSublogCreatedAfterOpen: a remote cursor on a parent log reads
// the entries of a sublog created after it was opened, past blocks holding
// none of the parent's entries, as a cursor opened afterwards does.
func TestCursorSeesSublogCreatedAfterOpen(t *testing.T) {
	cl, _, _ := tcpStore(t, 1, 512)
	fillSublogs(t, cl, "/p", 1, 3)
	filler, err := cl.CreateLog(bg, "/filler", 0o644, "t")
	if err != nil {
		t.Fatal(err)
	}
	cur, err := cl.OpenCursor(bg, "/p")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(scanAll(t, cur)); got != 3 {
		t.Fatalf("scanned %d entries, want 3", got)
	}
	b, err := cl.CreateLog(bg, "/p/b", 0o644, "t")
	if err != nil {
		t.Fatal(err)
	}
	appendTo := func(id ID, data string) {
		t.Helper()
		if _, err := cl.Append(bg, id, []byte(data), AppendOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	appendTo(b, "b1")
	for i := 0; i < 50; i++ {
		appendTo(filler, fmt.Sprintf("filler-%02d-padded-to-fill-the-blocks-in-between", i))
	}
	appendTo(b, "b2")
	if got := scanAll(t, cur); fmt.Sprintf("%s", got) != "[b1 b2]" {
		t.Fatalf("the cursor opened before /p/b read %s after it, want [b1 b2]", got)
	}
	fresh, err := cl.OpenCursor(bg, "/p")
	if err != nil {
		t.Fatal(err)
	}
	if got := scanAll(t, fresh); len(got) != 5 {
		t.Fatalf("a cursor opened afterwards read %d entries, want 5", len(got))
	}
}

// TestSeekTimeBuffersOnlyHistory: the entry a SeekTime reads ahead is log
// history like any buffered entry — Prev steps back over it to the last entry
// before ts — and a seek past the end holds nothing, so an entry acknowledged
// after it is what Next returns.
func TestSeekTimeBuffersOnlyHistory(t *testing.T) {
	cl, st, _ := tcpStore(t, 1, 512)
	fillSublogs(t, cl, "/hist", 2, 90)
	ref, err := st.OpenCursor(bg, "/hist")
	if err != nil {
		t.Fatal(err)
	}
	var entries []*Entry
	for {
		e, err := ref.Next(bg)
		if err != nil {
			break
		}
		entries = append(entries, e)
	}
	cur, err := cl.OpenCursor(bg, "/hist")
	if err != nil {
		t.Fatal(err)
	}
	for _, at := range []int{len(entries) / 3, len(entries) / 2, len(entries) - 1} {
		// Untimestamped entries share their block's timestamp: the seek
		// lands before the first of them.
		ts := entries[at].Timestamp
		i := sort.Search(len(entries), func(k int) bool { return entries[k].Timestamp >= ts })
		if i == 0 {
			t.Fatalf("fixture: entry %d is in the first block", at)
		}
		if err := cur.SeekTime(bg, ts); err != nil {
			t.Fatal(err)
		}
		if e, err := cur.Prev(bg); err != nil || !sameEntry(e, entries[i-1]) {
			t.Fatalf("SeekTime(%d) then Prev: %s, %v; want %s", ts, showEntry(e), err, showEntry(entries[i-1]))
		}
		// And forward again from there: the seek's entry was not consumed.
		for _, want := range entries[i-1 : i+1] {
			if e, err := cur.Next(bg); err != nil || !sameEntry(e, want) {
				t.Fatalf("Next after SeekTime(%d), Prev: %s, %v; want %s", ts, showEntry(e), err, showEntry(want))
			}
		}
	}

	id, err := cl.Resolve(bg, "/hist/s01")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := cur.SeekTime(bg, 1<<62); err != nil {
			t.Fatal(err)
		}
		data := []byte(fmt.Sprintf("late-%02d", i))
		if _, err := cl.Append(bg, id, data, AppendOptions{Forced: i%2 == 0}); err != nil {
			t.Fatal(err)
		}
		if e, err := cur.Next(bg); err != nil || !bytes.Equal(e.Data, data) {
			t.Fatalf("Next after a seek past the end and acked append %d: %v, %+v (a stale end of log?)", i, err, e)
		}
	}
}

// TestReaderAndLocateUniqueAcrossBatches reads a log several batches long
// with a plain Next loop, then with LocateUnique, which is built on Next:
// neither may notice the batch boundaries.
func TestReaderAndLocateUniqueAcrossBatches(t *testing.T) {
	cl, st, _ := tcpStore(t, 1, 1024)
	want := fillSublogs(t, cl, "/long", 3, 5*server.MaxBatchEntries+7)

	cur, err := cl.OpenCursor(bg, "/long")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		e, err := cur.Next(bg)
		if err == io.EOF {
			if i != len(want) {
				t.Fatalf("Next read %d entries, want %d", i, len(want))
			}
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if i >= len(want) || !bytes.Equal(e.Data, want[i]) {
			t.Fatalf("Next entry %d = %q, not the one appended", i, e.Data)
		}
	}

	// The target sits more than two batches into the skew window, and the
	// window closes before the end of the log.
	ref, err := st.OpenCursor(bg, "/long")
	if err != nil {
		t.Fatal(err)
	}
	var stamps []int64
	for {
		e, err := ref.Next(bg)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		stamps = append(stamps, e.Timestamp)
	}
	first, target := 10, 10+2*server.MaxBatchEntries+30
	clientTS := (stamps[first] + stamps[target+5]) / 2
	skew := clientTS - stamps[first]
	e, err := logapi.LocateUnique(bg, cur, clientTS, skew, func(e *Entry) bool { return bytes.Equal(e.Data, want[target]) })
	if err != nil || e.Timestamp != stamps[target] {
		t.Fatalf("LocateUnique: %v, %+v", err, e)
	}
	// The scan resumes right after the match: nothing read ahead was lost.
	if e, err = cur.Next(bg); err != nil || !bytes.Equal(e.Data, want[target+1]) {
		t.Fatalf("Next after LocateUnique: %v", err)
	}
	if _, err := logapi.LocateUnique(bg, cur, clientTS, skew, func(*Entry) bool { return false }); err != io.EOF {
		t.Fatalf("LocateUnique without a match: %v, want io.EOF", err)
	}
}

// TestCursorSharedByGoroutines: the read-ahead buffer made Cursor stateful,
// so it carries a mutex. Goroutines sharing one cursor split the log between
// them — every entry delivered, none twice — and the race detector stays
// quiet while one of them also repositions.
func TestCursorSharedByGoroutines(t *testing.T) {
	cl, _, _ := tcpStore(t, 1, 1024)
	want := fillSublogs(t, cl, "/shared", 4, 1500)
	cur, err := cl.OpenCursor(bg, "/shared")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var got []string
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				e, err := cur.Next(bg)
				if err != nil {
					if err != io.EOF {
						t.Error(err)
					}
					return
				}
				mu.Lock()
				got = append(got, string(e.Data))
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	sort.Strings(got)
	if len(got) != len(want) {
		t.Fatalf("goroutines received %d entries between them, the log holds %d", len(got), len(want))
	}
	for i := range want { // fillSublogs numbers its payloads in order
		if got[i] != string(want[i]) {
			t.Fatalf("entry %d: got %q, want %q", i, got[i], want[i])
		}
	}

	// Mixed callers: scanners against a rewinder. Nothing to assert beyond
	// "no race, no error": the interleaving decides who sees what.
	var stop atomic.Bool
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if _, err := cur.Next(bg); err != nil && err != io.EOF {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		if err := cur.SeekStart(bg); err != nil {
			t.Error(err)
		}
		if _, err := cur.Prev(bg); err != nil && err != io.EOF {
			t.Error(err)
		}
	}
	stop.Store(true)
	wg.Wait()
}

// TestSeekTimeMinInt64OverTCP: a remote seek to the earliest representable
// time, on a parent log and on the root cursor of a sharded store, lands at
// the start: Next returns the log's first entry.
func TestSeekTimeMinInt64OverTCP(t *testing.T) {
	cl, _, _ := tcpStore(t, 4, 512)
	want := fillSublogs(t, cl, "/sessions", 4, 300)
	for _, path := range []string{"/sessions", "/"} {
		cur, err := cl.OpenCursor(bg, path)
		if err != nil {
			t.Fatal(err)
		}
		first, err := cur.Next(bg)
		if err != nil {
			t.Fatal(err)
		}
		if path == "/sessions" && !bytes.Equal(first.Data, want[0]) {
			t.Fatalf("%s: first entry %q, want %q", path, first.Data, want[0])
		}
		for _, ts := range []int64{math.MinInt64, math.MinInt64 + 1} {
			if err := cur.SeekEnd(bg); err != nil {
				t.Fatal(err)
			}
			if err := cur.SeekTime(bg, ts); err != nil {
				t.Fatal(err)
			}
			e, err := cur.Next(bg)
			if err != nil {
				t.Fatalf("%s: SeekTime(%d) then Next: %v", path, ts, err)
			}
			if e.Shard != first.Shard || e.Block != first.Block || e.Index != first.Index {
				t.Fatalf("%s: SeekTime(%d) then Next returned shard %d (%d,%d), want the first entry at shard %d (%d,%d)",
					path, ts, e.Shard, e.Block, e.Index, first.Shard, first.Block, first.Index)
			}
		}
		cur.Close()
	}
}
