package client

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"syscall"
	"testing"
	"time"

	"clio/internal/core"
	"clio/internal/faults"
	"clio/internal/obs"
	"clio/internal/server"
	"clio/internal/wodev"
)

func quickNetRetry() *faults.RetryPolicy {
	return &faults.RetryPolicy{MaxAttempts: 4, BaseDelay: time.Microsecond,
		MaxDelay: time.Microsecond, Sleep: func(time.Duration) {}}
}

// dropConn injects read failures into an otherwise working connection: the
// request reaches the server, but the response is lost — the classic
// retried-RPC ambiguity the session protocol resolves.
type dropConn struct {
	net.Conn
	mu        sync.Mutex
	failReads int
}

func (d *dropConn) FailNextRead() {
	d.mu.Lock()
	d.failReads++
	d.mu.Unlock()
}

func (d *dropConn) Read(p []byte) (int, error) {
	d.mu.Lock()
	fail := d.failReads > 0
	if fail {
		d.failReads--
	}
	d.mu.Unlock()
	if fail {
		return 0, syscall.ECONNRESET
	}
	return d.Conn.Read(p)
}

// faultHarness is a server reachable through a reconnecting dialer whose
// live connection the test can sabotage, and whose server the test can
// restart.
type faultHarness struct {
	mu    sync.Mutex
	dials int
	srv   *server.Server
	svc   *core.Service
	dev   *wodev.MemDevice
	last  *dropConn
}

func newFaultHarness(t *testing.T) *faultHarness {
	t.Helper()
	dev := wodev.NewMem(wodev.MemOptions{BlockSize: 512, Capacity: 1 << 14})
	now := int64(0)
	var nowMu sync.Mutex
	svc, err := core.New(dev, core.Options{
		BlockSize: 512, Degree: 8,
		Now: func() int64 { nowMu.Lock(); defer nowMu.Unlock(); now += 1000; return now },
	})
	if err != nil {
		t.Fatal(err)
	}
	h := &faultHarness{srv: server.New(svc), svc: svc, dev: dev}
	t.Cleanup(func() {
		h.mu.Lock()
		defer h.mu.Unlock()
		h.srv.Close()
		svc.Close()
	})
	return h
}

func (h *faultHarness) dial(ctx context.Context) (net.Conn, error) {
	h.mu.Lock()
	srv := h.srv
	h.dials++
	h.mu.Unlock()
	cConn, sConn := net.Pipe()
	go srv.ServeConn(sConn)
	dc := &dropConn{Conn: cConn}
	h.mu.Lock()
	h.last = dc
	h.mu.Unlock()
	return dc, nil
}

// restart replaces the server with a fresh instance (new epoch, no session
// state) over the same service, as a process restart would.
func (h *faultHarness) restart() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.srv.Close()
	h.srv = server.New(h.svc)
}

// dialCount is how many connections the client has asked for.
func (h *faultHarness) dialCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.dials
}

func (h *faultHarness) conn() *dropConn {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.last
}

func (h *faultHarness) client(t *testing.T) *Client {
	t.Helper()
	cl, err := DialContext(bg, "", Options{Dialer: h.dial, Retry: quickNetRetry()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

func TestReconnectReplaysLostResponseOnce(t *testing.T) {
	h := newFaultHarness(t)
	cl := h.client(t)
	id, err := cl.CreateLog(bg, "/rc", 0, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Append(bg, id, []byte("a"), AppendOptions{}); err != nil {
		t.Fatal(err)
	}

	// Lose the response to the next append: the request executes on the
	// server, the client reconnects and replays it under the same seq, and
	// the duplicate-suppression window returns the original result.
	h.conn().FailNextRead()
	ts, err := cl.Append(bg, id, []byte("b"), AppendOptions{})
	if err != nil || ts == 0 {
		t.Fatalf("replayed append: ts=%d, %v", ts, err)
	}
	if n := h.dialCount(); n != 2 {
		t.Fatalf("%d dials, want 2 (dial + one replay)", n)
	}

	st, err := cl.Stats(bg)
	if err != nil {
		t.Fatal(err)
	}
	if st.EntriesAppended != 2 {
		t.Fatalf("EntriesAppended = %d, want 2 (no duplicate)", st.EntriesAppended)
	}
	cur, err := cl.OpenCursor(bg, "/rc")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for {
		e, err := cur.Next(bg)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, string(e.Data))
	}
	if fmt.Sprint(got) != "[a b]" {
		t.Fatalf("entries after replay: %v", got)
	}
}

func TestCursorSurvivesReconnect(t *testing.T) {
	h := newFaultHarness(t)
	cl := h.client(t)
	id, err := cl.CreateLog(bg, "/cur", 0, "")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := cl.Append(bg, id, []byte(fmt.Sprintf("e%d", i)), AppendOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	cur, err := cl.OpenCursor(bg, "/cur")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := cur.Next(bg); err != nil {
			t.Fatal(err)
		}
	}
	// The cursor's server-side state lives in the session, not the
	// connection: a dropped connection does not lose the position.
	h.conn().FailNextRead()
	e, err := cur.Next(bg)
	if err != nil || string(e.Data) != "e3" {
		t.Fatalf("Next across reconnect: %v %+v", err, e)
	}
}

// TestScanSurvivesConnectionLossWithReadAhead kills the connection at every
// phase of a read-ahead scan — with unread entries buffered (the next refill
// finds a dead connection), and with a refill's response lost in flight (the
// server has already stepped its cursor a whole batch; the replay must be
// answered from the dedup window, not by stepping again) — and requires the
// scan to deliver every entry exactly once, in order.
func TestScanSurvivesConnectionLossWithReadAhead(t *testing.T) {
	h := newFaultHarness(t)
	cl := h.client(t)
	id, err := cl.CreateLog(bg, "/scan", 0, "")
	if err != nil {
		t.Fatal(err)
	}
	const n = 700
	for i := 0; i < n; i++ {
		if _, err := cl.Append(bg, id, []byte(fmt.Sprintf("e%04d", i)), AppendOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	cur, err := cl.OpenCursor(bg, "/scan")
	if err != nil {
		t.Fatal(err)
	}
	rc := cur.(*Cursor)
	refills, lost, cut := 0, 0, 0
	for i := 0; i < n; i++ {
		rc.mu.Lock()
		unread := len(rc.buf) - rc.pos
		rc.mu.Unlock()
		switch {
		case i%97 == 40 && unread > 0:
			// Entries are buffered and the connection dies under them.
			h.conn().Close()
			cut++
		case unread == 0:
			// Every other refill this scan sends loses its response.
			if refills++; refills%2 == 0 {
				h.conn().FailNextRead()
				lost++
			}
		}
		e, err := cur.Next(bg)
		if err != nil {
			t.Fatalf("Next %d: %v", i, err)
		}
		if want := fmt.Sprintf("e%04d", i); string(e.Data) != want {
			t.Fatalf("Next %d returned %q, want %q (an entry lost or duplicated across a reconnect)", i, e.Data, want)
		}
	}
	if _, err := cur.Next(bg); err != io.EOF {
		t.Fatalf("after the last entry: %v, want io.EOF", err)
	}
	if lost < 5 || cut < 5 || h.dialCount() < lost {
		t.Fatalf("%d responses lost, %d connections cut, %d dials: the faults were not injected", lost, cut, h.dialCount())
	}
}

// timedLog appends n timestamped entries "e0000".. to a new log at path and
// forces them.
func timedLog(t *testing.T, cl *Client, path string, n int) {
	t.Helper()
	id, err := cl.CreateLog(bg, path, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := cl.Append(bg, id, []byte(fmt.Sprintf("e%04d", i)), AppendOptions{Timestamped: true}); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.Force(bg); err != nil {
		t.Fatal(err)
	}
}

// readable returns what a cursor of the harness's own service reads at path,
// start to end.
func (h *faultHarness) readable(t *testing.T, path string) []*Entry {
	t.Helper()
	ref, err := h.svc.OpenCursor(path)
	if err != nil {
		t.Fatal(err)
	}
	var out []*Entry
	for {
		e, err := ref.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, e)
	}
}

// TestFusedSeekSurvivesLostResponse: SeekTime's request also steps the
// server cursor over the entry it reads ahead. When the response is lost the
// client replays the request under its seq and must be answered from the
// dedup window — the recorded batch, no second seek, no second step — so the
// caller sees the entry at ts once and its successor next, at every seek.
func TestFusedSeekSurvivesLostResponse(t *testing.T) {
	h := newFaultHarness(t)
	reg := obs.NewRegistry()
	h.srv.RegisterMetrics(reg)
	cl := h.client(t)
	timedLog(t, cl, "/seek", 40)
	entries := h.readable(t, "/seek")
	cur, err := cl.OpenCursor(bg, "/seek")
	if err != nil {
		t.Fatal(err)
	}
	const seeks = 12
	for k := 0; k < seeks; k++ {
		i := (k * 7) % (len(entries) - 1)
		h.conn().FailNextRead()
		if err := cur.SeekTime(bg, entries[i].Timestamp); err != nil {
			t.Fatalf("seek %d: %v", k, err)
		}
		for _, want := range entries[i : i+2] {
			e, err := cur.Next(bg)
			if err != nil || string(e.Data) != string(want.Data) {
				t.Fatalf("seek %d to %s: Next returned %v, %v; want %s (stepped twice, or not replayed?)", k, entries[i].Data, e, err, want.Data)
			}
		}
	}
	// Replayed or not, each seek read its one entry ahead once.
	if got := reg.Counter("clio_server_cursor_entries_total", "", obs.L("op", "seek_time")).Value(); got != seeks {
		t.Fatalf("fused seeks stepped the server cursor over %d entries, want %d", got, seeks)
	}
	if n := h.dialCount(); n < seeks {
		t.Fatalf("%d dials: the faults were not injected", n)
	}
}

// TestFusedSeekIntoLostBlock: the block holding the first entry at ts is
// damaged. The seek succeeds, and the calls after it answer as they always
// have — lost entries are skipped (§2.3.2), so the first readable entry past
// the damage comes next and the last one before it comes before — with
// nothing of the lost block, and no failure of the read-ahead, held in the
// client's buffer.
func TestFusedSeekIntoLostBlock(t *testing.T) {
	h := newFaultHarness(t)
	cl := h.client(t)
	timedLog(t, cl, "/lost", 60)
	all := h.readable(t, "/lost")
	victim := all[len(all)/2].Block
	first := sort.Search(len(all), func(i int) bool { return all[i].Block >= victim })
	if err := h.dev.Damage(victim+1, []byte("garbage")); err != nil { // +1: the volume header
		t.Fatal(err)
	}
	h.svc.FlushCache()
	left := h.readable(t, "/lost")
	ts := all[first].Timestamp
	j := sort.Search(len(left), func(i int) bool { return left[i].Timestamp >= ts })
	if first == 0 || len(left) == len(all) || j == 0 || j+1 >= len(left) || left[j-1].Block >= victim || left[j].Block <= victim {
		t.Fatalf("fixture: damaging block %d left %d of %d entries, %d of them before ts", victim, len(left), len(all), j)
	}

	cur, err := cl.OpenCursor(bg, "/lost")
	if err != nil {
		t.Fatal(err)
	}
	if err := cur.SeekTime(bg, ts); err != nil {
		t.Fatalf("SeekTime into the lost block: %v", err)
	}
	for i, step := range []struct {
		call func(context.Context) (*Entry, error)
		want *Entry
	}{{cur.Next, left[j]}, {cur.Next, left[j+1]}, {cur.Prev, left[j+1]}, {cur.Prev, left[j]}, {cur.Prev, left[j-1]}} {
		if e, err := step.call(bg); err != nil || !sameEntry(e, step.want) {
			t.Fatalf("call %d (Next, Next, Prev, Prev, Prev) returned %s (%v), want %s", i, showEntry(e), err, showEntry(step.want))
		}
	}
}

func TestServerRestartMidAppendIsAmbiguous(t *testing.T) {
	h := newFaultHarness(t)
	cl := h.client(t)
	id, err := cl.CreateLog(bg, "/amb", 0, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Append(bg, id, []byte("a"), AppendOptions{}); err != nil {
		t.Fatal(err)
	}

	// The response is lost AND the server restarts before the replay: the
	// new epoch means the duplicate-suppression window is gone, so the
	// client must refuse to replay the mutating request.
	h.conn().FailNextRead()
	h.restart()
	_, err = cl.Append(bg, id, []byte("b"), AppendOptions{})
	var amb *AmbiguousError
	if !errors.As(err, &amb) {
		t.Fatalf("append across restart: %v, want *AmbiguousError", err)
	}
	// The client remains usable on the new server.
	if err := cl.Ping(bg); err != nil {
		t.Fatalf("ping after ambiguity: %v", err)
	}
}

func TestServerRestartMidReadIsRetried(t *testing.T) {
	h := newFaultHarness(t)
	cl := h.client(t)
	if _, err := cl.CreateLog(bg, "/r", 0, ""); err != nil {
		t.Fatal(err)
	}
	// Reads are safe to replay across a restart: no ambiguity.
	h.conn().FailNextRead()
	h.restart()
	if _, err := cl.Resolve(bg, "/r"); err != nil {
		t.Fatalf("resolve across restart: %v", err)
	}
}

func TestDialTimeoutOnSilentServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() { // accept and say nothing
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
		}
	}()
	start := time.Now()
	_, err = DialOptions(ln.Addr().String(), Options{DialTimeout: 50 * time.Millisecond})
	if err == nil {
		t.Fatal("dial of a silent server succeeded")
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("dial took %v, want ~50ms", d)
	}
}

func TestCallContextCancellation(t *testing.T) {
	h := newFaultHarness(t)
	cl := h.client(t)
	ctx, cancel := context.WithCancel(bg)
	go func() {
		time.Sleep(20 * time.Millisecond)
		// Stall the connection so the call blocks, then cancel.
		cancel()
	}()
	// Exhaust the pipe: no server reads are pending, so a huge write
	// blocks... instead simply issue calls until cancellation lands.
	for {
		if err := cl.Ping(ctx); err != nil {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("canceled call returned %v", err)
			}
			return
		}
	}
}

func TestDegradedAppendSurfacesOverWire(t *testing.T) {
	dev := wodev.NewMem(wodev.MemOptions{BlockSize: 512, Capacity: 1 << 12})
	now := int64(0)
	svc, err := core.New(dev, core.Options{
		BlockSize: 512, Degree: 8,
		Now: func() int64 { now += 1000; return now },
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(svc)
	cConn, sConn := net.Pipe()
	go srv.ServeConn(sConn)
	cl := New(cConn)
	t.Cleanup(func() { cl.Close(); srv.Close(); svc.Close() })

	id, err := cl.CreateLog(bg, "/deg", 0, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.Damage(dev.Written(), nil); err != nil {
		t.Fatal(err)
	}
	ts, err := cl.Append(bg, id, []byte("x"), AppendOptions{Forced: true})
	if !IsDegraded(err) {
		t.Fatalf("append over damaged block: %v, want degraded", err)
	}
	var d *DegradedError
	if !errors.As(err, &d) || d.Timestamp != ts || ts == 0 {
		t.Fatalf("DegradedError.Timestamp=%v, ts=%d", d, ts)
	}
	// The entry is durable despite the warning.
	cur, err := cl.OpenCursor(bg, "/deg")
	if err != nil {
		t.Fatal(err)
	}
	e, err := cur.Next(bg)
	if err != nil || string(e.Data) != "x" {
		t.Fatalf("degraded entry read back: %v", err)
	}

	// The UIO Writer counts a degraded append as written: the entry is
	// durable, so a caller such as `clio append` goes on to the next line.
	if err := dev.Damage(dev.Written(), nil); err != nil {
		t.Fatal(err)
	}
	inval := dev.Stats().Invalidations
	w := NewWriter(bg, cl, id, AppendOptions{Forced: true})
	if n, err := w.Write([]byte("yz")); n != 2 || err != nil {
		t.Fatalf("Writer over a damaged block = %d, %v; want 2, nil", n, err)
	}
	if dev.Stats().Invalidations == inval {
		t.Fatal("the Writer's append met no damaged block; the case is vacuous")
	}
	if e, err = cur.Next(bg); err != nil || string(e.Data) != "yz" {
		t.Fatalf("Writer's degraded entry read back: %v, %+v", err, e)
	}
}

// TestIsDegradedNilAllocatesNothing: a successful append's nil error is
// answered without the errors.As probe, which would allocate.
func TestIsDegradedNilAllocatesNothing(t *testing.T) {
	if allocs := testing.AllocsPerRun(100, func() {
		if IsDegraded(nil) {
			t.Fatal("nil reported degraded")
		}
	}); allocs != 0 {
		t.Errorf("IsDegraded(nil) allocated %.1f times, want 0", allocs)
	}
	if !IsDegraded(fmt.Errorf("append: %w", &DegradedError{})) {
		t.Error("a wrapped degraded notice was not recognised")
	}
}
