package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"clio/internal/core"
	"clio/internal/obs"
	"clio/internal/wire"
	"clio/internal/wodev"
)

func testServer(t *testing.T) (*Server, net.Conn) {
	t.Helper()
	dev := wodev.NewMem(wodev.MemOptions{BlockSize: 512, Capacity: 1 << 12})
	now := int64(0)
	svc, err := core.New(dev, core.Options{
		BlockSize: 512, Degree: 8,
		Now: func() int64 { now += 1000; return now },
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(svc)
	cConn, sConn := net.Pipe()
	go srv.ServeConn(sConn)
	t.Cleanup(func() { cConn.Close(); srv.Close(); svc.Close() })
	return srv, cConn
}

// roundTrip sends one raw frame (seq 0 = no duplicate suppression) and
// returns the response.
func roundTrip(t *testing.T, conn net.Conn, op byte, payload []byte) (byte, []byte) {
	t.Helper()
	return roundTripSeq(t, conn, op, 0, payload)
}

// roundTripSeq sends one raw frame under an explicit sequence number.
func roundTripSeq(t *testing.T, conn net.Conn, op byte, seq uint64, payload []byte) (byte, []byte) {
	t.Helper()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if err := WriteFrame(conn, op, seq, 0, payload); err != nil {
		t.Fatal(err)
	}
	status, gotSeq, _, resp, err := ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if gotSeq != seq {
		t.Fatalf("response seq %d, want %d", gotSeq, seq)
	}
	return status, resp
}

func TestMalformedPayloadsReturnErrors(t *testing.T) {
	_, conn := testServer(t)
	cases := []struct {
		name    string
		op      byte
		payload []byte
	}{
		{"unknown op", 200, nil},
		{"create empty", OpCreate, nil},
		{"create truncated", OpCreate, PutString(nil, "/x")},
		{"append no body", OpAppend, []byte{1}},
		{"append truncated data", OpAppend, append(wire.PutUvarint(nil, 4), 0, 255)},
		{"next bad handle varint", OpNext, []byte{0xFF}},
		{"next unknown handle", OpNext, wire.PutUvarint(nil, 999)},
		{"seek missing ts", OpSeekTime, wire.PutUvarint(nil, 1)},
		{"stat empty", OpStat, nil},
		{"readat empty", OpReadAt, nil},
	}
	for _, c := range cases {
		status, resp := roundTrip(t, conn, c.op, c.payload)
		if status != StatusErr {
			t.Errorf("%s: status %d, want error", c.name, status)
			continue
		}
		d := NewDecoder(resp)
		if msg, err := d.String(); err != nil || msg == "" {
			t.Errorf("%s: bad error message %q %v", c.name, msg, err)
		}
	}
	// The connection remains usable after every malformed request.
	if status, _ := roundTrip(t, conn, OpPing, nil); status != StatusOK {
		t.Error("connection dead after malformed requests")
	}
}

func TestServerCursorLifecycle(t *testing.T) {
	_, conn := testServer(t)
	p := PutString(nil, "/l")
	p = wire.PutUint16(p, 0)
	p = PutString(p, "")
	if status, _ := roundTrip(t, conn, OpCreate, p); status != StatusOK {
		t.Fatal("create failed")
	}
	status, resp := roundTrip(t, conn, OpCursorOpen, PutString(nil, "/l"))
	if status != StatusOK {
		t.Fatal("cursor open failed")
	}
	handle, err := NewDecoder(resp).Uint32()
	if err != nil {
		t.Fatal(err)
	}
	// Empty log: EOF.
	if status, _ := roundTrip(t, conn, OpNext, wire.PutUvarint(nil, uint64(handle))); status != StatusEOF {
		t.Errorf("Next on empty: %d", status)
	}
	// Close then reuse: error.
	if status, _ := roundTrip(t, conn, OpCursorEnd, wire.PutUvarint(nil, uint64(handle))); status != StatusOK {
		t.Error("cursor close failed")
	}
	status, resp = roundTrip(t, conn, OpNext, wire.PutUvarint(nil, uint64(handle)))
	if status != StatusErr {
		t.Errorf("Next after close: %d", status)
	}
	msg, _ := NewDecoder(resp).String()
	if !strings.Contains(msg, "unknown cursor") {
		t.Errorf("error = %q", msg)
	}
}

func TestServerCloseUnblocksServe(t *testing.T) {
	dev := wodev.NewMem(wodev.MemOptions{BlockSize: 512, Capacity: 256})
	now := int64(0)
	svc, err := core.New(dev, core.Options{BlockSize: 512, Degree: 8,
		Now: func() int64 { now += 1000; return now }})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	srv := New(svc)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after Close")
	}
	if err := srv.Serve(ln); err == nil {
		t.Error("Serve after Close accepted")
	}
}

func TestIdleConnectionDropped(t *testing.T) {
	// A half-open client that never sends a request must not pin a handler
	// goroutine forever: the idle read deadline drops it.
	dev := wodev.NewMem(wodev.MemOptions{BlockSize: 512, Capacity: 1 << 12})
	now := int64(0)
	svc, err := core.New(dev, core.Options{BlockSize: 512, Degree: 8,
		Now: func() int64 { now += 1000; return now }})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	srv := New(svc)
	srv.IdleTimeout = 50 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Send nothing. The server must close the connection: the next read
	// observes EOF instead of blocking forever.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("idle connection still open")
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("server never dropped the idle connection")
	}
}

func TestDuplicateSuppressionMakesAppendsIdempotent(t *testing.T) {
	_, conn := testServer(t)
	p := PutString(nil, "/dup")
	p = wire.PutUint16(p, 0)
	p = PutString(p, "")
	status, resp := roundTripSeq(t, conn, OpCreate, 1, p)
	if status != StatusOK {
		t.Fatal("create failed")
	}
	id := newReader(resp).Uvarint()

	ap := wire.PutUvarint(nil, id)
	ap = append(ap, AppendForced)
	ap = PutBytes(ap, []byte("once"))
	status, resp = roundTripSeq(t, conn, OpAppend, 2, ap)
	if status != StatusOK {
		t.Fatalf("append: status %d", status)
	}
	ts1 := newReader(resp).Int64()

	// Replaying the exact same request under the same seq must return the
	// cached response, not execute a second append.
	status, resp = roundTripSeq(t, conn, OpAppend, 2, ap)
	if status != StatusOK {
		t.Fatalf("replay: status %d", status)
	}
	ts2 := newReader(resp).Int64()
	if ts1 != ts2 {
		t.Fatalf("replay returned ts %d, original %d", ts2, ts1)
	}
	status, resp = roundTrip(t, conn, OpStats, nil)
	if status != StatusOK {
		t.Fatal("stats failed")
	}
	entries := newReader(resp).Int64()
	if entries != 1 {
		t.Fatalf("server holds %d entries after replay, want 1", entries)
	}
}

func TestDuplicateSuppressionCoversCursorAdvance(t *testing.T) {
	_, conn := testServer(t)
	p := PutString(nil, "/cur")
	p = wire.PutUint16(p, 0)
	p = PutString(p, "")
	if status, _ := roundTripSeq(t, conn, OpCreate, 1, p); status != StatusOK {
		t.Fatal("create failed")
	}
	status, resp := roundTrip(t, conn, OpResolve, PutString(nil, "/cur"))
	if status != StatusOK {
		t.Fatal("resolve failed")
	}
	id := newReader(resp).Uvarint()
	for i, payload := range []string{"a", "b"} {
		ap := wire.PutUvarint(nil, id)
		ap = append(ap, AppendForced)
		ap = PutBytes(ap, []byte(payload))
		if status, _ := roundTripSeq(t, conn, OpAppend, uint64(10+i), ap); status != StatusOK {
			t.Fatal("append failed")
		}
	}
	status, resp = roundTripSeq(t, conn, OpCursorOpen, 20, PutString(nil, "/cur"))
	if status != StatusOK {
		t.Fatal("cursor open failed")
	}
	handle, _ := NewDecoder(resp).Uint32()
	hb := wire.PutUvarint(nil, uint64(handle))

	// A replayed OpNext must NOT advance the cursor twice.
	status, resp = roundTripSeq(t, conn, OpNext, 21, hb)
	if status != StatusOK {
		t.Fatalf("next: %d", status)
	}
	first := decodeEntryData(t, resp)
	status, resp = roundTripSeq(t, conn, OpNext, 21, hb) // replay
	if status != StatusOK || decodeEntryData(t, resp) != first {
		t.Fatal("replayed Next returned a different entry")
	}
	status, resp = roundTripSeq(t, conn, OpNext, 22, hb)
	if status != StatusOK {
		t.Fatalf("second next: %d", status)
	}
	if got := decodeEntryData(t, resp); got != "b" {
		t.Fatalf("cursor advanced wrongly under replay: got %q, want \"b\"", got)
	}
}

// cursorFixture creates /scan holding n forced entries "e000".."e<n-1>"
// (with pad appended to each) and opens a cursor on it, returning the handle
// payload.
func cursorFixture(t *testing.T, conn net.Conn, n int, pad string) []byte {
	t.Helper()
	p := PutString(nil, "/scan")
	p = wire.PutUint16(p, 0)
	p = PutString(p, "")
	status, resp := roundTrip(t, conn, OpCreate, p)
	if status != StatusOK {
		t.Fatal("create failed")
	}
	id := newReader(resp).Uvarint()
	for i := 0; i < n; i++ {
		ap := wire.PutUvarint(nil, id)
		ap = append(ap, AppendTimestamped) // one effective timestamp each: seek targets
		ap = PutBytes(ap, []byte(fmt.Sprintf("e%03d%s", i, pad)))
		if status, _ := roundTrip(t, conn, OpAppend, ap); status != StatusOK {
			t.Fatal("append failed")
		}
	}
	status, resp = roundTrip(t, conn, OpCursorOpen, PutString(nil, "/scan"))
	if status != StatusOK {
		t.Fatal("cursor open failed")
	}
	handle, _ := NewDecoder(resp).Uint32()
	return wire.PutUvarint(nil, uint64(handle))
}

// batchData decodes a batched OpNext response into its entries' data.
func batchData(t *testing.T, resp []byte) []string {
	t.Helper()
	entries, err := DecodeEntryBatch(newReader(resp))
	if err != nil {
		t.Fatalf("decode batch: %v", err)
	}
	out := make([]string, len(entries))
	for i, e := range entries {
		out[i] = string(e.Data)
	}
	return out
}

// TestBareCursorStepKeepsItsBytes pins the wire compatibility the benchmark's
// hand-written frames depend on: OpNext and OpPrev with a bare handle answer
// with exactly one entry in the entry-response layout — no count, nothing
// after the data — and OpSeekTime with handle and timestamp alone answers
// with an empty payload and reads nothing, whatever the batched forms do.
func TestBareCursorStepKeepsItsBytes(t *testing.T) {
	srv, conn := testServer(t)
	hb := cursorFixture(t, conn, 3, "")
	ref, err := srv.store.OpenCursor(context.Background(), "/scan")
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range []byte{OpNext, OpNext, OpPrev, OpNext, OpNext} {
		step := ref.Next
		if op == OpPrev {
			step = ref.Prev
		}
		want, err := step(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		status, resp := roundTrip(t, conn, op, hb)
		if status != StatusOK || !bytes.Equal(resp, EncodeEntry(want)) {
			t.Fatalf("op %d: status %d, payload %x, want exactly %x", op, status, resp, EncodeEntry(want))
		}
	}
	if status, resp := roundTrip(t, conn, OpNext, hb); status != StatusEOF || len(resp) != 0 {
		t.Fatalf("bare Next at the end: status %d, %d payload bytes", status, len(resp))
	}
	// The bare seek: positioned on the last entry, which the Next after it
	// (not the seek) delivers.
	last, err := ref.Prev(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	seek := wire.PutUint64(append([]byte(nil), hb...), uint64(last.Timestamp))
	if status, resp := roundTrip(t, conn, OpSeekTime, seek); status != StatusOK || len(resp) != 0 {
		t.Fatalf("bare SeekTime: status %d, payload %x, want OK and nothing", status, resp)
	}
	if status, resp := roundTrip(t, conn, OpNext, hb); status != StatusOK || !bytes.Equal(resp, EncodeEntry(last)) {
		t.Fatalf("Next after bare SeekTime: status %d, payload %x, want exactly %x", status, resp, EncodeEntry(last))
	}
}

// TestFusedSeekTime covers OpSeekTime's read-ahead form: the trailing want
// makes the answer the batch a Next(want) right after the seek would have
// returned; a replay is answered byte for byte from the dedup window without
// a second seek or step; and a seek that finds nothing to read ahead — the
// end of the log — is answered as the bare seek is, so nothing stale can sit
// in a client's buffer.
func TestFusedSeekTime(t *testing.T) {
	srv, conn := testServer(t)
	reg := obs.NewRegistry()
	srv.RegisterMetrics(reg)
	const n = 12
	hb := cursorFixture(t, conn, n, "")
	ref, err := srv.store.OpenCursor(context.Background(), "/scan")
	if err != nil {
		t.Fatal(err)
	}
	var stamps []int64
	for {
		e, err := ref.Next(context.Background())
		if err != nil {
			break
		}
		stamps = append(stamps, e.Timestamp)
	}
	if len(stamps) != n {
		t.Fatalf("fixture holds %d entries, want %d", len(stamps), n)
	}
	seek := func(seq uint64, ts int64, want uint64) (byte, []byte) {
		p := wire.PutUint64(append([]byte(nil), hb...), uint64(ts))
		return roundTripSeq(t, conn, OpSeekTime, seq, wire.PutUvarint(p, want))
	}
	nextData := func() string {
		t.Helper()
		status, resp := roundTrip(t, conn, OpNext, hb)
		if status != StatusOK {
			t.Fatalf("Next: status %d", status)
		}
		return decodeEntryData(t, resp)
	}

	// want=1, between two entries: the first entry at or after ts.
	status, resp := seek(200, stamps[4]-1, 1)
	if got := batchData(t, resp); status != StatusOK || fmt.Sprint(got) != "[e004]" {
		t.Fatalf("fused seek: status %d, %v", status, got)
	}
	// The lost-response case: the replay is the recorded answer itself, and
	// the server cursor has moved over e004 once, not twice.
	if status2, resp2 := seek(200, stamps[4]-1, 1); status2 != status || !bytes.Equal(resp2, resp) {
		t.Fatalf("replayed fused seek differs: status %d, %x vs %x", status2, resp2, resp)
	}
	if got := nextData(); got != "e005" {
		t.Fatalf("Next after a replayed fused seek returned %q, want e005", got)
	}
	// A larger want is a larger batch, cut at the end of the log without an
	// EOF; want=0 still reads one.
	status, resp = seek(201, stamps[n-3], 50)
	if got := batchData(t, resp); status != StatusOK || fmt.Sprint(got) != "[e009 e010 e011]" {
		t.Fatalf("fused seek near the end: status %d, %v", status, got)
	}
	status, resp = seek(202, stamps[0], 0)
	if got := batchData(t, resp); status != StatusOK || fmt.Sprint(got) != "[e000]" {
		t.Fatalf("fused seek, want=0: status %d, %v", status, got)
	}
	seekEntries := reg.Counter("clio_server_cursor_entries_total", "", obs.L("op", "seek_time"))
	nextEntries := reg.Counter("clio_server_cursor_entries_total", "", obs.L("op", "next"))
	if s, nx := seekEntries.Value(), nextEntries.Value(); s != 1+3+1 || nx != 1 {
		t.Fatalf("entries counted: %d by seeks, %d by nexts; want 5 and 1", s, nx)
	}

	// Past the end there is nothing to read ahead: the seek is answered
	// bare, and an entry acknowledged afterwards is what Next returns.
	if status, resp = seek(203, stamps[n-1]+1, 1); status != StatusOK || len(resp) != 0 {
		t.Fatalf("fused seek past the end: status %d, payload %x, want OK and nothing", status, resp)
	}
	status, resp = roundTrip(t, conn, OpResolve, PutString(nil, "/scan"))
	if status != StatusOK {
		t.Fatal("resolve failed")
	}
	id := newReader(resp).Uvarint()
	if status, _ := roundTrip(t, conn, OpAppend, PutBytes(append(wire.PutUvarint(nil, id), AppendForced), []byte("late"))); status != StatusOK {
		t.Fatal("append failed")
	}
	if got := nextData(); got != "late" {
		t.Fatalf("Next after a seek past the end and an append returned %q, want the appended entry", got)
	}

	// Malformed want: refused before the cursor moves.
	bad := append(wire.PutUint64(append([]byte(nil), hb...), uint64(stamps[0])), 0x80)
	if status, _ := roundTrip(t, conn, OpSeekTime, bad); status != StatusErr {
		t.Fatalf("truncated want: status %d", status)
	}
	if status, resp := roundTrip(t, conn, OpNext, hb); status != StatusEOF {
		t.Fatalf("cursor moved by a refused seek: status %d, %x", status, resp)
	}
}

// TestFillEntriesStepFailure pins what the fill loop makes of a step that
// fails. Before any entry it is the answer (EOF or the error), which the
// fused seek turns into its bare answer; after one it only ends the batch.
// The store never fails a Next that follows a successful seek short of
// being closed, so the loop is driven directly.
func TestFillEntriesStepFailure(t *testing.T) {
	boom := errors.New("boom")
	steps := func(errAt int, err error) func(context.Context) (*core.Entry, error) {
		i := 0
		return func(context.Context) (*core.Entry, error) {
			if i++; i > errAt {
				return nil, err
			}
			return &core.Entry{LogID: 7, Timestamp: int64(i), Data: []byte{byte('a' + i)}}, nil
		}
	}
	for _, failure := range []error{io.EOF, boom} {
		wantStatus := byte(StatusErr)
		if failure == io.EOF {
			wantStatus = StatusEOF
		}
		if rep := fillEntries(context.Background(), steps(0, failure), true, 4, nil); rep.status != wantStatus {
			t.Errorf("%v before any entry: status %d, want %d", failure, rep.status, wantStatus)
		}
		rep := fillEntries(context.Background(), steps(2, failure), true, 4, nil)
		if got := batchData(t, rep.head); rep.status != StatusOK || len(got) != 2 {
			t.Errorf("%v after two entries: status %d, %d entries; want a batch of 2", failure, rep.status, len(got))
		}
	}
}

// TestBatchedNext covers the read-ahead form's contract: up to want entries,
// the server's entry cap, the end of the log ending a batch early without
// being part of it, and a replay answered byte for byte from the dedup
// window without a second advance.
func TestBatchedNext(t *testing.T) {
	_, conn := testServer(t)
	const n = MaxBatchEntries + 10
	hb := cursorFixture(t, conn, n, "")
	next := func(seq, want uint64) (byte, []byte) {
		return roundTripSeq(t, conn, OpNext, seq, wire.PutUvarint(append([]byte(nil), hb...), want))
	}

	status, resp := next(100, 3)
	if got := batchData(t, resp); status != StatusOK || fmt.Sprint(got) != "[e000 e001 e002]" {
		t.Fatalf("want=3: status %d, %v", status, got)
	}
	// The replay is the recorded response itself, and the cursor stays put.
	if status2, resp2 := next(100, 3); status2 != status || !bytes.Equal(resp2, resp) {
		t.Fatalf("replayed batch differs: status %d, %x vs %x", status2, resp2, resp)
	}
	// want=0 still returns one entry; the next request continues after it.
	status, resp = next(101, 0)
	if got := batchData(t, resp); status != StatusOK || fmt.Sprint(got) != "[e003]" {
		t.Fatalf("want=0: status %d, %v", status, got)
	}
	// A huge want is cut to the server's cap.
	status, resp = next(102, 1<<40)
	got := batchData(t, resp)
	if status != StatusOK || len(got) != MaxBatchEntries || got[0] != "e004" {
		t.Fatalf("want=2^40: status %d, %d entries from %q", status, len(got), got[0])
	}
	// The log ends inside this batch: the batch stops there, without an EOF.
	status, resp = next(103, 50)
	got = batchData(t, resp)
	if status != StatusOK || len(got) != n-4-MaxBatchEntries || got[len(got)-1] != fmt.Sprintf("e%03d", n-1) {
		t.Fatalf("tail batch: status %d, %v", status, got)
	}
	// Only a request that finds nothing reports the end.
	if status, resp = next(104, 50); status != StatusEOF || len(resp) != 0 {
		t.Fatalf("at the end: status %d, %d payload bytes", status, len(resp))
	}
}

// TestBatchCountOldClientWant: a client built for a 64-entry cap asks for
// at most 64 and gets at most 64, behind the one-byte count it reads.
func TestBatchCountOldClientWant(t *testing.T) {
	_, conn := testServer(t)
	const oldCap = 64
	hb := cursorFixture(t, conn, oldCap+20, "")
	status, resp := roundTrip(t, conn, OpNext, wire.PutUvarint(append([]byte(nil), hb...), oldCap))
	if got := batchData(t, resp); status != StatusOK || len(got) != oldCap || resp[0] != oldCap {
		t.Fatalf("want=%d: status %d, %d entries, count byte %d", oldCap, status, len(got), resp[0])
	}
	status, resp = roundTrip(t, conn, OpNext, wire.PutUvarint(append([]byte(nil), hb...), oldCap))
	if got := batchData(t, resp); status != StatusOK || len(got) != 20 || got[0] != fmt.Sprintf("e%03d", oldCap) {
		t.Fatalf("the rest: status %d, %v", status, got)
	}
}

// TestBatchedNextByteBudget: a batch stops taking entries once it holds
// MaxBatchBytes, so it overshoots by less than one entry.
func TestBatchedNextByteBudget(t *testing.T) {
	_, conn := testServer(t)
	pad := strings.Repeat("x", 1000)
	n := 2 * MaxBatchBytes / len(pad) // two budgets' worth
	hb := cursorFixture(t, conn, n, pad)
	status, resp := roundTrip(t, conn, OpNext, wire.PutUvarint(append([]byte(nil), hb...), MaxBatchEntries))
	got := batchData(t, resp)
	if status != StatusOK || len(got) < 2 || len(got) >= n {
		t.Fatalf("status %d, %d entries", status, len(got))
	}
	if len(resp) < MaxBatchBytes || len(resp) >= MaxBatchBytes+len(pad)+64 {
		t.Fatalf("batch is %d bytes for a %d-byte budget and ~%d-byte entries", len(resp), MaxBatchBytes, len(pad))
	}
	if status, resp = roundTrip(t, conn, OpNext, hb); status != StatusOK ||
		decodeEntryData(t, resp) != fmt.Sprintf("e%03d%s", len(got), pad) {
		t.Fatal("the entry after a budget-limited batch is not the next one")
	}
}

// TestPrevStepsBackOverReadAhead: OpPrev's second field is the number of
// entries the client read ahead and never consumed; the server steps back
// over them before the Prev it answers.
func TestPrevStepsBackOverReadAhead(t *testing.T) {
	_, conn := testServer(t)
	hb := cursorFixture(t, conn, 20, "")
	status, resp := roundTrip(t, conn, OpNext, wire.PutUvarint(append([]byte(nil), hb...), 8))
	if status != StatusOK || len(batchData(t, resp)) != 8 {
		t.Fatal("batch of 8 failed")
	}
	// The client consumed e000..e002 and holds e003..e007: Prev is e002.
	status, resp = roundTrip(t, conn, OpPrev, wire.PutUvarint(append([]byte(nil), hb...), 5))
	if status != StatusOK || decodeEntryData(t, resp) != "e002" {
		t.Fatalf("Prev after stepping back 5: status %d", status)
	}
	if status, resp = roundTrip(t, conn, OpNext, hb); status != StatusOK || decodeEntryData(t, resp) != "e002" {
		t.Fatal("cursor not left just before e002")
	}
	// Stepping back further than the log reaches is an error, not an EOF;
	// further than any batch, it is refused before the cursor moves.
	status, resp = roundTrip(t, conn, OpPrev, wire.PutUvarint(append([]byte(nil), hb...), 9))
	msg, _ := NewDecoder(resp).String()
	if status != StatusErr || !strings.Contains(msg, "stepping back") {
		t.Fatalf("over-long step back: status %d, %q", status, msg)
	}
	status, resp = roundTrip(t, conn, OpPrev, wire.PutUvarint(append([]byte(nil), hb...), 1<<50))
	msg, _ = NewDecoder(resp).String()
	if status != StatusErr || !strings.Contains(msg, "a batch holds") {
		t.Fatalf("absurd step back: status %d, %q", status, msg)
	}
}

// TestDedupWindowByteBudget: the window holds at most MaxBatchBytes of payload
// whatever the responses' size, always keeps the newest, and answers an
// evicted seq with the explicit error instead of re-executing.
func TestDedupWindowByteBudget(t *testing.T) {
	ss := newSession(1)
	big := make([]byte, MaxBatchBytes/4)
	for seq := uint64(1); seq <= 10; seq++ {
		ss.record(seq, StatusOK, big)
	}
	if ss.retained > MaxBatchBytes || ss.retained != len(ss.window)*len(big) || len(ss.window) != 4 {
		t.Fatalf("window holds %d responses, %d bytes accounted", len(ss.window), ss.retained)
	}
	if _, seen, stale := ss.lookup(10); !seen || stale {
		t.Fatal("newest response not retained")
	}
	if _, seen, stale := ss.lookup(6); seen || !stale {
		t.Fatalf("evicted seq: seen=%v stale=%v, want the stale answer", seen, stale)
	}
	// One response larger than the whole budget is still kept — alone.
	ss.record(11, StatusOK, make([]byte, 2*MaxBatchBytes))
	if _, seen, _ := ss.lookup(11); !seen || len(ss.window) != 1 || ss.retained != 2*MaxBatchBytes {
		t.Fatalf("oversize response: window %d, %d bytes accounted", len(ss.window), ss.retained)
	}
	// Re-recording a seq replaces its bytes instead of counting them twice.
	ss.record(11, StatusOK, big)
	if ss.retained != len(big) || len(ss.order) != 1 {
		t.Fatalf("re-record: %d bytes accounted, order %v", ss.retained, ss.order)
	}
	// The count bound still holds for small responses.
	for seq := uint64(12); seq < 12+2*dedupWindow; seq++ {
		ss.record(seq, StatusOK, []byte{1})
	}
	if len(ss.window) != dedupWindow || len(ss.order) != dedupWindow {
		t.Fatalf("window holds %d responses, want %d", len(ss.window), dedupWindow)
	}

	// A handoff goes through the same accounting: what one table exports,
	// another installs under the same two bounds.
	src, dst := NewSessions(), NewSessions()
	for seq := uint64(1); seq <= 10; seq++ {
		src.Record(9, seq, StatusOK, big)
	}
	dst.Install(src.Export(0))
	got := dst.m[9]
	if got == nil || dst.MaxSeq(9) != 10 || len(got.window) != 4 || got.retained != 4*len(big) {
		t.Fatalf("installed session: present=%v maxSeq=%d window=%d retained=%d", got != nil, dst.MaxSeq(9), len(got.window), got.retained)
	}
	dst.Install(src.Export(0)) // idempotent
	if len(got.window) != 4 || got.retained != 4*len(big) {
		t.Fatalf("re-install changed the window: %d responses, %d bytes", len(got.window), got.retained)
	}
}

func decodeEntryData(t *testing.T, resp []byte) string {
	t.Helper()
	e, err := DecodeEntry(newReader(resp))
	if err != nil {
		t.Fatalf("decode entry: %v", err)
	}
	return string(e.Data)
}

func TestHelloReportsEpochAndSessionSurvivesReconnect(t *testing.T) {
	srv, conn := testServer(t)
	hello := wire.PutUint64(nil, 42)
	status, resp := roundTrip(t, conn, OpHello, hello)
	if status != StatusOK {
		t.Fatal("hello failed")
	}
	d := newReader(resp)
	epoch := d.Uint64()
	if epoch != srv.Epoch() {
		t.Fatalf("hello epoch %d, server epoch %d", epoch, srv.Epoch())
	}
	maxSeq := d.Uint64()
	if maxSeq != 0 {
		t.Fatalf("fresh session maxSeq = %d", maxSeq)
	}
	// Run one sequenced request, then "reconnect" on a new conn: the
	// session must remember maxSeq.
	p := PutString(nil, "/s")
	p = wire.PutUint16(p, 0)
	p = PutString(p, "")
	if status, _ := roundTripSeq(t, conn, OpCreate, 7, p); status != StatusOK {
		t.Fatal("create failed")
	}
	c2, s2 := net.Pipe()
	go srv.ServeConn(s2)
	defer c2.Close()
	status, resp = roundTrip(t, c2, OpHello, hello)
	if status != StatusOK {
		t.Fatal("hello on second conn failed")
	}
	d = newReader(resp)
	d.Uint64()
	maxSeq = d.Uint64()
	if maxSeq != 7 {
		t.Fatalf("session maxSeq after reconnect = %d, want 7", maxSeq)
	}
}

func TestDegradedAppendStatus(t *testing.T) {
	dev := wodev.NewMem(wodev.MemOptions{BlockSize: 512, Capacity: 1 << 12})
	now := int64(0)
	svc, err := core.New(dev, core.Options{BlockSize: 512, Degree: 8,
		Now: func() int64 { now += 1000; return now }})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(svc)
	cConn, sConn := net.Pipe()
	go srv.ServeConn(sConn)
	t.Cleanup(func() { cConn.Close(); srv.Close(); svc.Close() })

	p := PutString(nil, "/deg")
	p = wire.PutUint16(p, 0)
	p = PutString(p, "")
	status, resp := roundTrip(t, cConn, OpCreate, p)
	if status != StatusOK {
		t.Fatal("create failed")
	}
	id := newReader(resp).Uvarint()
	// Damage the next unwritten block: the append completes degraded.
	if err := dev.Damage(dev.Written(), nil); err != nil {
		t.Fatal(err)
	}
	ap := wire.PutUvarint(nil, id)
	ap = append(ap, AppendForced)
	ap = PutBytes(ap, []byte("x"))
	status, resp = roundTrip(t, cConn, OpAppend, ap)
	if status != StatusDegraded {
		t.Fatalf("append over damaged block: status %d, want StatusDegraded", status)
	}
	if ts := newReader(resp).Int64(); ts == 0 {
		t.Fatal("degraded append carried no timestamp")
	}
}
