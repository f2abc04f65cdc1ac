package server

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"clio/internal/core"
	"clio/internal/faults"
	"clio/internal/obs"
	"clio/internal/wire"
	"clio/internal/wodev"
)

// tracedRoundTrip sends one frame under an explicit trace ID and requires the
// response to echo it.
func tracedRoundTrip(t *testing.T, conn net.Conn, op byte, seq, trace uint64, payload []byte) (byte, []byte) {
	t.Helper()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if err := WriteFrame(conn, op, seq, trace, payload); err != nil {
		t.Fatal(err)
	}
	status, gotSeq, gotTrace, resp, err := ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if gotSeq != seq {
		t.Fatalf("response seq %d, want %d", gotSeq, seq)
	}
	if gotTrace != trace {
		t.Fatalf("response trace %d, want %d", gotTrace, trace)
	}
	return status, resp
}

// TestAdminEndToEnd drives the full observability path: a traced forced
// append through the wire protocol into a service without NVRAM (so the
// force seals to the device), then a scrape of the admin mux asserting that
// counters from every layer — core, cache, device, entrymap locator, fault
// registry, server — appear in /metrics, that /statusz renders, and that
// /tracez holds the append's spans across server dispatch, group commit and
// device write.
func TestAdminEndToEnd(t *testing.T) {
	dev := wodev.NewMem(wodev.MemOptions{BlockSize: 512, Capacity: 1 << 12})
	now := int64(0)
	svc, err := core.New(dev, core.Options{
		BlockSize: 512, Degree: 8,
		Now:    func() int64 { now += 1000; return now },
		Faults: faults.NewRegistry(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(svc)
	srv.Tracer = obs.NewTracer(32, 0) // zero threshold: every request is "slow"
	reg := obs.NewRegistry()
	svc.RegisterMetrics(reg)
	srv.RegisterMetrics(reg)
	obs.RegisterProcessMetrics(reg)

	cConn, sConn := net.Pipe()
	go srv.ServeConn(sConn)
	defer func() { cConn.Close(); srv.Close(); svc.Close() }()

	// Create a log, force-append under trace 99, then read it back.
	p := PutString(nil, "/obs")
	p = wire.PutUint16(p, 0o644)
	p = PutString(p, "test")
	status, resp := tracedRoundTrip(t, cConn, OpCreate, 0, 7, p)
	if status != StatusOK {
		t.Fatalf("create: status %d", status)
	}
	r := newReader(resp)
	id, err := r.Uvarint(), r.Err()
	if err != nil {
		t.Fatal(err)
	}
	ap := wire.PutUvarint(nil, id)
	ap = append(ap, AppendForced)
	ap = PutBytes(ap, []byte("observable entry"))
	if status, _ := tracedRoundTrip(t, cConn, OpAppend, 1, 99, ap); status != StatusOK {
		t.Fatalf("append: status %d", status)
	}
	status, resp = tracedRoundTrip(t, cConn, OpCursorOpen, 0, 0, PutString(nil, "/obs"))
	if status != StatusOK {
		t.Fatalf("cursor open: status %d", status)
	}
	handle, err := NewDecoder(resp).Uint32()
	if err != nil {
		t.Fatal(err)
	}
	if status, _ = tracedRoundTrip(t, cConn, OpNext, 0, 0, wire.PutUvarint(nil, uint64(handle))); status != StatusOK {
		t.Fatalf("next: status %d", status)
	}
	// Two more entries, read back by one batched request: three entries over
	// two next requests, the ratio the request counter alone cannot show.
	for _, data := range []string{"second", "third"} {
		p := PutBytes(append(wire.PutUvarint(nil, id), AppendForced), []byte(data))
		if status, _ := tracedRoundTrip(t, cConn, OpAppend, 0, 0, p); status != StatusOK {
			t.Fatalf("append %q: status %d", data, status)
		}
	}
	status, resp = tracedRoundTrip(t, cConn, OpNext, 0, 0, wire.PutUvarint(wire.PutUvarint(nil, uint64(handle)), 8))
	if entries, err := DecodeEntryBatch(newReader(resp)); status != StatusOK || err != nil || len(entries) != 2 {
		t.Fatalf("batched next: status %d, %d entries, %v", status, len(entries), err)
	}

	// The admin surface, as cliod -admin wires it.
	mux := obs.NewAdminMux(reg, srv.Tracer, func() any {
		return map[string]any{"core": svc.Status(), "server": srv.Status()}
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	res, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if ct := res.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	metrics := string(body)
	for _, want := range []string{
		"clio_core_entries_appended_total 3\n",
		"clio_core_forced_writes_total 3\n",
		`clio_server_requests_total{op="append"} 3`,
		`clio_server_requests_total{op="next"} 2`,
		`clio_server_cursor_entries_total{op="next"} 3`,
		`clio_server_requests_total{op="create"} 1`,
		"clio_cache_hits_total",
		"clio_wodev_reads_total",
		"clio_wodev_appends_total",
		"clio_entrymap_entries_examined_total",
		"# HELP clio_fault_point_hits_total",
		"clio_core_append_seconds_bucket{le=",
		"clio_core_force_seconds_count 3",
		"clio_server_request_seconds_bucket{le=",
		"clio_go_goroutines",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	res, err = http.Get(ts.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	var statusz struct {
		Core   core.ServiceStatus `json:"core"`
		Server ServerStatus       `json:"server"`
	}
	err = json.NewDecoder(res.Body).Decode(&statusz)
	res.Body.Close()
	if err != nil {
		t.Fatalf("/statusz does not parse: %v", err)
	}
	if statusz.Core.Stats.EntriesAppended != 3 || statusz.Core.BlockSize != 512 {
		t.Errorf("statusz core = %+v", statusz.Core)
	}
	if statusz.Server.Conns != 1 {
		t.Errorf("statusz server conns = %d, want 1", statusz.Server.Conns)
	}

	res, err = http.Get(ts.URL + "/tracez")
	if err != nil {
		t.Fatal(err)
	}
	var tracez struct {
		Recent []obs.TraceRecord `json:"recent"`
		Slow   []obs.TraceRecord `json:"slow"`
	}
	err = json.NewDecoder(res.Body).Decode(&tracez)
	res.Body.Close()
	if err != nil {
		t.Fatalf("/tracez does not parse: %v", err)
	}
	var appendTrace *obs.TraceRecord
	for i := range tracez.Slow {
		if tracez.Slow[i].ID == 99 {
			appendTrace = &tracez.Slow[i]
		}
	}
	if appendTrace == nil {
		t.Fatalf("traced append (id 99) not captured; slow ring = %+v", tracez.Slow)
	}
	if appendTrace.Op != "append" {
		t.Errorf("trace op = %q", appendTrace.Op)
	}
	names := map[string]bool{}
	for _, sp := range appendTrace.Spans {
		names[sp.Name] = true
	}
	for _, want := range []string{"server.dispatch", "core.group_commit", "wodev.write"} {
		if !names[want] {
			t.Errorf("trace missing span %q; have %+v", want, appendTrace.Spans)
		}
	}
}

// TestUntracedRequestsSkipTracer checks that trace ID 0 still works and that
// requests without a tracer pay no capture.
func TestUntracedRequestsSkipTracer(t *testing.T) {
	_, conn := testServer(t) // testServer sets no Tracer
	if status, _ := roundTrip(t, conn, OpPing, nil); status != StatusOK {
		t.Fatal("ping failed")
	}
}
