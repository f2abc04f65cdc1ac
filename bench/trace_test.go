package main

import (
	"io"
	"net"
	"testing"
	"time"

	"clio/internal/core"
)

// Self time is the span minus what its children cover: overlapping
// children count once, a child is clipped to its parent, grandchildren
// come off their own parent only.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Layer: "client", Start: 0, End: 100},
		{ID: 2, Parent: 1, Layer: "net", Start: 10, End: 90},
		{ID: 3, Parent: 2, Layer: "server", Start: 20, End: 70},
		{ID: 4, Parent: 3, Layer: "nvram.store", Start: 30, End: 50},
		{ID: 5, Parent: 3, Layer: "wodev.append", Start: 40, End: 60}, // overlaps 4
		{ID: 6, Parent: 3, Layer: "wodev.append", Start: 65, End: 80}, // runs past its parent
		{ID: 7, Layer: "wodev.read", Start: 200, End: 210},            // no parent
	}
	want := map[int]int64{1: 20, 2: 30, 3: 50 - 30 - 5, 4: 20, 5: 20, 6: 15, 7: 10}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, got[id], w)
		}
	}
}

func TestAdoptLinksByLaneAndContainment(t *testing.T) {
	spans := []span{
		{ID: 1, Layer: "client", Req: 0<<32 | 0, Start: 0, End: 100},
		{ID: 2, Layer: "client", Req: 0<<32 | 1, Start: 100, End: 200},
		{ID: 3, Layer: "client", Req: 1<<32 | 0, Start: 0, End: 300},
		{ID: 4, Layer: "net", Req: 0<<32 | 7, Start: 110, End: 190}, // lane 0, inside span 2
		{ID: 5, Layer: "net", Req: 1<<32 | 7, Start: 110, End: 190}, // lane 1, inside span 3
		{ID: 6, Layer: "net", Req: 0<<32 | 8, Start: 150, End: 250}, // straddles: no parent
	}
	adopt(spans, "client", "net")
	if spans[3].Parent != 2 || spans[3].Req != 0<<32|1 {
		t.Errorf("lane 0 net span got parent %d req %#x, want 2 and its parent's request", spans[3].Parent, spans[3].Req)
	}
	if spans[4].Parent != 3 {
		t.Errorf("lane 1 net span got parent %d, want 3", spans[4].Parent)
	}
	if spans[5].Parent != 0 {
		t.Errorf("a span no parent contains was adopted by %d", spans[5].Parent)
	}
}

// The NVRAM wrapper must still be a StagingNVRAM, or a traced store would
// silently run without the seal pipeline that cliod has.
func TestNVRAMWrapperKeepsStaging(t *testing.T) {
	tr := newTracer()
	var nv core.NVRAM = &tracedNVRAM{StagingNVRAM: core.NewMemNVRAM(), tr: tr}
	st, ok := nv.(core.StagingNVRAM)
	if !ok {
		t.Fatal("tracedNVRAM does not implement core.StagingNVRAM")
	}
	if err := st.Store(3, []byte("tail")); err != nil {
		t.Fatal(err)
	}
	if err := st.StoreSealed(2, []byte("sealed")); err != nil {
		t.Fatal(err)
	}
	if g, img, _ := st.Load(); g != 3 || string(img) != "tail" {
		t.Errorf("Load through the wrapper = %d %q", g, img)
	}
	if gs, _, _ := st.LoadSealed(); len(gs) != 1 || gs[0] != 2 {
		t.Errorf("LoadSealed through the wrapper = %v", gs)
	}
	w := nv.(*tracedNVRAM)
	if w.stores.calls.Load() != 2 || len(tr.spans) != 2 {
		t.Errorf("wrapper counted %d stores and %d spans, want 2 and 2", w.stores.calls.Load(), len(tr.spans))
	}
}

// One request/response over a pipe: each end must record exactly one
// cycle, the server's inside the client's, with the Write calls counted.
func TestConnCyclesPairUp(t *testing.T) {
	tr := newTracer()
	a, b := net.Pipe()
	lane := func() (uint64, bool) { return 5, true }
	cli := &tracedConn{Conn: a, tr: tr, layer: "net", client: true, lane: lane}
	srv := &tracedConn{Conn: b, tr: tr, layer: "server", lane: lane}
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 8)
		for round := 0; round < 2; round++ {
			io.ReadFull(srv, buf[:4]) // header, then body: two reads
			io.ReadFull(srv, buf[4:])
			time.Sleep(2 * time.Millisecond) // "work"
			srv.Write([]byte("re"))
			srv.Write([]byte("ply"))
		}
		srv.Close()
	}()
	buf := make([]byte, 5)
	for round := 0; round < 2; round++ {
		cli.Write([]byte("requests"))
		io.ReadFull(cli, buf)
	}
	cli.Close()
	<-done
	var nets, servers []span
	for _, s := range tr.spans {
		if s.Layer == "net" {
			nets = append(nets, s)
		} else {
			servers = append(servers, s)
		}
	}
	if len(nets) != 2 || len(servers) != 2 {
		t.Fatalf("recorded %d client-end and %d server-end cycles, want 2 and 2", len(nets), len(servers))
	}
	for i := range nets {
		n, s := nets[i], servers[i]
		if n.Req != 5<<32|uint64(i) || s.Req != n.Req {
			t.Errorf("cycle %d: requests %#x and %#x, want lane 5 index %d on both ends", i, n.Req, s.Req, i)
		}
		if s.Start < n.Start || s.End > n.End+int64(time.Millisecond) { // a pipe hands over at the same instant
			t.Errorf("cycle %d: server span [%d,%d] not inside the client's wire span [%d,%d]", i, s.Start, s.End, n.Start, n.End)
		}
		if s.dur() < int64(2*time.Millisecond) {
			t.Errorf("cycle %d: server span %d ns misses the 2 ms of work", i, s.dur())
		}
		if n.Calls != 1 || n.Bytes != 8 || s.Calls != 2 || s.Bytes != 5 {
			t.Errorf("cycle %d: client wrote %d calls/%d B, server %d calls/%d B; want 1/8 and 2/5", i, n.Calls, n.Bytes, s.Calls, s.Bytes)
		}
	}
}
