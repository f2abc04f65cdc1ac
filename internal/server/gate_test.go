package server

import (
	"testing"

	"clio/internal/wire"
)

// TestGateDurable: the gate is told which responses promise durability.
// Only an unforced append's success does not; its failure, a forced
// append, a force and a catalog op do.
func TestGateDurable(t *testing.T) {
	srv, conn := testServer(t)
	type call struct {
		op      byte
		status  byte
		durable bool
	}
	var calls []call
	srv.Gate = func(op byte, session, seq uint64, status byte, resp []byte, durable bool, _ func(uint64)) (byte, []byte, bool) {
		calls = append(calls, call{op, status, durable})
		return status, resp, true
	}
	r := newReader(mustOK(t, conn, OpCreate, createPayload("/d")))
	id := r.Uvarint()
	unforced := func(id uint64) []byte {
		return PutBytes(append(wire.PutUvarint(nil, id), 0), []byte("x"))
	}
	mustOK(t, conn, OpAppend, appendPayload(id, "forced"))
	mustOK(t, conn, OpAppend, unforced(id))
	multi := append(wire.PutUvarint(nil, 1), wire.PutUvarint(nil, id)...)
	mustOK(t, conn, OpAppendMulti, PutBytes(append(multi, 0), []byte("y")))
	mustOK(t, conn, OpForce, nil)
	if status, _ := roundTrip(t, conn, OpAppend, unforced(id+100)); status != StatusErr {
		t.Fatalf("unforced append to a missing log: status %d, want StatusErr", status)
	}
	want := []call{
		{OpCreate, StatusOK, true},
		{OpAppend, StatusOK, true},
		{OpAppend, StatusOK, false},
		{OpAppendMulti, StatusOK, false},
		{OpForce, StatusOK, true},
		{OpAppend, StatusErr, true},
	}
	if len(calls) != len(want) {
		t.Fatalf("gate saw %+v, want %+v", calls, want)
	}
	for i := range want {
		if calls[i] != want[i] {
			t.Errorf("gate call %d = %+v, want %+v", i, calls[i], want[i])
		}
	}
}

// TestExportGatedResponseAtOrBelowBase: while a response is inside the
// gate, Sessions.Export hands it out as recorded only to a follower whose
// base covers the stream position the gate shipped its record at: that
// follower is handed no frame for it, and the record is not in the table
// yet. Before the gate ships it, or to a follower whose base lies below
// it, the response is not exported; the follower gets it as its stream
// frame. A response the gate vetoes is exported no more once the gate
// returns.
func TestExportGatedResponseAtOrBelowBase(t *testing.T) {
	srv, conn := testServer(t)
	entered := make(chan struct{}, 2) // never blocks the gate, even once the test failed
	ship := make(chan uint64)
	release := make(chan bool)
	t.Cleanup(func() { close(ship); close(release) }) // a gate still waiting when the test fails vetoes
	srv.Gate = func(op byte, session, seq uint64, status byte, resp []byte, durable bool, emitted func(uint64)) (byte, []byte, bool) {
		if op != OpAppend {
			return status, resp, true
		}
		entered <- struct{}{}
		if pos := <-ship; pos != 0 {
			emitted(pos)
		}
		entered <- struct{}{}
		if ok := <-release; !ok {
			return StatusErr, PutString(nil, "quorum not reached"), false
		}
		return status, resp, true
	}
	mustOK(t, conn, OpHello, wire.Hello{Session: 9}.Encode(nil))
	status, resp := roundTripSeq(t, conn, OpCreate, 1, createPayload("/g"))
	if status != StatusOK {
		t.Fatalf("create: status %d", status)
	}
	id := newReader(resp).Uvarint()

	check := func(what string, upTo, wantMax uint64, want ...uint64) {
		t.Helper()
		var maxSeq uint64
		var seqs []uint64
		for _, st := range srv.Sessions.Export(upTo) {
			if st.ID == 9 {
				maxSeq = st.MaxSeq
				for _, r := range st.Resps {
					seqs = append(seqs, r.Seq)
				}
			}
		}
		if maxSeq != wantMax || len(seqs) != len(want) {
			t.Fatalf("%s, base %d: exported max seq %d, seqs %v; want %d, %v", what, upTo, maxSeq, seqs, wantMax, want)
		}
		for i := range want {
			if seqs[i] != want[i] {
				t.Fatalf("%s, base %d: exported seqs %v, want %v", what, upTo, seqs, want)
			}
		}
	}

	for _, c := range []struct {
		seq, pos uint64
		pass     bool
	}{{2, 10, true}, {3, 20, false}} {
		if err := WriteFrame(conn, OpAppend, c.seq, 0, appendPayload(id, "gated")); err != nil {
			t.Fatal(err)
		}
		recorded := []uint64{1, 2}[:c.seq-1] // what the window holds before
		<-entered
		check("inside the gate, not shipped", c.pos, c.seq-1, recorded...)
		ship <- c.pos
		<-entered
		check("shipped above the base", c.pos-1, c.seq-1, recorded...)
		check("shipped at the base", c.pos, c.seq, append(recorded, c.seq)...)
		check("shipped below the base", c.pos+1, c.seq, append(recorded, c.seq)...)
		release <- c.pass
		status, _, _, _, err := ReadFrame(conn)
		switch {
		case err != nil:
			t.Fatal(err)
		case c.pass && status != StatusOK:
			t.Fatalf("seq %d: status %d, want OK", c.seq, status)
		case c.pass:
			check("recorded", 0, 2, 1, 2)
		case status != StatusErr:
			t.Fatalf("seq %d: status %d, want the gate's failure", c.seq, status)
		default:
			check("vetoed", c.pos+1, 2, 1, 2)
		}
	}
}
