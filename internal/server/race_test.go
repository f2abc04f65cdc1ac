package server

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"clio/internal/wire"
)

// TestReadClassFramesAnsweredInOrder pins the inline rule: a connection's
// requests are answered by its own goroutine in arrival order, so 50
// read-class frames written back-to-back get 50 answers whose seqs come back
// in the order sent. Then the rounds the worker pools used to be raced with:
// each floods a connection with read-class frames, closes it mid-flight and
// reconnects with the same session id; the session and the server survive
// every round.
func TestReadClassFramesAnsweredInOrder(t *testing.T) {
	srv, conn := testServer(t)
	hello := wire.PutUint64(nil, 77)
	if status, _ := roundTrip(t, conn, OpHello, hello); status != StatusOK {
		t.Fatal("hello failed")
	}
	mustOK(t, conn, OpCreate, createPayload("/l"))
	const frames = 50
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	wrote := make(chan error, 1)
	go func() {
		for seq := uint64(1); seq <= frames; seq++ {
			op, payload := byte(OpPing), []byte(nil)
			if seq%2 == 0 {
				op, payload = OpStat, PutString(nil, "/l")
			}
			if err := WriteFrame(conn, op, seq, 0, payload); err != nil {
				wrote <- err
				return
			}
		}
		wrote <- nil
	}()
	for want := uint64(1); want <= frames; want++ {
		status, seq, _, _, err := ReadFrame(conn)
		if err != nil || status != StatusOK || seq != want {
			t.Fatalf("answer %d: status %d, seq %d, err %v", want, status, seq, err)
		}
	}
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}
	conn.Close()

	for round := 0; round < 20; round++ {
		c, sc := net.Pipe()
		go srv.ServeConn(sc)
		c.SetDeadline(time.Now().Add(5 * time.Second))
		if status, _ := roundTrip(t, c, OpHello, hello); status != StatusOK {
			t.Fatal("hello failed")
		}
		// One writer floods read-class frames, one reader drains whatever
		// responses make it back; both race the Close below.
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < frames; i++ {
				if err := WriteFrame(c, OpPing, 0, 0, nil); err != nil {
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for {
				if _, _, _, _, err := ReadFrame(c); err != nil {
					return
				}
			}
		}()
		time.Sleep(time.Duration(round%3) * time.Millisecond)
		c.Close() // mid-flight: an answer may be half written
		wg.Wait()
	}

	// The session and server survive every round.
	c, sc := net.Pipe()
	go srv.ServeConn(sc)
	defer c.Close()
	if status, _ := roundTrip(t, c, OpHello, hello); status != StatusOK {
		t.Fatal("hello after reconnect storm failed")
	}
	if status, _ := roundTrip(t, c, OpPing, nil); status != StatusOK {
		t.Fatal("ping after reconnect storm failed")
	}
}

// TestDedupEvictionUnderConcurrentReplay exercises the audited eviction
// invariant: two connections on one session — one appending fresh sequenced
// requests, one concurrently replaying the exact same frames — with enough
// traffic from a third range to churn seqs through the FIFO many times
// over. Whatever interleaving the scheduler picks, each unique request must
// execute exactly once: a replay either hits the cached response or gets
// the explicit outside-the-window error, never a second append.
func TestDedupEvictionUnderConcurrentReplay(t *testing.T) {
	const n = 300 // >> dedupWindow, so eviction churns constantly
	srv, conn := testServer(t)
	hello := wire.PutUint64(nil, 88)
	if status, _ := roundTrip(t, conn, OpHello, hello); status != StatusOK {
		t.Fatal("hello failed")
	}
	p := PutString(nil, "/race")
	p = wire.PutUint16(p, 0)
	p = PutString(p, "")
	status, resp := roundTrip(t, conn, OpCreate, p)
	if status != StatusOK {
		t.Fatal("create failed")
	}
	id := newReader(resp).Uvarint()

	appendFrame := func(i int) []byte {
		ap := wire.PutUvarint(nil, id)
		ap = append(ap, 0) // not forced: no per-entry seal
		ap = PutBytes(ap, []byte(fmt.Sprintf("e%04d", i)))
		return ap
	}
	attach := func() net.Conn {
		c, sc := net.Pipe()
		go srv.ServeConn(sc)
		c.SetDeadline(time.Now().Add(30 * time.Second))
		if status, _ := roundTrip(t, c, OpHello, hello); status != StatusOK {
			t.Error("hello failed")
		}
		return c
	}

	var wg sync.WaitGroup
	errs := make(chan string, 3*n)
	run := func(fn func(conn net.Conn)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := attach()
			defer c.Close()
			fn(c)
		}()
	}
	// Two lanes send the SAME frames (seqs 1000..1000+n, unique payloads):
	// each seq must append exactly once. Whichever lane reaches a seq first
	// is its original; the other is the replay. Either lane can be the one
	// that lags more than dedupWindow behind, and the server then refuses
	// its frame rather than guess — so both tolerate that error and no other.
	lane := func(name string) func(net.Conn) {
		return func(c net.Conn) {
			for i := 0; i < n; i++ {
				status, resp := roundTripSeq(t, c, OpAppend, uint64(1000+i), appendFrame(i))
				if status == StatusErr {
					msg, _ := NewDecoder(resp).String()
					if !strings.Contains(msg, "duplicate-suppression window") {
						errs <- fmt.Sprintf("%s %d: unexpected error %q", name, i, msg)
					}
				} else if status != StatusOK {
					errs <- fmt.Sprintf("%s %d: status %d", name, i, status)
				}
			}
		}
	}
	run(lane("original"))
	run(lane("replay"))
	// Churn: a disjoint seq range pushing everything through the FIFO.
	run(func(c net.Conn) {
		for i := 0; i < n; i++ {
			if status, _ := roundTripSeq(t, c, OpPing, uint64(50000+i), nil); status != StatusOK {
				errs <- fmt.Sprintf("churn %d: status %d", i, status)
			}
		}
	})
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}

	status, resp = roundTrip(t, conn, OpStats, nil)
	if status != StatusOK {
		t.Fatal("stats failed")
	}
	entries := newReader(resp).Int64()
	if entries != n {
		t.Fatalf("server holds %d entries, want exactly %d (a replay re-executed)", entries, n)
	}
}
