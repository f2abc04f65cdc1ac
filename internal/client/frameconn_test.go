package client

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"clio/internal/core"
	"clio/internal/faults"
	"clio/internal/logapi"
	"clio/internal/server"
	"clio/internal/wire"
)

// helloAnswer is a handshake answer: epoch 1, nothing processed yet.
func helloAnswer() []byte { return wire.PutUint64(wire.PutUint64(nil, 1), 0) }

func appendFrame(t *testing.T, dst *bytes.Buffer, op byte, seq, trace uint64, payload []byte) {
	t.Helper()
	if err := server.WriteFrame(dst, op, seq, trace, payload); err != nil {
		t.Fatal(err)
	}
}

// entryBatch is a pull's answer: a count, then the entries.
func entryBatch(entries ...*core.Entry) []byte {
	b := wire.PutUvarint(nil, uint64(len(entries)))
	for _, e := range entries {
		b = append(b, server.EncodeEntry(e)...)
	}
	return b
}

// TestWatchReadsPushesBehindSubscribeAnswer: a server may write the
// subscribe answer and the answers to the pulls it expects next in one
// socket write, so the client reads them in one read. The handshake and the
// pulls read through the one reader the connection was made with, so every
// answer is delivered; a reader per phase would drop the answers the
// handshake's read took in.
func TestWatchReadsPushesBehindSubscribeAnswer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	const handle = 3
	want := []string{"first", "second", "third"}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				for {
					op, seq, trace, _, err := server.ReadFrame(conn)
					if err != nil {
						return
					}
					var out bytes.Buffer
					switch op {
					case server.OpHello:
						appendFrame(t, &out, server.StatusOK, seq, trace, helloAnswer())
					case wire.OpSubscribe:
						appendFrame(t, &out, server.StatusOK, seq, trace, wire.PutUint32(nil, handle))
						var entries []*core.Entry
						for i, data := range want {
							entries = append(entries, &core.Entry{LogID: 1, Timestamp: int64(i + 1), Index: i, Data: []byte(data)})
						}
						// The answers to the two pulls that follow.
						appendFrame(t, &out, server.StatusOK, seq+1, 0, entryBatch(entries...))
						appendFrame(t, &out, server.StatusErr, seq+2, 0, server.PutString(nil, "done"))
					default:
						continue // the pulls, answered above
					}
					if _, err := conn.Write(out.Bytes()); err != nil {
						return
					}
					if op == wire.OpSubscribe {
						// Nothing follows: a reader that lost the answers
						// sees the end of the stream at once, not a hang.
						conn.(*net.TCPConn).CloseWrite()
					}
				}
			}()
		}
	}()
	ctx, cancel := context.WithTimeout(bg, 10*time.Second)
	defer cancel()
	c, err := DialContext(ctx, "", Options{Dialer: func(ctx context.Context) (net.Conn, error) {
		var d net.Dialer
		return d.DialContext(ctx, "tcp", ln.Addr().String())
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sub, err := c.Watch(ctx, "/log", logapi.WatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	for i, w := range want {
		e, err := sub.Recv(ctx)
		if err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
		if string(e.Data) != w || e.Timestamp != int64(i+1) {
			t.Fatalf("entry %d: %q at %d, want %q at %d", i, e.Data, e.Timestamp, w, i+1)
		}
	}
	if _, err := sub.Recv(ctx); err == nil || !strings.Contains(err.Error(), "ended by server: done") {
		t.Errorf("after the batch: %v, want the server's end", err)
	}
}

// TestReconnectReadsNothingOfTheDeadConnection: bytes a dead connection left
// in its reader are never read as answers on the connection that replaces
// it. The first connection's handshake answer arrives with a stale answer for
// the next request behind it, and the connection dies before that request
// is sent: the request must be answered by the second connection.
func TestReconnectReadsNothingOfTheDeadConnection(t *testing.T) {
	var dials atomic.Int32
	serve := func(conn net.Conn, first bool) {
		defer conn.Close()
		for {
			op, seq, trace, _, err := server.ReadFrame(conn)
			if err != nil {
				return
			}
			var out bytes.Buffer
			switch op {
			case server.OpHello:
				appendFrame(t, &out, server.StatusOK, seq, trace, helloAnswer())
				if first {
					// A stale answer to the request the client sends next.
					appendFrame(t, &out, server.StatusOK, seq+1, traceID(7, seq+1), wire.PutUint64(nil, 666))
				}
			case server.OpAppend:
				appendFrame(t, &out, server.StatusOK, seq, trace, wire.PutUint64(nil, 42))
			default:
				appendFrame(t, &out, server.StatusErr, seq, trace, server.PutString(nil, fmt.Sprintf("op %d", op)))
			}
			if _, err := conn.Write(out.Bytes()); err != nil || first {
				return // the first connection dies with its answer sent
			}
		}
	}
	dialer := func(ctx context.Context) (net.Conn, error) {
		cConn, sConn := net.Pipe()
		go serve(sConn, dials.Add(1) == 1)
		return cConn, nil
	}
	retry := faults.RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond, Multiplier: 1}
	ctx, cancel := context.WithTimeout(bg, 10*time.Second)
	defer cancel()
	c, err := DialContext(ctx, "", Options{Dialer: dialer, SessionID: 7, Retry: &retry})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ts, err := c.Append(ctx, 1, []byte("x"), AppendOptions{Forced: true})
	if err != nil || ts != 42 {
		t.Fatalf("append: timestamp %d, %v; want 42 from the live connection", ts, err)
	}
	if n := dials.Load(); n != 2 {
		t.Errorf("%d connections dialed, want 2", n)
	}
}

// TestWatchWireBytes pins what a subscription puts on the wire: the
// subscribe payload Watch sends for a resume and the pull after it (the
// handle, then a full batch wanted), and the decoding of a pull's answer,
// a cursor's entry batch.
func TestWatchWireBytes(t *testing.T) {
	const (
		wantSubscribe = "\x05/feed\x01\x02\x01\x04\x02\x03\x84\a\x00"
		wantPull      = "\a\x80\x08"
		answer        = "\x01*\x00\x01\x00*6\xfe\x9c\x97\x17\x03\x02\x85\a\x0e\x02\x05\x00\t\x00\fhello stream"
	)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	requests := make(chan []byte, 2)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				for {
					op, seq, trace, payload, err := server.ReadFrame(conn)
					if err != nil {
						return
					}
					var out bytes.Buffer
					switch op {
					case server.OpHello:
						appendFrame(t, &out, server.StatusOK, seq, trace, helloAnswer())
					case wire.OpSubscribe:
						requests <- payload
						appendFrame(t, &out, server.StatusOK, seq, trace, wire.PutUint32(nil, 7))
					case server.OpNext:
						requests <- payload
						appendFrame(t, &out, server.StatusOK, seq, trace, []byte(answer))
					default:
						continue
					}
					if _, err := conn.Write(out.Bytes()); err != nil {
						return
					}
				}
			}()
		}
	}()
	ctx, cancel := context.WithTimeout(bg, 10*time.Second)
	defer cancel()
	c, err := DialContext(ctx, "", Options{Dialer: func(ctx context.Context) (net.Conn, error) {
		var d net.Dialer
		return d.DialContext(ctx, "tcp", ln.Addr().String())
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sub, err := c.Watch(ctx, "/feed", logapi.WatchOptions{FromStart: true,
		From: []logapi.Position{{Shard: 1, Block: 4, Rec: 2}, {Shard: 3, Block: 900, Rec: 0}}})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if got := string(<-requests); got != wantSubscribe {
		t.Errorf("subscribe payload %q, want %q", got, wantSubscribe)
	}
	if got := string(<-requests); got != wantPull {
		t.Errorf("pull payload %q, want %q", got, wantPull)
	}
	e, err := sub.Recv(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want := Entry{LogID: 42, Timestamp: 1_700_000_000_000_000_001, Timestamped: true, Forced: true,
		Shard: 2, Block: 901, Index: 14, ExtraIDs: []uint16{5, 9}, Data: []byte("hello stream")}
	if !reflect.DeepEqual(*e, want) {
		t.Errorf("delivered %+v, want %+v", *e, want)
	}
}
