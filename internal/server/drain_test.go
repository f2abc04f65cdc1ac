package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clio/internal/core"
	"clio/internal/wire"
	"clio/internal/wodev"
)

// drainServer builds a server whose log lines are captured, so the tests
// can assert a graceful drain logs no failures.
func drainServer(t *testing.T) (*Server, *logCapture) {
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
	logs := &logCapture{}
	srv.Logf = logs.logf
	t.Cleanup(func() { srv.Close(); svc.Close() })
	return srv, logs
}

type logCapture struct {
	mu    sync.Mutex
	lines []string
}

func (lc *logCapture) logf(format string, args ...any) {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	lc.lines = append(lc.lines, fmt.Sprintf(format, args...))
}

func (lc *logCapture) snapshot() []string {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	return append([]string(nil), lc.lines...)
}

// TestShutdownDrainsInflightAppend proves the drain guarantee: a forced
// append already executing when Shutdown begins completes and is acked to
// the client, Shutdown waits for it, and the well-behaved client sees no
// connection reset and the server logs no failure.
func TestShutdownDrainsInflightAppend(t *testing.T) {
	srv, logs := drainServer(t)

	// The gate holds the append's ack open mid-flight once armed: the entry
	// has executed, the response is not yet on the wire — exactly the state
	// SIGTERM must wait out.
	var armed atomic.Bool
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	srv.Gate = func(op byte, session, seq uint64, status byte, resp []byte, durable bool, _ func(uint64)) (byte, []byte, bool) {
		if op == OpAppend && armed.Load() {
			once.Do(func() { close(entered) })
			<-release
		}
		return status, resp, true
	}

	cConn, sConn := net.Pipe()
	go srv.ServeConn(sConn)
	defer cConn.Close()
	mustOK(t, cConn, OpCreate, createPayload("/l"))
	r := newReader(mustOK(t, cConn, OpResolve, PutString(nil, "/l")))
	id, err := r.Uvarint(), r.Err()
	if err != nil {
		t.Fatal(err)
	}
	armed.Store(true)

	// Fire the append without waiting for the response; it parks in the gate.
	cConn.SetDeadline(time.Now().Add(30 * time.Second))
	if err := WriteFrame(cConn, OpAppend, 7, 0, appendPayload(id, "must not be lost")); err != nil {
		t.Fatal(err)
	}
	<-entered

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := testContext(30 * time.Second)
		defer cancel()
		shutdownErr <- srv.Shutdown(ctx)
	}()

	// Shutdown must not complete while the append is un-acked.
	select {
	case err := <-shutdownErr:
		t.Fatalf("Shutdown returned (%v) with an append still in flight", err)
	case <-time.After(100 * time.Millisecond):
	}

	// While draining, a brand-new connection is refused outright.
	nConn, nSrv := net.Pipe()
	go srv.ServeConn(nSrv)
	defer nConn.Close()
	nConn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, _, _, _, err := ReadFrame(nConn); err == nil {
		t.Error("new connection served a frame during drain")
	}

	close(release)
	// The ack must arrive before the connection ends: first frame is the
	// append response, StatusOK, seq 7.
	status, seq, _, resp, err := ReadFrame(cConn)
	if err != nil {
		t.Fatalf("client lost its in-flight ack: %v", err)
	}
	if status != StatusOK || seq != 7 {
		msg, _ := NewDecoder(resp).String()
		t.Fatalf("in-flight append: status %d seq %d (%s), want OK seq 7", status, seq, msg)
	}
	if err := <-shutdownErr; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	for _, line := range logs.snapshot() {
		if strings.Contains(line, "read:") || strings.Contains(line, "write:") {
			t.Errorf("graceful drain logged a failure: %q", line)
		}
	}
}

// TestServeReturnsErrServerClosed: a drained listener's Serve loop reports
// the expected sentinel, not a transport error the daemon would log as a
// failure, and new dials are refused.
func TestServeReturnsErrServerClosed(t *testing.T) {
	srv, _ := drainServer(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if status, _ := roundTrip(t, conn, OpPing, nil); status != StatusOK {
		t.Fatal("ping failed before shutdown")
	}

	ctx, cancel := testContext(30 * time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	select {
	case err := <-serveErr:
		if !errors.Is(err, ErrServerClosed) {
			t.Errorf("Serve returned %v, want ErrServerClosed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after Shutdown")
	}
	if c, err := net.Dial("tcp", ln.Addr().String()); err == nil {
		c.Close()
		t.Error("listener still accepting after Shutdown")
	}
}

// TestDrainEndsSubscriptionsWithStreamEnd: a live tail subscriber riding
// out a SIGTERM drain has its parked pull answered "server shutting down" —
// an explicit end, never a connection reset.
func TestDrainEndsSubscriptionsWithStreamEnd(t *testing.T) {
	srv, logs := drainServer(t)
	cConn, sConn := net.Pipe()
	go srv.ServeConn(sConn)
	defer cConn.Close()
	mustOK(t, cConn, OpCreate, createPayload("/l"))

	sub := wire.StreamSubscribe{Path: "/l"}
	handle, err := NewDecoder(mustOK(t, cConn, wire.OpSubscribe, sub.Encode(nil))).Uint32()
	if err != nil {
		t.Fatal(err)
	}
	// The log is empty: the pull parks. A pipe write returns once the
	// server has read it, so the pull is the server's before the drain.
	if err := WriteFrame(cConn, OpNext, 2, 0, wire.PutUvarint(wire.PutUvarint(nil, uint64(handle)), 1)); err != nil {
		t.Fatal(err)
	}

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := testContext(30 * time.Second)
		defer cancel()
		shutdownErr <- srv.Shutdown(ctx)
	}()

	cConn.SetReadDeadline(time.Now().Add(10 * time.Second))
	status, seq, _, payload, err := ReadFrame(cConn)
	if err != nil {
		t.Fatalf("subscriber saw %v, want the pull's answer", err)
	}
	msg, _ := NewDecoder(payload).String()
	if status != StatusErr || seq != 2 || !strings.Contains(msg, "shutting down") {
		t.Errorf("pull answered status %d, seq %d, %q; want an error for seq 2 naming the shutdown", status, seq, msg)
	}
	if err := <-shutdownErr; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	for _, line := range logs.snapshot() {
		if strings.Contains(line, "read:") || strings.Contains(line, "write:") {
			t.Errorf("drain with subscriber logged a failure: %q", line)
		}
	}
}

// TestShutdownTimeoutForcesClose: a connection that never finishes (a
// client that simply stays connected) cannot hold the daemon up past the
// drain bound.
func TestShutdownTimeoutForcesClose(t *testing.T) {
	srv, _ := drainServer(t)
	cConn, sConn := net.Pipe()
	go srv.ServeConn(sConn)
	defer cConn.Close()
	mustOK(t, cConn, OpPing, nil)

	// Park a request in a gate that never releases: the drain must give up
	// at the deadline and force-close.
	block := make(chan struct{})
	var hit atomic.Bool
	srv.Gate = func(op byte, session, seq uint64, status byte, resp []byte, durable bool, _ func(uint64)) (byte, []byte, bool) {
		if hit.Swap(true) {
			return status, resp, true
		}
		<-block
		return status, resp, true
	}
	defer close(block)
	if err := WriteFrame(cConn, OpCreate, 1, 0, createPayload("/l")); err != nil {
		t.Fatal(err)
	}
	for !hit.Load() {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := testContext(200 * time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); err == nil {
		t.Fatal("Shutdown returned nil despite a stuck connection")
	}
}

// testContext bounds a drain in the tests.
func testContext(d time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), d)
}
