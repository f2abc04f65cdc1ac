package server

import (
	"context"
	"strings"
	"testing"
	"time"

	"clio/internal/core"
	"clio/internal/wire"
)

// pullPayload asks a subscription for up to want entries.
func pullPayload(handle uint32, want uint64) []byte {
	return wire.PutUvarint(wire.PutUvarint(nil, uint64(handle)), want)
}

// TestSubscriptionPullRetainsNothing: a pull's answer is written and
// forgotten. The subscription lives in its connection's own session, which
// no other connection can replay, so the batch a pull answered stays out of
// the dedup window.
func TestSubscriptionPullRetainsNothing(t *testing.T) {
	h, id := dispatchFixture(t, "")
	for i := 0; i < 20; i++ {
		if _, err := h.srv.store.Append(context.Background(), id, []byte(strings.Repeat("x", 100)), core.AppendOptions{Forced: true}); err != nil {
			t.Fatal(err)
		}
	}
	sub := wire.StreamSubscribe{Path: "/l", FromStart: true}
	rep := h.handle(nil, wire.OpSubscribe, 1, sub.Encode(nil))
	if rep.status != StatusOK {
		t.Fatalf("subscribe: status %d (%s)", rep.status, rep.head)
	}
	handle, err := NewDecoder(rep.head).Uint32()
	if err != nil {
		t.Fatal(err)
	}
	h.sess.mu.Lock()
	retained := h.sess.retained
	h.sess.mu.Unlock()
	// Entries are readable: the pull answers without parking.
	rep = h.handle(nil, OpNext, 2, pullPayload(handle, MaxBatchEntries))
	entries, err := DecodeEntryBatch(newReader(append(rep.head, rep.body...)))
	if rep.status != StatusOK || err != nil || len(entries) != 23 {
		t.Fatalf("pull: status %d, %d entries, %v; want the 3 fixture entries and 20 more", rep.status, len(entries), err)
	}
	h.sess.mu.Lock()
	defer h.sess.mu.Unlock()
	if _, kept := h.sess.window[2]; kept || h.sess.retained != retained {
		t.Fatalf("the pull's answer is in the dedup window: %d bytes retained, %d before it", h.sess.retained, retained)
	}
}

// TestSubscribeRefusedOnSharedSession: a subscription lives in its
// connection's own session, so that it ends with the connection; a
// connection attached to a shared session is refused one.
func TestSubscribeRefusedOnSharedSession(t *testing.T) {
	_, conn := testServer(t)
	mustOK(t, conn, OpCreate, createPayload("/l"))
	mustOK(t, conn, OpHello, wire.Hello{Session: 9}.Encode(nil))
	status, resp := roundTrip(t, conn, wire.OpSubscribe, (&wire.StreamSubscribe{Path: "/l"}).Encode(nil))
	if msg, _ := NewDecoder(resp).String(); status != StatusErr || !strings.Contains(msg, "own session") {
		t.Fatalf("subscribe on a shared session: status %d, %q", status, msg)
	}
}

// TestParkedPullYieldsToNextRequest: answers stay in arrival order. A
// request that arrives while a pull is parked ends the pull with nothing
// (StatusEOF), and is answered after it.
func TestParkedPullYieldsToNextRequest(t *testing.T) {
	_, conn := testServer(t)
	mustOK(t, conn, OpCreate, createPayload("/l"))
	handle, err := NewDecoder(mustOK(t, conn, wire.OpSubscribe, (&wire.StreamSubscribe{Path: "/l"}).Encode(nil))).Uint32()
	if err != nil {
		t.Fatal(err)
	}
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if err := WriteFrame(conn, OpNext, 5, 0, pullPayload(handle, 1)); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(conn, OpPing, 6, 0, nil); err != nil {
		t.Fatal(err)
	}
	for _, want := range []struct {
		seq    uint64
		status byte
	}{{5, StatusEOF}, {6, StatusOK}} {
		status, seq, _, _, err := ReadFrame(conn)
		if err != nil {
			t.Fatal(err)
		}
		if seq != want.seq || status != want.status {
			t.Fatalf("answer for seq %d with status %d, want seq %d with status %d", seq, status, want.seq, want.status)
		}
	}
}
