package server

import (
	"bytes"
	"context"
	"testing"

	"clio/internal/core"
	"clio/internal/logapi"
	"clio/internal/wire"
	"clio/internal/wodev"
)

// frameBytes builds a valid frame for seeding.
func frameBytes(op byte, seq, trace uint64, payload []byte) []byte {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, op, seq, trace, payload); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// isReplOp reports whether op is in the replication extension's range,
// whose frames a peer, not a client, sends.
func isReplOp(op byte) bool { return op >= wire.OpReplHello && op <= wire.OpReplStatus }

// FuzzReadFrame throws arbitrary byte streams at the frame reader and, when
// a frame parses, at the replication payload decoders behind it. A malformed
// frame from a confused peer must surface as an error, never a panic — the
// server trusts nothing past the length prefix.
func FuzzReadFrame(f *testing.F) {
	f.Add(frameBytes(OpPing, 1, 7, nil))
	f.Add(frameBytes(OpAppend, 2, 0, []byte{1, 0, 3, 4, 'd', 'a', 't', 'a'}))
	f.Add(frameBytes(OpHello, 0, 0, wire.PutUint64(nil, 42)))
	f.Add(frameBytes(wire.OpReplWrite, 9, 0,
		(&wire.ReplWrite{Shard: 0, Dev: 0, Index: 1, Data: []byte("img")}).Encode(nil)))
	f.Add(frameBytes(wire.OpReplHello, 1, 0,
		(&wire.ReplHello{Term: 1, Epoch: 2, LeaderAddr: "a:1", Shards: 1, BlockSize: 512}).Encode(nil)))
	// OpSeekTime, bare and with its optional want: one, past the cap, truncated.
	seek := wire.PutUint64(wire.PutUvarint(nil, 1), 1_000_000)
	f.Add(frameBytes(OpSeekTime, 4, 0, seek))
	for _, want := range [][]byte{{1}, wire.PutUvarint(nil, 1<<40), {0x80}} {
		f.Add(frameBytes(OpSeekTime, 5, 0, append(seek[:len(seek):len(seek)], want...)))
	}

	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})            // oversized length prefix
	f.Add([]byte{0x05, 0x00, 0x00, 0x00, 0x01})      // length below header size
	f.Add(append(frameBytes(OpStats, 3, 0, nil), 9)) // trailing garbage
	f.Fuzz(func(t *testing.T, stream []byte) {
		r := bytes.NewReader(stream)
		for {
			op, seq, trace, payload, err := ReadFrame(r)
			if err != nil {
				return
			}
			_ = seq
			_ = trace
			if isReplOp(op) {
				// Whatever a peer stuffed in a replication frame must decode
				// or error, never panic.
				_, _ = wire.DecodeRepl(op, payload)
			}
			// A parsed frame must re-encode unless the payload alone exceeds
			// the frame budget (ReadFrame accepted it, so it cannot).
			var buf bytes.Buffer
			if err := WriteFrame(&buf, op, seq, trace, payload); err != nil {
				t.Fatalf("re-encode of accepted frame failed: %v", err)
			}
		}
	})
}

// FuzzDecodeEntryBatch throws arbitrary payloads at the decoder a client
// runs on every batched OpNext response. Whatever a confused server sent, it
// must come back as an error or as 1..MaxBatchEntries entries that re-encode
// to the payload's own bytes — never a panic, an empty batch, or an
// allocation sized by a length the payload cannot back.
func FuzzDecodeEntryBatch(f *testing.F) {
	good := encodeBatch(sampleEntries())
	f.Add(good)
	f.Add([]byte{})                       // no count at all
	f.Add([]byte{0x80})                   // truncated count
	f.Add([]byte{0})                      // zero-length batch
	f.Add(append([]byte{9}, good[1:]...)) // count past the entries present
	f.Add(good[:len(good)-2])             // entry length past the frame
	f.Add(append(good[:len(good):len(good)], 7))
	f.Fuzz(func(t *testing.T, payload []byte) {
		entries, err := DecodeEntryBatch(newReader(payload))
		if err != nil {
			if len(entries) != 0 {
				t.Fatalf("rejected batch returned %d entries", len(entries))
			}
			return
		}
		if len(entries) == 0 || len(entries) > MaxBatchEntries {
			t.Fatalf("accepted a batch of %d entries", len(entries))
		}
		// Uvarints have non-canonical encodings, so compare through a second
		// decode rather than byte for byte.
		again, err := DecodeEntryBatch(newReader(encodeBatch(entryPtrs(entries))))
		if err != nil || len(again) != len(entries) {
			t.Fatalf("accepted batch does not re-encode: %d entries, %v", len(again), err)
		}
		for i := range entries {
			if !bytes.Equal(again[i].Data, entries[i].Data) || again[i].Timestamp != entries[i].Timestamp {
				t.Fatalf("entry %d changed across re-encode", i)
			}
		}
	})
}

// dispatchFixture is what FuzzDispatch throws requests at: a mem-device store
// as testServer builds it, one log with a few entries, and a handler whose
// session holds one open cursor on it. With tenant set the server is
// multi-tenant and the handler is bound to that tenant, whose namespace the
// log lives in.
func dispatchFixture(t testing.TB, tenant string) (h *connHandler, id logapi.ID) {
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
	t.Cleanup(func() { svc.Close() })
	srv := New(svc)
	h = &connHandler{srv: srv, sess: newSession(0)}
	path := "/l"
	if tenant != "" {
		path = "/" + tenant
		srv.SetTenants([]Tenant{{Name: tenant, Token: "t", MaxLogs: 4, MaxBytes: 1 << 16}})
		if h.tenant, err = srv.bindTenant(tenant, "t"); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	if id, err = srv.store.CreateLog(ctx, path, 0o644, "t"); err != nil {
		t.Fatal(err)
	}
	for _, data := range []string{"a", "b", "c"} {
		if _, err := srv.store.Append(ctx, id, []byte(data), core.AppendOptions{Timestamped: true}); err != nil {
			t.Fatal(err)
		}
	}
	cur, err := srv.store.Cursor(ctx, path)
	if err != nil {
		t.Fatal(err)
	}
	if handle := h.sess.addCursor(cur); handle != 1 {
		t.Fatalf("fixture cursor handle %d, want 1", handle)
	}
	return h, id
}

// dispatchSeeds returns one well-formed payload per declared opcode, against
// dispatchFixture's log (path, id) and cursor (handle 1).
func dispatchSeeds(path string, id logapi.ID) map[byte][]byte {
	handle := wire.PutUvarint(nil, 1)
	with := func(p []byte, more ...uint64) []byte {
		p = append([]byte(nil), p...)
		for _, v := range more {
			p = wire.PutUvarint(p, v)
		}
		return p
	}
	seeds := map[byte][]byte{
		OpCreate:      PutString(wire.PutUint16(PutString(nil, path+"/sub"), 0o644), "t"),
		OpResolve:     PutString(nil, path),
		OpList:        PutString(nil, path),
		OpStat:        PutString(nil, path),
		OpSetPerms:    wire.PutUint16(PutString(nil, path), 0o600),
		OpRetire:      PutString(nil, path),
		OpAppend:      PutBytes(append(with(nil, uint64(id)), AppendForced), []byte("data")),
		OpCursorOpen:  PutString(nil, path),
		OpNext:        with(handle, 2),
		OpPrev:        with(handle, 0),
		OpSeekTime:    wire.PutUvarint(wire.PutUint64(with(handle), 2000), 1),
		OpSeekStart:   handle,
		OpSeekEnd:     handle,
		OpCursorEnd:   handle,
		OpReadAt:      with(nil, 0, 1, 0),
		OpAppendMulti: PutBytes(append(with(nil, 1, uint64(id)), AppendTimestamped), []byte("multi")),
		OpSeekPos:     with(handle, 1, 1),
		OpHello:       wire.Hello{Session: 9}.Encode(nil),

		wire.OpSubscribe: (&wire.StreamSubscribe{Path: path}).Encode(nil),
	}
	for op, row := range opTable {
		if _, ok := seeds[byte(op)]; row.name != "" && !ok {
			seeds[byte(op)] = nil // OpPing, OpStats, OpForce; peers' ops mean nothing to dispatch
		}
	}
	return seeds
}

// FuzzDispatch is one level past the payload decoders: arbitrary (op,
// payload) requests into connHandler.dispatch — the tenant gate, the op
// switch, the store behind it — in open mode and with a tenant bound. No
// request may panic the handler, every answer carries one of the documented
// status codes, and a request that did not succeed leaves the tenant's log
// and byte reservations where they were.
func FuzzDispatch(f *testing.F) {
	_, id := dispatchFixture(f, "")
	seeds := dispatchSeeds("/l", id)
	for op := range opTable {
		if payload, ok := seeds[byte(op)]; ok {
			f.Add(byte(op), payload)
		}
	}
	// A consumer group's path: the shared offsets root, and the bound
	// tenant's group log under it.
	f.Add(byte(OpCreate), createPayload(logapi.OffsetsRoot))
	f.Add(byte(OpCreate), createPayload(logapi.OffsetsRoot+"/l.g"))
	// An append whose declared length overflows int64, and one past the payload.
	f.Add(byte(OpAppend), append(wire.PutUvarint(nil, uint64(id)), 0, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01))
	f.Add(byte(OpAppend), append(wire.PutUvarint(nil, uint64(id)), 0, 200, 'x'))
	// Cursor requests on a handle that only aliases the open one modulo 2^32.
	f.Add(byte(OpNext), wire.PutUvarint(nil, 1<<32+1))
	f.Add(byte(OpSeekPos), wire.PutUvarint(wire.PutUvarint(wire.PutUvarint(nil, 1), 1<<62), 1<<63))
	// Subscriptions: the root from its start, a resume on the log's shard
	// and one on a shard the store lacks, and an earlier release's payload
	// (a Buffer after the path, a Credit at the end).
	f.Add(byte(wire.OpSubscribe), (&wire.StreamSubscribe{Path: "/", FromStart: true}).Encode(nil))
	f.Add(byte(wire.OpSubscribe), (&wire.StreamSubscribe{Path: "/l", From: []wire.StreamPos{{Shard: 0, Block: 1, Rec: 1}}}).Encode(nil))
	f.Add(byte(wire.OpSubscribe), (&wire.StreamSubscribe{Path: "/l", From: []wire.StreamPos{{Shard: 7, Block: 0, Rec: 0}}}).Encode(nil))
	f.Add(byte(wire.OpSubscribe), []byte("\x02/l\x80\x02\x01\x00\x40"))
	f.Fuzz(func(t *testing.T, op byte, payload []byte) {
		for _, tenant := range []string{"", "l"} {
			h, _ := dispatchFixture(t, tenant)
			var logs, bytes int64
			if ts := h.tenant; ts != nil {
				logs, bytes = ts.logs.Load(), ts.bytes.Load()
			}
			rep := h.dispatch(nil, op, payload)
			if rep.status > StatusQuotaExceeded {
				t.Fatalf("tenant %q: op %d answered with undocumented status %d", tenant, op, rep.status)
			}
			succeeded := rep.status == StatusOK || rep.status == StatusDegraded
			if ts := h.tenant; ts != nil && !succeeded && (ts.logs.Load() != logs || ts.bytes.Load() != bytes) {
				t.Fatalf("op %d failed with status %d and kept a reservation: logs %d -> %d, bytes %d -> %d",
					op, rep.status, logs, ts.logs.Load(), bytes, ts.bytes.Load())
			}
		}
	})
}

// TestDispatchSeedsAreWellFormed keeps FuzzDispatch's corpus honest: against
// its fixture every client op's seed succeeds (or reads the end of the log),
// in open mode and for the bound tenant.
func TestDispatchSeedsAreWellFormed(t *testing.T) {
	for _, tenant := range []string{"", "l"} {
		for op, row := range opTable {
			if row.name == "" || op == OpHello || isReplOp(byte(op)) {
				continue // not dispatch's: handle's, a peer's
			}
			h, id := dispatchFixture(t, tenant)
			rep := h.dispatch(nil, byte(op), dispatchSeeds("/l", id)[byte(op)])
			if rep.status != StatusOK && rep.status != StatusEOF {
				t.Errorf("tenant %q: %s seed: status %d (%s)", tenant, row.name, rep.status, rep.head)
			}
		}
	}
}
