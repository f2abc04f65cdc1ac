package server

import (
	"bytes"
	"testing"

	"clio/internal/wire"
)

// frameBytes builds a valid frame for seeding.
func frameBytes(op byte, seq, trace uint64, payload []byte) []byte {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, op, seq, trace, payload); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

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
			if wire.IsReplOp(op) {
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
		entries, err := DecodeEntryBatch(nil, NewDecoder(payload))
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
		again, err := DecodeEntryBatch(nil, NewDecoder(encodeBatch(entries)))
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
