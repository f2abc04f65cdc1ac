package core

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"reflect"
	"testing"

	"clio/internal/wire"
	"clio/internal/wodev"
)

// liveCheckpoint returns the checkpoint payload of a small live service.
func liveCheckpoint(t testing.TB) []byte {
	t.Helper()
	tc := &testClock{}
	dev := wodev.NewMem(wodev.MemOptions{BlockSize: 256, Capacity: 1 << 12})
	s, err := New(dev, Options{BlockSize: 256, Degree: 4, Now: tc.Now})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	id, err := s.CreateLog("/a", 0o644, "t")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := s.Append(id, []byte(fmt.Sprintf("entry-%02d", i)), AppendOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sealTail(s); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.encodeCheckpointLocked()
}

// FuzzSidecarDecode throws arbitrary bytes at the three sequential decoders
// recovery and compaction trust with what they read back from media: the
// checkpoint record, the compaction sidecar and the in-log compaction marker.
// Each input is tried as it is and as the body behind a valid magic and
// checksum (the fuzzer cannot guess a CRC). Nothing may panic, and a value
// that decodes must survive encode → decode unchanged — compared as values,
// not bytes: a uvarint has non-minimal encodings.
func FuzzSidecarDecode(f *testing.F) {
	ckpt := liveCheckpoint(f)
	f.Add(ckpt[len(ckptMagic) : len(ckpt)-4])
	state := &compactState{Vols: []*relocVol{
		{Index: 3, Start: 30, Blocks: 15, Capacity: 15, Demoted: true, IDs: []uint16{4, 7},
			Ranges: []copyRange{{StartBlock: 61, StartRec: 2, EndBlock: 61, EndRec: 5, Seq: 9}}},
		{Index: 1, Blocks: 15, Capacity: 15, IDs: []uint16{4}},
	}}
	f.Add(state.encode()[len(compactMagic)+4:])
	f.Add(encodeCompactMarker(7, []uint16{4, 9, 200}))
	f.Add(append(wire.PutUint32(nil, 7), 1, 0x85, 0x80, 0x04)) // one id, 0x1_0005
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		framedCkpt := append([]byte(ckptMagic), data...)
		framedCkpt = wire.PutUint32(framedCkpt, wire.Checksum(framedCkpt))
		for _, payload := range [][]byte{data, framedCkpt} {
			cp, err := decodeCheckpoint(payload)
			if err != nil {
				continue
			}
			again, err := decodeCheckpoint(encodeCheckpoint(cp.coveredEnd, cp.lastBound, cp.lastTS,
				cp.acc.EncodeState(nil), cp.catalog, cp.badBlocks))
			if err != nil {
				t.Fatalf("a decoded checkpoint does not re-encode: %v", err)
			}
			if !bytes.Equal(again.acc.EncodeState(nil), cp.acc.EncodeState(nil)) {
				t.Fatal("accumulator state changed across re-encode")
			}
			cp.acc, again.acc = nil, nil
			if !reflect.DeepEqual(cp, again) {
				t.Fatalf("checkpoint changed across re-encode:\n%+v\n%+v", cp, again)
			}
		}

		framedState := append(wire.PutUint32(append([]byte(nil), compactMagic...), crc32.ChecksumIEEE(data)), data...)
		for _, payload := range [][]byte{data, framedState} {
			st, err := decodeCompactState(payload)
			if err != nil {
				continue
			}
			again, err := decodeCompactState(st.encode())
			if err != nil || !reflect.DeepEqual(st, again) {
				t.Fatalf("compaction sidecar changed across re-encode (%v):\n%+v\n%+v", err, st, again)
			}
			for _, v := range st.Vols {
				for _, id := range v.IDs {
					if id > wire.MaxLogID || !v.idSet[id] {
						t.Fatalf("volume %d: id %d out of range or missing from idSet", v.Index, id)
					}
				}
			}
		}

		if index, ids, err := decodeCompactMarker(data); err == nil {
			index2, ids2, err := decodeCompactMarker(encodeCompactMarker(index, ids))
			if err != nil || index2 != index || !reflect.DeepEqual(ids2, ids) {
				t.Fatalf("marker changed across re-encode (%v): %d %v -> %d %v", err, index, ids, index2, ids2)
			}
			for _, id := range ids {
				if id > wire.MaxLogID {
					t.Fatalf("marker decoded id %d above MaxLogID", id)
				}
			}
		}
	})
}
