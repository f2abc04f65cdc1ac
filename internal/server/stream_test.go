package server

import (
	"reflect"
	"testing"

	"clio/internal/core"
)

// deliverEntry is a delivered entry with every field set.
var deliverEntry = core.Entry{LogID: 42, Timestamp: 1_700_000_000_000_000_001, Timestamped: true, Forced: true,
	Shard: 2, Block: 901, Index: 14, ExtraIDs: []uint16{5, 9}, Data: []byte("hello stream")}

// TestDeliverFrameBytes pins a deliver frame's payload to the bytes the
// earlier stream-specific codec (wire.StreamDeliver) produced for the same
// entry, so clients and servers of either release interoperate, and checks
// that it decodes back to the entry.
func TestDeliverFrameBytes(t *testing.T) {
	const want = "\a*\x00\x01\x00*6\xfe\x9c\x97\x17\x03\x02\x85\a\x0e\x02\x05\x00\t\x00\fhello stream"
	got := AppendDeliver(nil, 7, &deliverEntry)
	if string(got) != want {
		t.Fatalf("deliver payload %q, want %q", got, want)
	}
	id, e, err := DecodeDeliver(got)
	if err != nil || id != 7 || !reflect.DeepEqual(*e, deliverEntry) {
		t.Fatalf("decoded sub %d, %+v, %v; want sub 7, %+v", id, e, err, deliverEntry)
	}
	for n := range got {
		if _, _, err := DecodeDeliver(got[:n]); err == nil {
			t.Errorf("payload truncated to %d bytes decoded", n)
		}
	}
}

// FuzzDecodeDeliver throws arbitrary bytes at the deliver decoder: a
// malformed push must be an error, never a panic, and whatever decodes must
// encode to a payload that decodes to the same.
func FuzzDecodeDeliver(f *testing.F) {
	f.Add(AppendDeliver(nil, 7, &deliverEntry))
	f.Add(AppendDeliver(nil, 1, &core.Entry{}))
	f.Fuzz(func(t *testing.T, payload []byte) {
		id, e, err := DecodeDeliver(payload)
		if err != nil {
			return
		}
		id2, e2, err := DecodeDeliver(AppendDeliver(nil, id, e))
		if err != nil || id2 != id || !reflect.DeepEqual(e2, e) {
			t.Fatalf("re-encoded deliver decodes to sub %d, %+v, %v; want sub %d, %+v", id2, e2, err, id, e)
		}
	})
}
