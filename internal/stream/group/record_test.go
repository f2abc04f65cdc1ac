package group

import (
	"reflect"
	"testing"
)

func TestGroupRecRoundTrip(t *testing.T) {
	for _, in := range []*GroupRec{
		{Kind: GroupJoin, Member: "c1"},
		{Kind: GroupLeave, Member: "c2"},
		{Kind: GroupHeartbeat, Member: "c1"},
		{Kind: GroupAck, Member: "c1", Partition: 2, Shard: 2, Block: 88, Rec: 4, Count: 1024},
		{Kind: GroupClaim, Member: "c3", Partition: 1},
		{Kind: GroupRelease, Member: "c3", Partition: 1},
	} {
		out, err := DecodeGroupRec(in.Encode(nil))
		if err != nil {
			t.Fatalf("%+v: %v", in, err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("round trip: %+v != %+v", out, in)
		}
	}
	for _, kind := range []byte{0, 99} {
		if _, err := DecodeGroupRec((&GroupRec{Kind: kind, Member: "m"}).Encode(nil)); err == nil {
			t.Errorf("kind %d decoded", kind)
		}
	}
}

// FuzzGroupRec throws arbitrary entry bodies at the offsets-log record
// decoder. A group log may hold anything an authorized appender wrote, so a
// body must decode or error, never panic; and whatever decodes re-encodes
// to a body that decodes to the same record.
func FuzzGroupRec(f *testing.F) {
	f.Add((&GroupRec{Kind: GroupClaim, Member: "c3", Partition: 1, Block: 7, Rec: 2}).Encode(nil))
	f.Add([]byte{GroupRelease, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := DecodeGroupRec(data)
		if err != nil {
			return
		}
		again, err := DecodeGroupRec(g.Encode(nil))
		if err != nil || !reflect.DeepEqual(g, again) {
			t.Fatalf("re-encode of %+v decodes to %+v, %v", g, again, err)
		}
	})
}
