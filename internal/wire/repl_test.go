package wire

import (
	"errors"
	"reflect"
	"testing"
)

func TestReplRoundTrips(t *testing.T) {
	devs := []ReplDevState{
		{Shard: 0, Dev: 0, Written: 12, LastCRC: 0xDEADBEEF},
		{Shard: 1, Dev: 2, Written: 0, LastCRC: 0},
	}
	cases := []struct {
		name string
		op   byte
		enc  func([]byte) []byte
		want any
	}{
		{
			name: "hello", op: OpReplHello,
			enc:  (&ReplHello{Term: 3, Epoch: 77, LeaderAddr: "127.0.0.1:9000", Shards: 2, BlockSize: 512}).Encode,
			want: &ReplHello{Term: 3, Epoch: 77, LeaderAddr: "127.0.0.1:9000", Shards: 2, BlockSize: 512},
		},
		{
			name: "hello resp accept", op: OpReplHello,
			enc:  (&ReplHelloResp{Accept: true, Term: 3, Devs: devs}).Encode,
			want: nil, // decoded separately below
		},
		{
			name: "write", op: OpReplWrite,
			enc:  (&ReplWrite{Shard: 1, Dev: 0, Index: 42, Data: []byte("block image")}).Encode,
			want: &ReplWrite{Shard: 1, Dev: 0, Index: 42, Data: []byte("block image")},
		},
		{
			name: "invalidate", op: OpReplInvalidate,
			enc:  (&ReplInvalidate{Shard: 0, Dev: 1, Index: 9}).Encode,
			want: &ReplInvalidate{Shard: 0, Dev: 1, Index: 9},
		},
		{
			name: "tail", op: OpReplTail,
			enc:  (&ReplTail{Shard: 1, Global: 40, Image: []byte{1, 2, 3}}).Encode,
			want: &ReplTail{Shard: 1, Global: 40, Image: []byte{1, 2, 3}},
		},
		{
			name: "tail clear", op: OpReplTailClear,
			enc:  (&ReplTailClear{Shard: 1}).Encode,
			want: &ReplTailClear{Shard: 1},
		},
		{
			name: "ack", op: OpReplAck,
			enc:  (&ReplAck{Session: 5, Seq: 6, Status: 0, Resp: []byte{9}}).Encode,
			want: &ReplAck{Session: 5, Seq: 6, Status: 0, Resp: []byte{9}},
		},
		{
			name: "sessions", op: OpReplSessions,
			enc: (&ReplSessions{Sessions: []ReplSession{
				{ID: 1, MaxSeq: 10, Resps: []ReplResp{{Seq: 9, Status: 0, Resp: []byte("ok")}, {Seq: 10, Status: 1, Resp: nil}}},
				{ID: 2, MaxSeq: 0},
			}}).Encode,
			want: &ReplSessions{Sessions: []ReplSession{
				{ID: 1, MaxSeq: 10, Resps: []ReplResp{{Seq: 9, Status: 0, Resp: []byte("ok")}, {Seq: 10, Status: 1, Resp: []byte{}}}},
				{ID: 2, MaxSeq: 0},
			}},
		},
		{
			name: "base", op: OpReplBase,
			enc:  (&ReplBase{Pos: 88}).Encode,
			want: &ReplBase{Pos: 88},
		},
		{
			name: "reset", op: OpReplReset,
			enc:  (&ReplReset{Shard: 1, Dev: 1}).Encode,
			want: &ReplReset{Shard: 1, Dev: 1},
		},
	}
	for _, tc := range cases {
		if tc.want == nil {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			payload := tc.enc(nil)
			got, err := DecodeRepl(tc.op, payload)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("round trip mismatch:\n got %#v\nwant %#v", got, tc.want)
			}
		})
	}

	resp, err := DecodeReplHelloResp((&ReplHelloResp{Accept: true, Term: 3, Devs: devs}).Encode(nil))
	if err != nil {
		t.Fatalf("hello resp: %v", err)
	}
	if !resp.Accept || resp.Term != 3 || !reflect.DeepEqual(resp.Devs, devs) {
		t.Fatalf("hello resp mismatch: %#v", resp)
	}

	st := &ReplStatusResp{Role: RoleLeader, Term: 2, Epoch: 9, LeaderAddr: "a:1", Applied: 4, Pos: 7, Committed: 6, Devs: devs}
	got, err := DecodeReplStatusResp(st.Encode(nil))
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	if !reflect.DeepEqual(got, st) {
		t.Fatalf("status mismatch:\n got %#v\nwant %#v", got, st)
	}
}

func TestReplDecodeRejectsTruncation(t *testing.T) {
	full := map[byte][]byte{
		OpReplHello:      (&ReplHello{Term: 1, Epoch: 2, LeaderAddr: "x:1", Shards: 1, BlockSize: 512}).Encode(nil),
		OpReplWrite:      (&ReplWrite{Shard: 1, Dev: 1, Index: 3, Data: []byte("abcdef")}).Encode(nil),
		OpReplInvalidate: (&ReplInvalidate{Shard: 1, Dev: 1, Index: 3}).Encode(nil),
		OpReplTail:       (&ReplTail{Shard: 1, Global: 5, Image: []byte("abc")}).Encode(nil),
		OpReplTailClear:  (&ReplTailClear{Shard: 1}).Encode(nil),
		OpReplAck:        (&ReplAck{Session: 1, Seq: 2, Status: 0, Resp: []byte("r")}).Encode(nil),
		OpReplSessions:   (&ReplSessions{Sessions: []ReplSession{{ID: 1, MaxSeq: 2, Resps: []ReplResp{{Seq: 2, Resp: []byte("x")}}}}}).Encode(nil),
		OpReplBase:       (&ReplBase{Pos: 1}).Encode(nil),
		OpReplReset:      (&ReplReset{Shard: 1, Dev: 1}).Encode(nil),
	}
	for op, payload := range full {
		for cut := 0; cut < len(payload); cut++ {
			if _, err := DecodeRepl(op, payload[:cut]); err == nil {
				t.Fatalf("op %#x: truncation at %d accepted", op, cut)
			} else if !errors.Is(err, ErrReplPayload) {
				t.Fatalf("op %#x: error not wrapped: %v", op, err)
			}
		}
	}
}

func TestReplDecodeUnknownOp(t *testing.T) {
	if _, err := DecodeRepl(0x7F, nil); err == nil {
		t.Fatal("unknown op accepted")
	}
	for _, op := range []byte{OpPromote, OpReplStatus} {
		if v, err := DecodeRepl(op, nil); err != nil || v != nil {
			t.Fatalf("payload-free op %#x: %v %v", op, v, err)
		}
	}
}

func TestReplDecodeHugeCountsDoNotAllocate(t *testing.T) {
	// A count field claiming 2^40 sessions in a 12-byte payload must fail
	// fast rather than allocate.
	var b []byte
	b = PutUvarint(b, 1<<40)
	if _, err := DecodeReplSessions(b); err == nil {
		t.Fatal("huge session count accepted")
	}
	var d []byte
	d = append(d, 1) // accept
	d = PutUvarint(d, 0)
	d = PutUint64(d, 1)
	d = PutUvarint(d, 1<<40) // dev count
	if _, err := DecodeReplHelloResp(d); err == nil {
		t.Fatal("huge dev count accepted")
	}
}
