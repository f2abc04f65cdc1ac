package wire

import (
	"errors"
	"reflect"
	"testing"
)

func TestStreamSubscribeRoundTrip(t *testing.T) {
	in := &StreamSubscribe{
		Path:      "/feed",
		Buffer:    128,
		FromStart: true,
		From: []StreamPos{
			{Shard: 0, Block: 12, Rec: 3},
			{Shard: 3, Block: 7, Rec: 0},
		},
		Credit: 64,
	}
	out, err := DecodeStreamSubscribe(in.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip: %+v != %+v", out, in)
	}
	// Minimal form: no resume positions, defaults everywhere.
	min := &StreamSubscribe{Path: "/"}
	out, err = DecodeStreamSubscribe(min.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(min, out) {
		t.Fatalf("minimal round trip: %+v != %+v", out, min)
	}
}

func TestStreamControlRoundTrips(t *testing.T) {
	cr, err := DecodeStreamCredit((&StreamCredit{SubID: 3, Credit: 512}).Encode(nil))
	if err != nil || cr.SubID != 3 || cr.Credit != 512 {
		t.Fatalf("credit: %+v, %v", cr, err)
	}
	un, err := DecodeStreamUnsubscribe((&StreamUnsubscribe{SubID: 9}).Encode(nil))
	if err != nil || un.SubID != 9 {
		t.Fatalf("unsubscribe: %+v, %v", un, err)
	}
	end, err := DecodeStreamEnd((&StreamEnd{SubID: 4, Msg: "service closed"}).Encode(nil))
	if err != nil || end.SubID != 4 || end.Msg != "service closed" {
		t.Fatalf("end: %+v, %v", end, err)
	}
}

func TestDecodeStreamDispatch(t *testing.T) {
	cases := []struct {
		op      byte
		payload []byte
	}{
		{OpStreamSubscribe, (&StreamSubscribe{Path: "/x"}).Encode(nil)},
		{OpStreamCredit, (&StreamCredit{SubID: 1, Credit: 1}).Encode(nil)},
		{OpStreamUnsubscribe, (&StreamUnsubscribe{SubID: 1}).Encode(nil)},
		{OpStreamEnd, (&StreamEnd{SubID: 1, Msg: "m"}).Encode(nil)},
	}
	for _, c := range cases {
		if !IsStreamOp(c.op) {
			t.Errorf("IsStreamOp(%#x) = false", c.op)
		}
		if _, err := DecodeStream(c.op, c.payload); err != nil {
			t.Errorf("DecodeStream(%#x): %v", c.op, err)
		}
	}
	// Deliver frames carry the server's entry layout: a stream op, but not
	// one DecodeStream parses.
	if !IsStreamOp(OpStreamDeliver) {
		t.Error("IsStreamOp(OpStreamDeliver) = false")
	}
	if _, err := DecodeStream(OpStreamDeliver, []byte{1}); !errors.Is(err, ErrStreamPayload) {
		t.Errorf("DecodeStream(OpStreamDeliver): %v, want ErrStreamPayload", err)
	}
	if IsStreamOp(OpReplStatus) || IsStreamOp(OpStreamEnd+1) {
		t.Error("IsStreamOp accepts non-stream ops")
	}
	if _, err := DecodeStream(0x00, nil); !errors.Is(err, ErrStreamPayload) {
		t.Errorf("unknown op error: %v", err)
	}
}

func TestStreamDecodeRejectsMalformed(t *testing.T) {
	cases := []struct {
		name    string
		op      byte
		payload []byte
	}{
		{"subscribe truncated path", OpStreamSubscribe, []byte{0x05, 'a'}},
		{"subscribe from-count overflow", OpStreamSubscribe,
			append((&StreamSubscribe{Path: "/x"}).Encode(nil)[:4], 0xFF, 0xFF, 0xFF, 0x7F)},
		{"end truncated message", OpStreamEnd, (&StreamEnd{SubID: 1, Msg: "abc"}).Encode(nil)[:3]},
		{"empty credit", OpStreamCredit, nil},
	}
	for _, c := range cases {
		if _, err := DecodeStream(c.op, c.payload); !errors.Is(err, ErrStreamPayload) {
			t.Errorf("%s: err = %v, want ErrStreamPayload", c.name, err)
		}
	}
}
