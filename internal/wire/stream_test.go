package wire

import (
	"errors"
	"reflect"
	"testing"
)

func TestStreamSubscribeRoundTrip(t *testing.T) {
	in := &StreamSubscribe{
		Path:      "/feed",
		FromStart: true,
		From: []StreamPos{
			{Shard: 0, Block: 12, Rec: 3},
			{Shard: 3, Block: 7, Rec: 0},
		},
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

func TestStreamDecodeRejectsMalformed(t *testing.T) {
	cases := []struct {
		name    string
		payload []byte
	}{
		{"truncated path", []byte{0x05, 'a'}},
		{"from-count overflow", append((&StreamSubscribe{Path: "/x"}).Encode(nil)[:4], 0xFF, 0xFF, 0xFF, 0x7F)},
		{"truncated position", (&StreamSubscribe{Path: "/x", From: []StreamPos{{Shard: 1, Block: 300, Rec: 2}}}).Encode(nil)[:6]},
		{"trailing bytes", append((&StreamSubscribe{Path: "/x"}).Encode(nil), 0)},
	}
	for _, c := range cases {
		if _, err := DecodeStreamSubscribe(c.payload); !errors.Is(err, ErrStreamPayload) {
			t.Errorf("%s: err = %v, want ErrStreamPayload", c.name, err)
		}
	}
}
