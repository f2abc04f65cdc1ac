package wire

import "testing"

// FuzzStreamDecode throws arbitrary bytes at every streaming payload
// decoder. A malformed frame from a confused peer must produce an error,
// never a panic or an oversized allocation.
func FuzzStreamDecode(f *testing.F) {
	f.Add(byte(OpStreamSubscribe), (&StreamSubscribe{Path: "/feed", Buffer: 256, FromStart: true,
		From: []StreamPos{{Shard: 1, Block: 4, Rec: 2}}, Credit: 64}).Encode(nil))
	// A deliver payload: the entry layout is the server's, so DecodeStream
	// refuses it (server.FuzzDecodeDeliver fuzzes its decoder).
	f.Add(byte(OpStreamDeliver), []byte("\x01\a\x00\x87\xd6\x12\x00\x00\x00\x00\x00\x03\x02\t\x01\x01\x05\x00\apayload"))
	f.Add(byte(OpStreamCredit), (&StreamCredit{SubID: 1, Credit: 32}).Encode(nil))
	f.Add(byte(OpStreamUnsubscribe), (&StreamUnsubscribe{SubID: 1}).Encode(nil))
	f.Add(byte(OpStreamEnd), (&StreamEnd{SubID: 1, Msg: "closed"}).Encode(nil))
	// Ops just past the streaming range, with group-record payloads: a
	// group record is an ordinary append, so these are unknown ops.
	f.Add(byte(OpStreamEnd+1), []byte("\x01g\x04\x02c1\x02\x02\b\x01*"))
	f.Add(byte(OpStreamEnd+2), []byte("\x01g\x01\x02c2\x00\x00\x00\x00\x00"))
	f.Add(byte(0x00), []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})
	f.Fuzz(func(t *testing.T, op byte, payload []byte) {
		v, err := DecodeStream(op, payload)
		if err != nil {
			return
		}
		if !IsStreamOp(op) {
			t.Fatalf("DecodeStream accepted non-stream op %#x", op)
		}
		// Whatever decoded must re-encode without panicking; this also keeps
		// the encoders honest about accepting any decoder-produced value.
		switch m := v.(type) {
		case *StreamSubscribe:
			m.Encode(nil)
		case *StreamCredit:
			m.Encode(nil)
		case *StreamUnsubscribe:
			m.Encode(nil)
		case *StreamEnd:
			m.Encode(nil)
		}
	})
}
