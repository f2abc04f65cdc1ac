package wire

import "testing"

// FuzzStreamDecode throws arbitrary bytes at the subscribe payload decoder.
// A malformed payload from a confused peer must produce an error, never a
// panic or an oversized allocation, and whatever decodes must re-encode to a
// payload that decodes to the same.
func FuzzStreamDecode(f *testing.F) {
	f.Add((&StreamSubscribe{Path: "/feed", FromStart: true, From: []StreamPos{{Shard: 1, Block: 4, Rec: 2}}}).Encode(nil))
	f.Add((&StreamSubscribe{Path: "/"}).Encode(nil))
	f.Add((&StreamSubscribe{Path: "/feed", From: []StreamPos{{Shard: 0, Block: 1 << 40, Rec: 0}, {Shard: 3, Block: 7, Rec: 9}}}).Encode(nil))
	// An earlier release's subscribe payload: a Buffer uvarint after the
	// path and a Credit uvarint at the end.
	f.Add([]byte("\x05/feed\x80\x02\x01\x01\x01\x04\x02@"))
	f.Add([]byte{})
	f.Add([]byte{0x05, 'a'})                                                  // truncated path
	f.Add([]byte{0x01, '/', 0x00, 0xFF, 0xFF, 0xFF, 0x7F})                    // from count past the bound
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}) // overflowing path length
	f.Fuzz(func(t *testing.T, payload []byte) {
		s, err := DecodeStreamSubscribe(payload)
		if err != nil {
			return
		}
		again, err := DecodeStreamSubscribe(s.Encode(nil))
		if err != nil || again.Path != s.Path || again.FromStart != s.FromStart || len(again.From) != len(s.From) {
			t.Fatalf("re-encoded subscribe decodes to %+v, %v; want %+v", again, err, s)
		}
		for i := range s.From {
			if again.From[i] != s.From[i] {
				t.Fatalf("position %d changed across re-encode: %+v, want %+v", i, again.From[i], s.From[i])
			}
		}
	})
}
