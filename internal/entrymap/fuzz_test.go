package entrymap

import (
	"bytes"
	"testing"
)

// FuzzDecode hardens the entrymap entry decoder: no panics, accepted
// entries round-trip, and the in-place View answers every lookup the way
// the expanded Entry does.
func FuzzDecode(f *testing.F) {
	e := &Entry{Level: 2, Boundary: 512, N: 16, Maps: []IDMap{{ID: 4, Bits: make([]byte, 2)}}}
	f.Add(e.Encode(nil))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := Decode(data)
		if err != nil {
			return
		}
		re, err := Decode(e.Encode(nil))
		if err != nil {
			t.Fatalf("accepted entry does not round-trip: %v", err)
		}
		if re.Level != e.Level || re.Boundary != e.Boundary || len(re.Maps) != len(e.Maps) {
			t.Fatal("round-trip mismatch")
		}
		v, err := DecodeView(data)
		if err != nil {
			t.Fatalf("Decode accepted what DecodeView rejects: %v", err)
		}
		for _, m := range e.Maps {
			// Duplicate ids are legal on the wire; both forms answer with the
			// first, and an id just past one that is present may be absent.
			for _, id := range []uint16{m.ID, m.ID + 1} {
				if got, want := v.Get(id), e.Get(id); !bytes.Equal(got, want) || (got == nil) != (want == nil) {
					t.Fatalf("View.Get(%d) = %v, Entry.Get = %v", id, got, want)
				}
			}
		}
	})
}
