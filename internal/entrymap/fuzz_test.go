package entrymap

import (
	"bytes"
	"slices"
	"testing"

	"clio/internal/wire"
)

// FuzzDecode hardens the entrymap entry decoder: no panics, accepted
// entries round-trip, and the in-place View's Union of an ascending id set
// is the OR of the expanded Entry's first map of each id.
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
		// Ascending sets drawn from the ids present and their neighbours, the
		// input's bytes choosing the members.
		var cand []uint16
		for _, m := range e.Maps {
			cand = append(cand, m.ID-1, m.ID, m.ID+1)
		}
		slices.Sort(cand)
		cand = slices.Compact(cand)
		for pick := 0; pick < 4; pick++ {
			var ids []uint16
			for j, id := range cand {
				if pick == 0 || data[(j+pick)%len(data)]>>(j%8)&1 != 0 {
					ids = append(ids, id)
				}
			}
			var want wire.Bitmap
			for _, id := range ids {
				if bm := mapOf(e, id); bm != nil {
					if want == nil {
						want = make(wire.Bitmap, len(bm))
					}
					for i, b := range bm {
						want[i] |= b
					}
				}
			}
			if got := v.Union(ids, make(wire.Bitmap, MaxDegree/8)); !bytes.Equal(got, want) || (got == nil) != (want == nil) {
				t.Fatalf("View.Union(%v) = %v, OR of View.Get = %v", ids, got, want)
			}
		}
	})
}
