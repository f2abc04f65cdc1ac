package entrymap

import (
	"reflect"
	"sort"
	"testing"
)

// pendingIDs returns every id with a set bit in the given level's partial
// span, sorted.
func pendingIDs(a *Accumulator, level int) []uint16 {
	if level < 1 || level > len(a.levels) {
		return nil
	}
	l := a.levels[level-1]
	ids := make([]uint16, 0, len(l.maps))
	for id, bm := range l.maps {
		if !bm.Empty() {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// stateEqual compares two accumulators by observable behaviour: pending
// bitmaps per level and the entries emitted at the next boundaries.
func stateEqual(t *testing.T, a, b *Accumulator) {
	t.Helper()
	if a.N() != b.N() {
		t.Fatalf("degree mismatch: %d vs %d", a.N(), b.N())
	}
	if len(a.levels) != len(b.levels) {
		t.Fatalf("level count mismatch: %d vs %d", len(a.levels), len(b.levels))
	}
	for lvl := 1; lvl <= len(a.levels); lvl++ {
		if !reflect.DeepEqual(pendingIDs(a, lvl), pendingIDs(b, lvl)) {
			t.Fatalf("level %d pending ids differ: %v vs %v",
				lvl, pendingIDs(a, lvl), pendingIDs(b, lvl))
		}
		for _, id := range pendingIDs(a, lvl) {
			abm, aspan := a.Pending(lvl, id)
			bbm, bspan := b.Pending(lvl, id)
			if aspan != bspan || !reflect.DeepEqual(abm, bbm) {
				t.Fatalf("level %d id %d pending differs", lvl, id)
			}
		}
	}
}

func TestAccumulatorStateRoundTrip(t *testing.T) {
	const n = 4
	a, err := NewAccumulator(n)
	if err != nil {
		t.Fatal(err)
	}
	// Drive enough blocks to materialize three levels with partial spans
	// at each, interleaving several ids (including CheckpointID, which is
	// tracked).
	var emitted []*Entry
	for blk := 0; blk < n*n*n+n+2; blk++ {
		if blk > 0 && blk%n == 0 {
			emitted = append(emitted, a.EntriesDue(blk)...)
		}
		ids := []uint16{uint16(FirstClientID + blk%3)}
		if blk%5 == 0 {
			ids = append(ids, CheckpointID)
		}
		a.NoteBlock(blk, ids)
	}
	if len(emitted) == 0 || len(a.levels) < 3 {
		t.Fatalf("test did not exercise multiple levels (levels=%d)", len(a.levels))
	}

	buf := a.EncodeState([]byte("prefix"))
	got, used, err := DecodeState(buf[len("prefix"):])
	if err != nil {
		t.Fatal(err)
	}
	if used != len(buf)-len("prefix") {
		t.Fatalf("DecodeState consumed %d of %d bytes", used, len(buf)-len("prefix"))
	}
	stateEqual(t, a, got)

	// The restored accumulator must emit the same entries as the original
	// at the following boundaries.
	next := (n*n*n + n + 2 + n - 1) / n * n
	for bnd := next; bnd <= next+n*n; bnd += n {
		want := a.EntriesDue(bnd)
		have := got.EntriesDue(bnd)
		if !reflect.DeepEqual(want, have) {
			t.Fatalf("boundary %d: restored accumulator emitted %v, want %v", bnd, have, want)
		}
	}
}

func TestDecodeStateRejectsGarbage(t *testing.T) {
	a, _ := NewAccumulator(8)
	a.NoteBlock(0, []uint16{FirstClientID})
	buf := a.EncodeState(nil)
	for _, tc := range [][]byte{
		nil,
		{0x00},
		{0x00, 0x01},       // degree 1 < MinDegree
		{0xFF, 0xFF, 0x01}, // absurd degree
		buf[:len(buf)-1],   // truncated bitmap
	} {
		if _, _, err := DecodeState(tc); err == nil {
			t.Errorf("DecodeState(%x) accepted", tc)
		}
	}
}
