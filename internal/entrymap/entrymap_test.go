package entrymap

import (
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"clio/internal/wire"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	bm1 := wire.NewBitmap(16)
	bm1.Set(0)
	bm1.Set(15)
	bm2 := wire.NewBitmap(16)
	bm2.Set(7)
	e := &Entry{
		Level:    2,
		Boundary: 512,
		N:        16,
		Maps: []IDMap{
			{ID: 2, Bits: bm1},
			{ID: 100, Bits: bm2},
		},
	}
	enc := e.Encode(nil)
	got, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, e) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, e)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{1, 2, 3},
		{0, 0, 0, 0, 0, 16, 0, 0}, // level 0
		{1, 0, 0, 0, 0, 1, 0, 0},  // N=1
		(&Entry{Level: 1, Boundary: 16, N: 16,
			Maps: []IDMap{{ID: 5, Bits: wire.NewBitmap(16)}}}).Encode(nil)[:9], // truncated
	}
	for i, c := range cases {
		if _, err := Decode(c); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
}

// mapOf returns e's first bitmap for id, or nil if id has no entries in
// the span.
func mapOf(e *Entry, id uint16) wire.Bitmap {
	for _, m := range e.Maps {
		if m.ID == id {
			return m.Bits
		}
	}
	return nil
}

func TestAccumulatorEmissionBoundaries(t *testing.T) {
	acc, err := NewAccumulator(4)
	if err != nil {
		t.Fatal(err)
	}
	// Figure 2's example: N=4. Write 16 blocks; log file 5 appears in
	// blocks 1, 6, 7, 9, 14 (five shaded blocks).
	present := map[int]bool{1: true, 6: true, 7: true, 9: true, 14: true}
	type emitted struct {
		boundary int
		entries  []*Entry
	}
	var all []emitted
	for b := 0; b < 17; b++ {
		if due := acc.EntriesDue(b); due != nil {
			all = append(all, emitted{b, due})
		}
		if b < 16 {
			var ids []uint16
			if present[b] {
				ids = []uint16{5}
			}
			acc.NoteBlock(b, ids)
		}
	}
	// Boundaries 4, 8, 12 emit level-1; boundary 16 emits level-2 and level-1.
	if len(all) != 4 {
		t.Fatalf("emissions at %d boundaries, want 4", len(all))
	}
	for i, want := range []int{4, 8, 12, 16} {
		if all[i].boundary != want {
			t.Errorf("emission %d at boundary %d, want %d", i, all[i].boundary, want)
		}
	}
	if len(all[3].entries) != 2 {
		t.Fatalf("boundary 16 emitted %d entries, want 2 (level 2 + level 1)", len(all[3].entries))
	}
	if all[3].entries[0].Level != 2 || all[3].entries[1].Level != 1 {
		t.Errorf("boundary 16 order: levels %d,%d, want 2,1",
			all[3].entries[0].Level, all[3].entries[1].Level)
	}
	// Level-1 entry at 8 covers blocks 4..7: bits 2,3 (blocks 6,7).
	l1 := all[1].entries[0]
	bm := mapOf(l1, 5)
	if bm == nil || bm.String()[:4] != "0011" {
		t.Errorf("level-1@8 bitmap = %v", bm)
	}
	// Level-2 entry at 16 covers groups 0..3: f in groups 0 (block 1),
	// 1 (6,7), 2 (9), 3 (14) -> all four bits.
	l2 := all[3].entries[0]
	bm2 := mapOf(l2, 5)
	if bm2 == nil || bm2.String()[:4] != "1111" {
		t.Errorf("level-2@16 bitmap = %v", bm2)
	}
	// Boundary 4's entry covers blocks 0..3: only block 1.
	if got := mapOf(all[0].entries[0], 5).String()[:4]; got != "0100" {
		t.Errorf("level-1@4 bitmap = %s", got)
	}
}

func TestAccumulatorExcludesUntrackedIDs(t *testing.T) {
	acc, _ := NewAccumulator(4)
	acc.NoteBlock(0, []uint16{VolumeSeqID, EntrymapID, CatalogID})
	acc.NoteBlock(1, nil)
	acc.NoteBlock(2, nil)
	acc.NoteBlock(3, nil)
	due := acc.EntriesDue(4)
	if len(due) != 1 {
		t.Fatalf("due = %d entries", len(due))
	}
	if len(due[0].Maps) != 1 || due[0].Maps[0].ID != CatalogID {
		t.Errorf("maps = %+v, want only catalog id", due[0].Maps)
	}
}

func TestAccumulatorNonBoundary(t *testing.T) {
	acc, _ := NewAccumulator(8)
	if acc.EntriesDue(0) != nil || acc.EntriesDue(7) != nil {
		t.Error("entries emitted at non-boundary")
	}
}

// fakeStore is a model-backed Source/RecoverSource: it drives a real
// Accumulator the way the writer would, stores emitted entries, and keeps
// the ground truth (ids per block) for naive reference searches.
type fakeStore struct {
	n       int
	blocks  [][]uint16
	ts      []int64
	entries map[[2]int]*Entry
	missing map[[2]int]bool
	acc     *Accumulator
	// displaced holds, per (level, boundary), how many blocks past its
	// boundary an entry landed (§2.3.2); ViewAt finds it within limit blocks
	// once that block is readable, as the service's forward scan does.
	displaced map[[2]int]int
	limit     int
	// unknown marks (level, id) pairs whose pending span the writer cannot
	// vouch for (Pending reports known=false for any set holding the id).
	unknown map[[2]int]bool
	// undated marks blocks whose BlockFirstTS reports ok=false: damaged
	// blocks, and a tail the writer has started without dating it.
	undated map[int]bool
	// trace, when set, receives one line per Source call.
	trace io.Writer
}

func newFakeStore(t *testing.T, n int) *fakeStore {
	t.Helper()
	acc, err := NewAccumulator(n)
	if err != nil {
		t.Fatal(err)
	}
	return &fakeStore{
		n:         n,
		entries:   make(map[[2]int]*Entry),
		missing:   make(map[[2]int]bool),
		acc:       acc,
		displaced: make(map[[2]int]int),
		unknown:   make(map[[2]int]bool),
		undated:   make(map[int]bool),
	}
}

// seal appends a sealed block containing the given tracked ids.
func (f *fakeStore) seal(ids []uint16, ts int64) {
	b := len(f.blocks)
	for _, e := range f.acc.EntriesDue(b) {
		f.entries[[2]int{e.Level, e.Boundary}] = e
	}
	f.blocks = append(f.blocks, ids)
	f.ts = append(f.ts, ts)
	f.acc.NoteBlock(b, ids)
}

func (f *fakeStore) note(format string, args ...any) {
	if f.trace != nil {
		fmt.Fprintf(f.trace, format+"\n", args...)
	}
}

func (f *fakeStore) End() int {
	f.note("E")
	return len(f.blocks)
}

func (f *fakeStore) ViewAt(level, boundary int) (View, bool, error) {
	f.note("V %d %d", level, boundary)
	k := [2]int{level, boundary}
	e := f.entries[k]
	if d := f.displaced[k]; d > f.limit || boundary+d >= len(f.blocks) {
		e = nil
	}
	if f.missing[k] || e == nil {
		return View{}, false, nil
	}
	v, err := DecodeView(e.Encode(nil))
	return v, err == nil, err
}

func (f *fakeStore) Pending(level, spanStart int, ids []uint16) (bm [MaxDegree / 8]byte, known bool) {
	f.note("P %d %d %v", level, spanStart, ids)
	for _, id := range ids {
		if f.unknown[[2]int{level, int(id)}] {
			return bm, false
		}
		live, _ := f.acc.Pending(level, id)
		for i, b := range live {
			bm[i] |= b
		}
	}
	return bm, true
}

func (f *fakeStore) BlockContains(block int, ids []uint16) (bool, error) {
	f.note("B %d %v", block, ids)
	return f.holds(block, ids), nil
}

// holds is the ground truth: block holds an entry of some id in ids.
func (f *fakeStore) holds(block int, ids []uint16) bool {
	if block < 0 || block >= len(f.blocks) {
		return false
	}
	for _, got := range f.blocks[block] {
		if slices.Contains(ids, got) {
			return true
		}
	}
	return false
}

func (f *fakeStore) BlockFirstTS(block int) (int64, bool, error) {
	f.note("T %d", block)
	if block < 0 || block >= len(f.blocks) || f.undated[block] {
		return 0, false, nil
	}
	return f.ts[block], true, nil
}

func (f *fakeStore) BlockIDs(block int) ([]uint16, error) {
	if block < 0 || block >= len(f.blocks) {
		return nil, nil
	}
	var out []uint16
	for _, id := range f.blocks[block] {
		if tracked(id) {
			out = append(out, id)
		}
	}
	return out, nil
}

func (f *fakeStore) naivePrev(id uint16, before int) int {
	return f.naivePrevSet([]uint16{id}, before)
}

func (f *fakeStore) naiveNext(id uint16, from int) int {
	return f.naiveNextSet([]uint16{id}, from)
}

func (f *fakeStore) naivePrevSet(ids []uint16, before int) int {
	if before > len(f.blocks) {
		before = len(f.blocks)
	}
	for b := before - 1; b >= 0; b-- {
		if f.holds(b, ids) {
			return b
		}
	}
	return -1
}

func (f *fakeStore) naiveNextSet(ids []uint16, from int) int {
	if from < 0 {
		from = 0
	}
	for b := from; b < len(f.blocks); b++ {
		if f.holds(b, ids) {
			return b
		}
	}
	return -1
}

// buildRandom populates the store with `blocks` sealed blocks over `nids`
// client log files, each block containing each id with probability p.
func buildRandom(t *testing.T, n, blocks, nids int, p float64, seed int64) *fakeStore {
	t.Helper()
	f := newFakeStore(t, n)
	rng := rand.New(rand.NewSource(seed))
	ts := int64(1000)
	for b := 0; b < blocks; b++ {
		var ids []uint16
		for i := 0; i < nids; i++ {
			if rng.Float64() < p {
				ids = append(ids, uint16(FirstClientID+i))
			}
		}
		ts += int64(rng.Intn(5)) // non-decreasing, possibly equal
		f.seal(ids, ts)
	}
	return f
}

func TestFindPrevMatchesNaive(t *testing.T) {
	for _, n := range []int{4, 16} {
		f := buildRandom(t, n, 3*n*n+7, 6, 0.08, int64(n))
		loc, err := NewLocator(f, n)
		if err != nil {
			t.Fatal(err)
		}
		for id := uint16(FirstClientID); id < FirstClientID+6; id++ {
			for before := 0; before <= f.End()+2; before++ {
				got, err := loc.FindPrev([]uint16{id}, before)
				if err != nil {
					t.Fatal(err)
				}
				if want := f.naivePrev(id, before); got != want {
					t.Fatalf("N=%d FindPrev(%d,%d) = %d, want %d", n, id, before, got, want)
				}
			}
		}
	}
}

func TestFindNextMatchesNaive(t *testing.T) {
	for _, n := range []int{4, 16} {
		f := buildRandom(t, n, 3*n*n+5, 6, 0.08, int64(n)+100)
		loc, err := NewLocator(f, n)
		if err != nil {
			t.Fatal(err)
		}
		for id := uint16(FirstClientID); id < FirstClientID+6; id++ {
			for from := -1; from <= f.End()+2; from++ {
				got, _, err := loc.FindNext([]uint16{id}, from)
				if err != nil {
					t.Fatal(err)
				}
				if want := f.naiveNext(id, from); got != want {
					t.Fatalf("N=%d FindNext(%d,%d) = %d, want %d", n, id, from, got, want)
				}
			}
		}
	}
}

func TestFindPrevAbsentID(t *testing.T) {
	f := buildRandom(t, 8, 200, 2, 0.2, 9)
	loc, _ := NewLocator(f, 8)
	got, err := loc.FindPrev([]uint16{999}, f.End())
	if err != nil || got != -1 {
		t.Errorf("absent id: %d, %v", got, err)
	}
}

func TestFindPrevWithMissingEntries(t *testing.T) {
	// Knock out a fraction of the written entrymap entries (displaced or
	// corrupted, §2.3.2); the locator must still be exact via raw scans.
	f := buildRandom(t, 4, 300, 4, 0.1, 21)
	rng := rand.New(rand.NewSource(77))
	for k := range f.entries {
		if rng.Float64() < 0.3 {
			f.missing[k] = true
		}
	}
	loc, _ := NewLocator(f, 4)
	for id := uint16(FirstClientID); id < FirstClientID+4; id++ {
		for before := 0; before <= f.End(); before += 7 {
			got, err := loc.FindPrev([]uint16{id}, before)
			if err != nil {
				t.Fatal(err)
			}
			if want := f.naivePrev(id, before); got != want {
				t.Fatalf("missing-entry FindPrev(%d,%d) = %d, want %d", id, before, got, want)
			}
		}
		from, _, err := loc.FindNext([]uint16{id}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if want := f.naiveNext(id, 0); from != want {
			t.Fatalf("missing-entry FindNext(%d,0) = %d, want %d", id, from, want)
		}
	}
	if loc.Stats.RawScans == 0 {
		t.Error("expected raw-scan fallbacks with missing entries")
	}
}

func TestLocateCostLogarithmic(t *testing.T) {
	// The paper's Figure 3: locating an entry d blocks away examines about
	// 2·log_N(d) entrymap entries. Verify the count stays within a small
	// constant of that for exact power-of-N distances.
	n := 16
	f := newFakeStore(t, n)
	const fid = uint16(FirstClientID)
	filler := uint16(FirstClientID + 1)
	f.seal([]uint16{fid}, 1)
	total := n*n*n + n // distance N^3 reachable
	for b := 1; b < total; b++ {
		f.seal([]uint16{filler}, int64(b))
	}
	loc, _ := NewLocator(f, n)
	for k := 1; k <= 3; k++ {
		d := pow(n, k)
		loc.Stats = LocateStats{}
		got, err := loc.FindPrev([]uint16{fid}, d+1) // distance d from position d+1 to block 0... target at block 0
		if err != nil || got != 0 {
			t.Fatalf("FindPrev = %d, %v", got, err)
		}
		examined := loc.Stats.EntriesExamined + loc.Stats.PendingExamined
		if examined > 2*k+1 {
			t.Errorf("distance N^%d: examined %d (entries %d, pending %d), want <= %d",
				k, examined, loc.Stats.EntriesExamined, loc.Stats.PendingExamined, 2*k+1)
		}
		if loc.Stats.RawScans != 0 {
			t.Errorf("distance N^%d: %d raw scans", k, loc.Stats.RawScans)
		}
	}
}

func TestFindByTimeMatchesNaive(t *testing.T) {
	f := buildRandom(t, 8, 700, 3, 0.3, 5)
	loc, _ := NewLocator(f, 8)
	minTS, maxTS := f.ts[0], f.ts[len(f.ts)-1]
	for ts := minTS - 2; ts <= maxTS+2; ts++ {
		got, err := loc.FindByTime(ts)
		if err != nil {
			t.Fatal(err)
		}
		want := f.naiveByTime(ts)
		if got != want {
			// Equal timestamps across blocks: any block with the same
			// firstTS is acceptable as long as it is the last such block.
			t.Fatalf("FindByTime(%d) = %d, want %d", ts, got, want)
		}
	}
}

func TestFindByTimeEmpty(t *testing.T) {
	f := newFakeStore(t, 8)
	loc, _ := NewLocator(f, 8)
	if got, err := loc.FindByTime(100); err != nil || got != -1 {
		t.Errorf("empty: %d, %v", got, err)
	}
}

func TestReconstructMatchesLiveAccumulator(t *testing.T) {
	for _, n := range []int{4, 16} {
		for _, end := range []int{0, 1, n - 1, n, n + 3, n * n, n*n + 2*n + 5, 3*n*n + 1} {
			f := buildRandom(t, n, end, 5, 0.15, int64(end*31+n))
			acc, _, err := Reconstruct(f, n, end)
			if err != nil {
				t.Fatalf("N=%d end=%d: %v", n, end, err)
			}
			for lvl := 1; lvl <= len(f.acc.levels); lvl++ {
				wantIDs := pendingIDs(f.acc, lvl)
				gotIDs := pendingIDs(acc, lvl)
				if !reflect.DeepEqual(gotIDs, wantIDs) {
					t.Fatalf("N=%d end=%d lvl=%d ids: got %v want %v", n, end, lvl, gotIDs, wantIDs)
				}
				for _, id := range wantIDs {
					w, _ := f.acc.Pending(lvl, id)
					g, _ := acc.Pending(lvl, id)
					if w.String() != g.String() {
						t.Fatalf("N=%d end=%d lvl=%d id=%d bitmap: got %s want %s",
							n, end, lvl, id, g, w)
					}
				}
			}
		}
	}
}

func TestReconstructWithMissingEntries(t *testing.T) {
	n := 4
	end := 3*n*n + n + 2
	f := buildRandom(t, n, end, 4, 0.2, 99)
	for k := range f.entries {
		f.missing[k] = true // every entrymap entry lost: full raw fallback
	}
	acc, stats, err := Reconstruct(f, n, end)
	if err != nil {
		t.Fatal(err)
	}
	for lvl := 1; lvl <= len(f.acc.levels); lvl++ {
		if !reflect.DeepEqual(pendingIDs(acc, lvl), pendingIDs(f.acc, lvl)) {
			t.Fatalf("lvl %d ids mismatch", lvl)
		}
	}
	if stats.BlocksScanned == 0 {
		t.Error("no raw scans despite missing entries")
	}
}

func TestReconstructCostBounded(t *testing.T) {
	// §3.4: reconstruction examines at most N·log_N(b) blocks.
	n := 16
	end := 2*n*n*n + 5*n*n + 3*n + 7
	f := buildRandom(t, n, end, 4, 0.1, 13)
	_, stats, err := Reconstruct(f, n, end)
	if err != nil {
		t.Fatal(err)
	}
	logN := 1
	for v := end; v >= n; v /= n {
		logN++
	}
	bound := n * logN
	if got := stats.BlocksScanned + stats.EntriesRead; got > bound {
		t.Errorf("reconstruction examined %d blocks, bound %d", got, bound)
	}
}

func TestMaxLevelAndSpanSize(t *testing.T) {
	if pow(16, 2) != 256 {
		t.Error("pow")
	}
	cases := []struct{ n, blocks, want int }{
		{16, 10, 1}, {16, 255, 1}, {16, 256, 2}, {16, 4096, 3}, {4, 64, 3},
	}
	for _, c := range cases {
		if got := MaxLevel(c.n, c.blocks); got != c.want {
			t.Errorf("MaxLevel(%d,%d) = %d, want %d", c.n, c.blocks, got, c.want)
		}
	}
}

func TestLocatorPropertyQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 25}
	prop := func(seed int64, beforeRaw uint16) bool {
		n := 4
		f := buildRandom(t, n, 150, 3, 0.12, seed)
		loc, _ := NewLocator(f, n)
		before := int(beforeRaw) % 160
		for id := uint16(FirstClientID); id < FirstClientID+3; id++ {
			got, err := loc.FindPrev([]uint16{id}, before)
			if err != nil || got != f.naivePrev(id, before) {
				return false
			}
			got, _, err = loc.FindNext([]uint16{id}, before)
			if err != nil || got != f.naiveNext(id, before) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}
