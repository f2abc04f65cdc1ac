package entrymap

import (
	"hash/fnv"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// diffIDs is how many client log files a differential scenario writes.
const diffIDs = 6

// buildDiffStore makes the seeded fake store of one differential scenario:
// its degree and length, which ids each block holds, and which entrymap
// entries are missing, displaced (some past the scan limit, some not yet
// readable) or pending-unknown. Each id has its own density and window, so
// a set may hold an id that stopped long ago, one whose only entries are in
// the writer's pending spans, or one never written at all.
func buildDiffStore(t *testing.T, seed int64) *fakeStore {
	rng := rand.New(rand.NewSource(seed))
	n := []int{2, 3, 4, 5, 8}[rng.Intn(5)]
	f := newFakeStore(t, n)
	blocks := 40 + rng.Intn(320)
	type window struct {
		start, stop int
		p           float64
	}
	ws := make([]window, diffIDs)
	for i := range ws {
		switch rng.Intn(5) {
		case 0: // late: only the last blocks, still in the pending spans
			ws[i] = window{blocks - 1 - rng.Intn(2*n+1), blocks, 0.5}
		case 1: // stopped early
			ws[i] = window{0, rng.Intn(blocks/2 + 1), 0.2}
		case 2: // never written
		default:
			lo := rng.Intn(blocks)
			ws[i] = window{lo, lo + rng.Intn(blocks), 0.02 + 0.2*rng.Float64()}
		}
	}
	for b := 0; b < blocks; b++ {
		var ids []uint16
		for i, w := range ws {
			if b >= w.start && b < w.stop && rng.Float64() < w.p {
				ids = append(ids, uint16(FirstClientID+i))
			}
		}
		f.seal(ids, int64(b))
	}
	keys := make([][2]int, 0, len(f.entries))
	for k := range f.entries {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		return keys[i][1] < keys[j][1] || keys[i][1] == keys[j][1] && keys[i][0] < keys[j][0]
	})
	f.limit = 2
	for _, k := range keys {
		switch rng.Intn(10) {
		case 0:
			f.missing[k] = true
		case 1:
			f.displaced[k] = 1 + rng.Intn(4)
		}
	}
	for lvl := 1; lvl <= len(f.acc.levels); lvl++ {
		for i := 0; i < diffIDs; i++ {
			if rng.Intn(8) == 0 {
				f.unknown[[2]int{lvl, FirstClientID + i}] = true
			}
		}
	}
	return f
}

// diffSets returns every one-id set and, for each size 2…diffIDs, two random
// ascending sets.
func diffSets(seed int64) [][]uint16 {
	rng := rand.New(rand.NewSource(seed))
	var sets [][]uint16
	for i := 0; i < diffIDs; i++ {
		sets = append(sets, []uint16{uint16(FirstClientID + i)})
	}
	for k := 2; k <= diffIDs; k++ {
		for r := 0; r < 2; r++ {
			set := make([]uint16, 0, k)
			for _, i := range rng.Perm(diffIDs)[:k] {
				set = append(set, uint16(FirstClientID+i))
			}
			slices.Sort(set)
			sets = append(sets, set)
		}
	}
	return sets
}

// TestLocatorSetDifferential: a search for a set of log files answers what
// the searches for its members answer between them — FindNext the least,
// FindPrev the greatest — and what a scan of the blocks answers, from every
// position, over stores with missing, displaced and pending-unknown entrymap
// information at every level. FindNext's run answers, from every block after
// the answer in its span, what the scan answers there, and comes only from a
// written level-1 entry.
func TestLocatorSetDifferential(t *testing.T) {
	for seed := int64(1); seed <= 16; seed++ {
		f := buildDiffStore(t, seed)
		loc, err := NewLocator(f, f.n)
		if err != nil {
			t.Fatal(err)
		}
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("seed %d (N=%d, %d blocks): "+format, append([]any{seed, f.n, f.End()}, args...)...)
		}
		for _, set := range diffSets(seed) {
			for from := -1; from <= f.End()+1; from++ {
				got, run, err := loc.FindNext(set, from)
				if err != nil {
					fail("FindNext(%v, %d): %v", set, from, err)
				}
				least := -1
				for _, id := range set {
					if b, _, _ := loc.FindNext([]uint16{id}, from); b >= 0 && (least < 0 || b < least) {
						least = b
					}
				}
				if naive := f.naiveNextSet(set, from); got != least || got != naive {
					fail("FindNext(%v, %d) = %d; least over the ids %d, scan %d", set, from, got, least, naive)
				}
				if run.End == 0 {
					continue
				}
				if !run.Covers(got) || run.End != run.Start+f.n || run.End >= f.End() {
					fail("FindNext(%v, %d) = %d with the run [%d, %d) of a %d-block store", set, from, got, run.Start, run.End, f.End())
				}
				if k := [2]int{1, run.End}; f.missing[k] || f.entries[k] == nil || f.displaced[k] > f.limit || run.End+f.displaced[k] >= f.End() {
					fail("FindNext(%v, %d): a run [%d, %d) from an entry that cannot be read", set, from, run.Start, run.End)
				}
				for b := got + 1; b < run.End; b++ {
					want := f.naiveNextSet(set, b)
					if next := run.Next(b); next != want && (next >= 0 || want >= 0 && want < run.End) {
						fail("the run [%d, %d) of FindNext(%v, %d) answers %d from block %d, the scan %d", run.Start, run.End, set, from, next, b, want)
					}
				}
			}
			for before := 0; before <= f.End()+1; before++ {
				got, err := loc.FindPrev(set, before)
				if err != nil {
					fail("FindPrev(%v, %d): %v", set, before, err)
				}
				greatest := -1
				for _, id := range set {
					if b, _ := loc.FindPrev([]uint16{id}, before); b > greatest {
						greatest = b
					}
				}
				if naive := f.naivePrevSet(set, before); got != greatest || got != naive {
					fail("FindPrev(%v, %d) = %d; greatest over the ids %d, scan %d", set, before, got, greatest, naive)
				}
			}
		}
	}
}

// TestLocatorSingleIDUnchanged pins what a one-id search does: the counts it
// keeps and every Source call it makes, in order, hashed, for every id and
// every position of four scenarios. The figures are the ones the per-id
// locator this one replaced produced for the same calls.
func TestLocatorSingleIDUnchanged(t *testing.T) {
	want := []struct {
		stats LocateStats
		trace uint64
	}{
		{LocateStats{EntriesExamined: 14106, PendingExamined: 3245, RawScans: 1350}, 0xcc62b06bfc6b2b2d},
		{LocateStats{EntriesExamined: 6550, PendingExamined: 1441, RawScans: 651}, 0x401cdad73c3f60d2},
		{LocateStats{EntriesExamined: 2474, PendingExamined: 979, RawScans: 1019}, 0x1efecfa5fafae5d5},
		{LocateStats{EntriesExamined: 11218, PendingExamined: 3006, RawScans: 1233}, 0x3104e4431e167a4d},
	}
	for i, w := range want {
		seed := int64(i + 1)
		f := buildDiffStore(t, seed)
		h := fnv.New64a()
		f.trace = h
		loc, err := NewLocator(f, f.n)
		if err != nil {
			t.Fatal(err)
		}
		for id := uint16(FirstClientID); id < FirstClientID+diffIDs; id++ {
			for from := -1; from <= f.End()+1; from++ {
				if _, _, err := loc.FindNext([]uint16{id}, from); err != nil {
					t.Fatal(err)
				}
			}
			for before := 0; before <= f.End()+1; before++ {
				if _, err := loc.FindPrev([]uint16{id}, before); err != nil {
					t.Fatal(err)
				}
			}
		}
		if loc.Stats != w.stats || h.Sum64() != w.trace {
			t.Errorf("seed %d: one-id searches counted %+v with Source calls hashing to %#x; the per-id locator counted %+v, %#x",
				seed, loc.Stats, h.Sum64(), w.stats, w.trace)
		}
	}
}
