package entrymap

import (
	"fmt"
	"math/bits"
	"testing"
)

// naiveByTime is the reference time search over the blocks that can date
// themselves: the greatest readable block whose first timestamp is <= ts.
// When there is none, it is 0 if block 0 is undated (a search cannot tell
// that ts precedes it) and -1 otherwise.
func (f *fakeStore) naiveByTime(ts int64) int {
	best := -1
	for b := range f.ts {
		if !f.undated[b] && f.ts[b] <= ts {
			best = b
		}
	}
	if best < 0 && f.undated[0] {
		return 0
	}
	return best
}

// probeBound is the most footers one descent may date to find ans among end
// readable blocks: one for block 0, then at each level a binary search over
// the landmarks strictly inside the interval the level above left, at most
// ⌈log2(count+1)⌉ probes for count landmarks.
func probeBound(n, end, ans int) int {
	reads := 1
	if ans < 0 {
		return reads
	}
	lo, hi := 0, end
	for level := MaxLevel(n, end) + 1; level >= 0; level-- {
		span := pow(n, level)
		if first := (lo/span + 1) * span; first < hi {
			reads += bits.Len(uint((hi-1-first)/span + 1))
		}
		lo = ans / span * span
		hi = min(hi, lo+span)
	}
	return reads
}

// TestFindByTimeProbeBound: the time search is one descent with a binary
// search at every level, level 0 included, so no search dates more blocks
// than probeBound — a linear walk of the last span dates up to N−1.
func TestFindByTimeProbeBound(t *testing.T) {
	for _, n := range []int{4, 8, 16} {
		for k := 1; k <= 3; k++ {
			p := pow(n, k)
			for _, end := range []int{p - 1, p, p + n + 1} {
				f := buildRandom(t, n, end, 3, 0.3, int64(n*1000+end))
				loc, _ := NewLocator(f, n)
				for ts := f.ts[0] - 2; ts <= f.ts[end-1]+2; ts++ {
					loc.Stats = LocateStats{}
					got, err := loc.FindByTime(ts)
					if err != nil {
						t.Fatal(err)
					}
					want := f.naiveByTime(ts)
					if got != want {
						t.Fatalf("N=%d end=%d: FindByTime(%d) = %d, want %d", n, end, ts, got, want)
					}
					if bound := probeBound(n, end, want); loc.Stats.TimestampReads > bound {
						t.Fatalf("N=%d end=%d: FindByTime(%d) dated %d blocks, bound %d",
							n, end, ts, loc.Stats.TimestampReads, bound)
					}
				}
			}
		}
	}
}

// TestFindByTimeUnreadable: a block that cannot date itself reads as later
// than any time, at a landmark and inside the last span alike. The answer
// is then never past the reference over readable blocks, dates itself at or
// before ts, and is early only across an undated block.
func TestFindByTimeUnreadable(t *testing.T) {
	const n = 4
	end := 3*n*n + 5
	early := 0
	for _, undated := range [][]int{
		{0},          // the first block
		{n}, {n * n}, // landmarks of levels 1 and 2
		{n + 2}, {n + 1}, // inside a last span
		{end - 1},                         // a tail not yet dated
		{2*n*n + 1, 2*n*n + 2, 2*n*n + 3}, // a whole last span but its landmark
		{0, n, n*n + 2, 2 * n * n, end - 1},
	} {
		t.Run(fmt.Sprint(undated), func(t *testing.T) {
			f := buildRandom(t, n, end, 3, 0.3, int64(len(undated)*7+undated[0]))
			for _, b := range undated {
				f.undated[b] = true
			}
			loc, _ := NewLocator(f, n)
			for ts := f.ts[0] - 2; ts <= f.ts[end-1]+2; ts++ {
				got, err := loc.FindByTime(ts)
				if err != nil {
					t.Fatal(err)
				}
				want := f.naiveByTime(ts)
				switch {
				case got > want:
					t.Fatalf("FindByTime(%d) = %d, past the reference %d", ts, got, want)
				case got >= 0 && !f.undated[got] && f.ts[got] > ts:
					t.Fatalf("FindByTime(%d) = %d, which is dated %d", ts, got, f.ts[got])
				case got >= 0 && f.undated[got] && got != 0:
					t.Fatalf("FindByTime(%d) = %d, an undated block", ts, got)
				case got < want && !undatedIn(f, got+1, want+1):
					t.Fatalf("FindByTime(%d) = %d, early of %d with no undated block between", ts, got, want)
				case got < want:
					early++
				}
			}
		})
	}
	if early == 0 {
		t.Error("no search stopped below an undated block")
	}
}

// undatedIn reports whether some block of [lo, hi) cannot date itself.
func undatedIn(f *fakeStore, lo, hi int) bool {
	for b := lo; b < hi; b++ {
		if f.undated[b] {
			return true
		}
	}
	return false
}
