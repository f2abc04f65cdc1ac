package core

import (
	"fmt"
	"testing"

	"clio/internal/blockfmt"
	"clio/internal/entrymap"
	"clio/internal/wodev"
)

// entrymapEntriesIn returns the (level, boundary) pairs of all entrymap
// entries whose first fragment lies in data blocks [from, to).
func entrymapEntriesIn(t *testing.T, s *Service, from, to int) [][2]int {
	t.Helper()
	var out [][2]int
	for b := from; b < to; b++ {
		parsed, err := s.parseBlock(b)
		if err != nil {
			continue
		}
		var r blockfmt.RecordView
		for i := range parsed.Len() {
			if parsed.Record(i, &r); r.LogID != entrymap.EntrymapID || r.Continued {
				continue
			}
			data, aerr := s.assemble(b, i, parsed)
			if aerr != nil {
				continue
			}
			e, derr := entrymap.Decode(data)
			if derr != nil {
				continue
			}
			out = append(out, [2]int{e.Level, e.Boundary})
		}
	}
	return out
}

// TestRecoveryLastBoundAtDegreeMultiples audits the post-recovery seed
//
//	s.lastBound = ((s.sealedEnd - 1) / s.opt.Degree) * s.opt.Degree
//
// at the suspicious points: sealedEnd an exact multiple of Degree, an exact
// multiple of Degree², and one past it. The site is CORRECT, and these
// tests pin why:
//
//   - Boundary kN is emitted when block kN *starts*, so a volume sealed at
//     exactly kN blocks has NOT yet emitted boundary kN — recovery must
//     seed lastBound = (k-1)N (which (kN-1)/N*N gives), so the next append
//     (starting block kN) emits it. Seeding kN would skip the boundary and
//     lose level-1 coverage for blocks [kN-N, kN).
//   - At sealedEnd = kN+1 the live writer already emitted boundary kN when
//     block kN began; (kN+1-1)/N*N = kN correctly marks it done, so the
//     next append emits nothing until block kN+N starts.
//   - The NVRAM-staged-tail case (tail block == sealedEnd) is handled
//     separately by restoreTail, which re-runs boundaries in
//     (lastBound, tail] and re-queues entries missing from the image.
func TestRecoveryLastBoundAtDegreeMultiples(t *testing.T) {
	const n = 4
	cases := []struct {
		name   string
		target int // sealed blocks at crash
		// entrymap entries that must appear in the blocks written by the
		// single post-recovery append (nil = none until a later boundary)
		emitted [][2]int
	}{
		// Sealed exactly at N: boundary N still owed; next append emits the
		// level-1 entry covering blocks [0, N).
		{"endN", n, [][2]int{{1, n}}},
		// Sealed exactly at N²: boundary N² still owed; next append emits
		// level 2 for [0, N²) then level 1 for [N²-N, N²) (higher levels
		// are written first).
		{"endN2", n * n, [][2]int{{2, n * n}, {1, n * n}}},
		// Sealed at N²+1: boundary N² was emitted before the crash (and is
		// on the device); nothing is owed until block N²+N starts.
		{"endN2plus1", n*n + 1, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clk := &testClock{}
			opt := Options{BlockSize: 256, Degree: n, Now: clk.Now}
			dev := wodev.NewMem(wodev.MemOptions{BlockSize: 256, Capacity: 1 << 10})
			s, err := New(dev, opt)
			if err != nil {
				t.Fatal(err)
			}
			id := mustCreate(t, s, "/b")
			var want []string
			// Without NVRAM every forced append seals one padded block, so
			// the sealed count is steerable exactly.
			for s.End() < tc.target {
				p := fmt.Sprintf("x%03d", s.End())
				mustAppend(t, s, id, p, AppendOptions{Forced: true})
				want = append(want, p)
			}
			if s.End() != tc.target {
				t.Fatalf("overshot: sealed %d blocks, wanted exactly %d", s.End(), tc.target)
			}
			s2 := crashAndReopen(t, s, dev, opt)
			defer s2.Close()

			wantBound := ((tc.target - 1) / n) * n
			s2.mu.Lock()
			gotBound := s2.lastBound
			s2.mu.Unlock()
			if gotBound != wantBound {
				t.Fatalf("lastBound after recovery = %d, want %d", gotBound, wantBound)
			}

			// One post-recovery append: check exactly which entrymap
			// entries it emits.
			mustAppend(t, s2, id, "after", AppendOptions{Forced: true})
			want = append(want, "after")
			got := entrymapEntriesIn(t, s2, tc.target, s2.End())
			if fmt.Sprint(got) != fmt.Sprint(tc.emitted) {
				t.Errorf("entries emitted by next append = %v, want %v", got, tc.emitted)
			}
			if tc.target == n*n+1 {
				// The pre-crash blocks must already hold boundary N² at
				// levels 1 and 2 — that is what makes re-emitting wrong.
				pre := entrymapEntriesIn(t, s2, n*n, tc.target)
				if fmt.Sprint(pre) != fmt.Sprint([][2]int{{2, n * n}, {1, n * n}}) {
					t.Errorf("pre-crash boundary N² entries = %v", pre)
				}
			}

			if got := datas(readAll(t, s2, "/b")); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("read back %d entries, want %d", len(got), len(want))
			}
		})
	}
}
