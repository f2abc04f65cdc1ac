package analytic

import (
	"math"
	"testing"
)

func TestFig3Shape(t *testing.T) {
	// Monotone in d, decreasing in N, and matching Table 1 at powers.
	if Fig3LocateEntries(16, 1) != 0 {
		t.Error("d=1 not zero")
	}
	if Fig3LocateEntries(16, 1e6) <= Fig3LocateEntries(16, 1e3) {
		t.Error("not monotone in d")
	}
	if Fig3LocateEntries(4, 1e6) <= Fig3LocateEntries(64, 1e6) {
		t.Error("larger N should examine fewer entries")
	}
	// 2·log_16(16^3) = 6 ≈ Table 1's 2k−1 = 5 within one entry.
	got := Fig3LocateEntries(16, math.Pow(16, 3))
	if math.Abs(got-6) > 1e-9 {
		t.Errorf("Fig3(16, 16^3) = %v", got)
	}
	// The paper: "there is little benefit in N being larger than 16 or 32".
	gain16to128 := Fig3LocateEntries(16, 1e7) - Fig3LocateEntries(128, 1e7)
	gain4to16 := Fig3LocateEntries(4, 1e7) - Fig3LocateEntries(16, 1e7)
	if gain16to128 >= gain4to16 {
		t.Error("diminishing returns in N not reproduced")
	}
}

func TestTable1Exact(t *testing.T) {
	wantE := []int{0, 1, 3, 5, 7, 9}
	wantB := []int{1, 3, 5, 7, 9, 11}
	for k := 0; k <= 5; k++ {
		if Table1Entries(k) != wantE[k] {
			t.Errorf("entries(k=%d) = %d", k, Table1Entries(k))
		}
		if Table1Blocks(k) != wantB[k] {
			t.Errorf("blocks(k=%d) = %d", k, Table1Blocks(k))
		}
	}
}

func TestFig4Shape(t *testing.T) {
	// Increases with N (the paper: "this cost increases if N is increased").
	if Fig4RecoveryBlocks(16, 1e6) >= Fig4RecoveryBlocks(128, 1e6) {
		t.Error("recovery cost should increase with N")
	}
	if Fig4RecoveryBlocks(16, 1e8) <= Fig4RecoveryBlocks(16, 1e4) {
		t.Error("not monotone in b")
	}
	// N=16, b=16^4: (16·4)/2 = 32.
	got := Fig4RecoveryBlocks(16, math.Pow(16, 4))
	if math.Abs(got-32) > 1e-9 {
		t.Errorf("Fig4(16, 16^4) = %v", got)
	}
}

func TestSpaceOverheadPaperNumbers(t *testing.T) {
	// §3.5: h=4, N=16, c'=2 → o_e ≤ 0.27·c·(a+1).
	for _, a := range []float64{1, 4, 8} {
		for _, c := range []float64{1.0 / 15, 0.5} {
			got := SpaceOverheadBound(4, 16, a, c, 2)
			want := (4 + a*4) / 15 * c
			if math.Abs(got-want) > 1e-12 {
				t.Errorf("bound(a=%v,c=%v) = %v, want %v", a, c, got, want)
			}
		}
	}
	// Login/logout file system: c≈1/15, a≈8 → < 0.16 bytes.
	if got := SpaceOverheadBound(4, 16, 8, 1.0/15, 2); got > 0.16+1e-9 {
		t.Errorf("login fs bound = %v, paper says < 0.16", got)
	}
}

// headerOverheadPercent is §2.2's header-overhead figure: with the minimal
// 4-byte header, the overhead for an entry with d bytes of client data is
// 400/(d+4) percent.
func headerOverheadPercent(d float64) float64 {
	return 400 / (d + 4)
}

// binaryTreeLocateReads models the Daniels et al. comparison (§5): a binary
// tree over m entries needs ~log2(distance) reads to locate a distant
// entry.
func binaryTreeLocateReads(distance float64) float64 {
	if distance < 1 {
		return 1
	}
	return math.Log2(distance) + 1
}

// findEndProbes is the §3.4 cost of locating the end of the written portion
// by binary search: log2(V) probing reads for a V-block volume.
func findEndProbes(v float64) float64 {
	if v <= 1 {
		return 1
	}
	return math.Log2(v)
}

func TestHeaderOverheadPercent(t *testing.T) {
	// "less than 10% for entries with more than 36 bytes of client data".
	if got := headerOverheadPercent(36); got > 10 {
		t.Errorf("36-byte overhead = %v%%", got)
	}
	if got := headerOverheadPercent(0); got != 100 {
		t.Errorf("null entry overhead = %v%%, want 100", got)
	}
}

func TestBinaryTreeAndProbes(t *testing.T) {
	if binaryTreeLocateReads(1024) < 10 {
		t.Error("binary tree reads too low")
	}
	if findEndProbes(1<<20) != 20 {
		t.Errorf("findEndProbes(1M) = %v", findEndProbes(1<<20))
	}
}

func TestSection4BreakEven(t *testing.T) {
	// The paper's example numbers: 1 ms RAM, 30 ms disk cache, 100 ms log
	// device → RAM wins at >= ~70% of the disk cache's hit ratio.
	r := Section4BreakEvenRatio(1, 30, 100)
	if r < 0.70 || r > 0.71 {
		t.Errorf("break-even ratio = %v, paper says ~0.70", r)
	}
	// Sanity: equal costs at the break-even point.
	hDisk := 0.9
	hRAM := hDisk * r
	ram := Section4ReadCost(hRAM, 1, 100)
	disk := Section4ReadCost(hDisk, 30, 100)
	if math.Abs(ram-disk) > 1e-9 {
		t.Errorf("costs at break-even differ: %v vs %v", ram, disk)
	}
}
