// Package analytic holds the closed-form cost models of the paper's §3, so
// the benchmark harness can print "theory" next to "measured" for every
// figure:
//
//   - Figure 3: the average number of entrymap log entries examined to
//     locate an entry d blocks away without caching — "it can be located by
//     examining, on average, about n = 2·log_N(d) entrymap log entries";
//   - Figure 4: the average number of blocks examined to reconstruct
//     entrymap information at recovery — "roughly n = (N·log_N b)/2";
//   - §3.5: the space-overhead bound per log entry,
//     o_e ≤ c·(h + a·(N/8 + c'))/(N−1).
package analytic

import "math"

// logN returns log base n of x (x, n > 1).
func logN(n int, x float64) float64 {
	return math.Log(x) / math.Log(float64(n))
}

// Fig3LocateEntries is the Figure 3 curve: the expected number of entrymap
// log entries examined to locate an entry d blocks away with no caching,
// n ≈ 2·log_N(d). At exact power-of-N distances d = N^k the count is the
// 2k−1 of Table 1 (k levels up, k−1 down).
func Fig3LocateEntries(n int, d float64) float64 {
	if d <= 1 {
		return 0
	}
	return 2 * logN(n, d)
}

// Table1Entries is the exact Table 1 count for a search distance of N^k:
// 2k−1 entrymap entries.
func Table1Entries(k int) int {
	if k <= 0 {
		return 0
	}
	return 2*k - 1
}

// Table1Blocks is Table 1's "# of disk blocks read" for distance N^k: the
// entrymap entries' blocks plus the start and target blocks (2k+1; one
// block at distance 0).
func Table1Blocks(k int) int {
	if k <= 0 {
		return 1
	}
	return 2*k + 1
}

// Fig4RecoveryBlocks is the Figure 4 curve: the expected number of blocks
// examined to reconstruct missing entrymap information for a volume with b
// written blocks, n = (N·log_N b)/2 on average (N·log_N b worst case).
func Fig4RecoveryBlocks(n int, b float64) float64 {
	if b <= 1 {
		return 0
	}
	return float64(n) * logN(n, b) / 2
}

// EntrymapEntrySize is the §3.5 model of the average entrymap log entry
// size: ē = h + a·(N/8 + cPrime) bytes, where h is the entry header size, a
// the average number of log files referenced, and cPrime the per-reference
// constant (id encoding, ~2 bytes).
func EntrymapEntrySize(h float64, n int, a, cPrime float64) float64 {
	return h + a*(float64(n)/8+cPrime)
}

// SpaceOverheadBound is §3.5's bound on the average per-entry space
// overhead due to entrymap entries: o_e ≤ c·ē/(N−1), where c is the
// fraction of a block the average entry occupies. With h=4, N=16, c'=2 this
// is the paper's 0.27·c·(a+1) bytes.
func SpaceOverheadBound(h float64, n int, a, c, cPrime float64) float64 {
	return c * EntrymapEntrySize(h, n, a, cPrime) / float64(n-1)
}

// Section4ReadCost is §4's storage-model cost example: the expected cost of
// a 1-kilobyte retrieval given a cache hit ratio h, a cache access cost, and
// the log-device miss cost ("100 ms if the data is read from a log device
// (on a cache miss), 30 ms if ... from a magnetic disk cache, and 1 ms if
// ... from a RAM cache").
func Section4ReadCost(hitRatio, cacheMs, missMs float64) float64 {
	return hitRatio*cacheMs + (1-hitRatio)*missMs
}

// Section4BreakEvenRatio returns the fraction of the disk cache's hit ratio
// the RAM cache must reach for equal read performance: the paper's "as long
// as the cache hit ratio for the RAM cache is at least 70% of the cache hit
// ratio of the disk cache, then the RAM cache has the better read access
// performance" (with ramMs=1, diskMs=30, logMs=100 this returns ~0.70).
func Section4BreakEvenRatio(ramMs, diskMs, logMs float64) float64 {
	// Solve hRam such that hRam*ram + (1-hRam)*log = hDisk*disk + (1-hDisk)*log
	// → hRam/hDisk = (log-disk)/(log-ram).
	return (logMs - diskMs) / (logMs - ramMs)
}
