package baseline

import (
	"math/rand"
	"testing"
)

func occEvery(step, end int) Occurrences {
	var o Occurrences
	for b := 0; b < end; b += step {
		o = append(o, b)
	}
	return o
}

func TestLinearLocator(t *testing.T) {
	occ := Occurrences{0, 10, 20}
	l := &LinearLocator{End: 30}
	block, reads := l.FindPrev(occ, 25)
	if block != 20 || reads != 5 {
		t.Errorf("FindPrev(25) = %d, %d", block, reads)
	}
	block, reads = l.FindPrev(occ, 30)
	if block != 20 || reads != 10 {
		t.Errorf("FindPrev(30) = %d, %d", block, reads)
	}
	// A miss scans all the way back.
	block, reads = l.FindPrev(Occurrences{}, 30)
	if block != -1 || reads != 30 {
		t.Errorf("miss = %d, %d", block, reads)
	}
}

// ChainLocator follows per-entry back-pointers (Swallow). Locating the k-th
// most recent entry costs k hops; each hop is a block read. Scanning
// *forwards* is impossible "without reading every subsequent block on the
// storage device" (§5), which ForwardScanReads quantifies.
type ChainLocator struct {
	End int
}

// FindKthPrev returns the block of the k-th most recent entry (k=1 is the
// newest) and the reads: one per hop along the chain.
func (c *ChainLocator) FindKthPrev(occ Occurrences, k int) (block, reads int) {
	if k < 1 || k > len(occ) {
		return -1, len(occ)
	}
	return occ[len(occ)-k], k
}

// ForwardScanReads is the cost of moving one step forward through an
// object history in Swallow: every subsequent block must be read.
func (c *ChainLocator) ForwardScanReads(fromBlock int) int {
	return c.End - fromBlock
}

func TestChainLocator(t *testing.T) {
	occ := occEvery(2, 100) // 50 entries
	c := &ChainLocator{End: 100}
	block, reads := c.FindKthPrev(occ, 1)
	if block != 98 || reads != 1 {
		t.Errorf("newest = %d, %d", block, reads)
	}
	block, reads = c.FindKthPrev(occ, 50)
	if block != 0 || reads != 50 {
		t.Errorf("oldest = %d, %d", block, reads)
	}
	if got := c.ForwardScanReads(10); got != 90 {
		t.Errorf("forward scan = %d", got)
	}
}

func TestBinaryTreeLocatorCorrectAndLogarithmic(t *testing.T) {
	occ := occEvery(1, 1<<16)
	b := &BinaryTreeLocator{End: 1 << 16}
	bound := 17 // ceil(log2(65536)) + 1
	for _, before := range []int{1, 2, 100, 1 << 10, 1 << 16} {
		block, reads := b.FindPrev(occ, before)
		if block != before-1 {
			t.Errorf("FindPrev(%d) block = %d", before, block)
		}
		if reads > bound || reads < 1 {
			t.Errorf("FindPrev(%d): %d reads outside (0, %d]", before, reads, bound)
		}
	}
}

func TestBinaryTreeBeatsLinearLosesToEntrymapShape(t *testing.T) {
	// The §5 claim's shape: for distant entries, linear >> binary tree >
	// Clio's ~2·log_N. Binary-tree reads ≈ log2(m) for m = 5000 entries is
	// ~12 reads, versus Clio's 5 entrymap entries at distance 16^3
	// (asserted in the entrymap tests).
	occ := occEvery(1, 5000)
	b := &BinaryTreeLocator{End: 5000}
	_, reads := b.FindPrev(occ, 5000-4095)
	if reads < 8 || reads > 14 {
		t.Errorf("binary tree reads for distance 4095 = %d, want ~log2(m)", reads)
	}
	l := &LinearLocator{End: 5000}
	_, lr := l.FindPrev(occ, 5000-4096)
	if lr != 1 { // occurrences are dense: last block < before is adjacent
		t.Errorf("dense linear = %d", lr)
	}
	// Sparse target: one entry at block 0, search from far away.
	sparse := Occurrences{0}
	_, lr = l.FindPrev(sparse, 4097)
	if lr != 4097 {
		t.Errorf("sparse linear = %d, want distance", lr)
	}
	_, br := b.FindPrev(sparse, 4097)
	if br != 1 {
		t.Errorf("sparse binary = %d (single entry is the newest)", br)
	}
}

func TestBSTDepthProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		m := 1 + rng.Intn(100000)
		r := rng.Intn(m)
		d := bstDepth(m, r)
		// Depth is positive and at most ceil(log2(m))+1.
		bound := 1
		for v := 1; v < m; v *= 2 {
			bound++
		}
		if d < 1 || d > bound {
			t.Fatalf("bstDepth(%d,%d) = %d, bound %d", m, r, d, bound)
		}
	}
	if bstDepth(0, 0) != 0 {
		t.Error("empty tree depth != 0")
	}
	if bstDepth(1, 0) != 1 {
		t.Error("singleton depth != 1")
	}
}
