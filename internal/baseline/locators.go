// Package baseline implements the comparison points the paper argues
// against, so the evaluation can measure Clio's entrymap search tree against
// them on the same volumes:
//
//   - LinearLocator: the strawman of §2.1 — "a log server could locate the
//     entries that are members of a particular log file by examining every
//     entry in every block of the volume sequence. This, of course, would be
//     prohibitively expensive."
//   - BinaryTreeLocator: the Daniels et al. distributed-logging scheme
//     (§5) — a binary tree over each log file's entries. "The performance of
//     this scheme is within a constant factor of ours (both schemes have
//     logarithmic performance ...), but our scheme requires significantly
//     fewer disk read operations, on average, to locate very distant log
//     entries."
//
// Each locator reports the number of block reads its on-disk structure
// would require; the experiments charge those reads under the same optical
// disk cost model as Clio's.
package baseline

import "sort"

// Occurrences is the ground truth for one log file: the sorted list of data
// blocks containing its entries. Experiments construct it from the workload
// (or by scanning the volume once).
type Occurrences []int

// rankBefore returns the index of the last occurrence < before, or -1.
func (o Occurrences) rankBefore(before int) int {
	return sort.SearchInts(o, before) - 1
}

// LinearLocator scans backwards block by block.
type LinearLocator struct {
	// End is the number of written data blocks.
	End int
}

// FindPrev returns the last block < before holding an entry, and the block
// reads a scan would cost: one read per examined block.
func (l *LinearLocator) FindPrev(occ Occurrences, before int) (block, reads int) {
	if before > l.End {
		before = l.End
	}
	i := occ.rankBefore(before)
	if i < 0 {
		return -1, before // scanned everything back to the start
	}
	return occ[i], before - occ[i]
}

// BinaryTreeLocator models the Daniels et al. structure: a balanced binary
// tree threaded through each log file's entries, so locating an entry by
// position or time walks a root-to-node path, one block read per node.
type BinaryTreeLocator struct {
	End int
}

// FindPrev locates the last block < before and counts the reads of a
// balanced binary search over the log's entries (the path from the tree's
// root to the target's rank).
func (b *BinaryTreeLocator) FindPrev(occ Occurrences, before int) (block, reads int) {
	target := occ.rankBefore(before)
	if target < 0 {
		// A miss still walks a full path.
		return -1, bstDepth(len(occ), 0)
	}
	return occ[target], bstDepth(len(occ), target)
}

// bstDepth returns the number of nodes visited to reach rank r in a
// perfectly balanced binary search tree over m entries.
func bstDepth(m, r int) int {
	if m <= 0 {
		return 0
	}
	lo, hi := 0, m
	d := 0
	for {
		mid := (lo + hi) / 2
		d++
		switch {
		case r == mid:
			return d
		case r < mid:
			hi = mid
		default:
			lo = mid + 1
		}
	}
}
